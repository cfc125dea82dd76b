"""Byte-level pins of CLI output: exit code and SHA-256 of stdout.

The digests in ``golden_cli.json`` were recorded before the index-based
group kernel replaced element-object products, so any change in class
order, representatives, sizes or character values shows up here.  Every
command runs in-process; caches shared between the cases keep this cheap.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from coxeterkit.cli import main

GOLDENS = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_cli_output_matches_golden(key):
    command, type_text, fmt = key.split(" ")
    out = io.StringIO()
    code = main(["--format", fmt, command, type_text], out=out)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (code, digest) == (GOLDENS[key]["exit"], GOLDENS[key]["sha256"])
