"""Byte-level pins of CLI output: exit code and SHA-256 of stdout.

The digests in ``golden_cli.json`` were recorded before the index-based
group kernel replaced element-object products, so any change in class
order, representatives, sizes or character values shows up here.  The
``classify`` cases, the ``float`` cases and the I2(11), I2(12) and I2(24)
cases were recorded before the integer cyclotomic kernel replaced the
Fraction-dict one; they pin the as-built printed form of cyclotomic values,
down to the unreduced minors in non-finiteness witnesses.  The
``A~2+pendant`` and ``mixed(4,5,6)`` cases were recorded before the leading
minors came from one elimination pass instead of one determinant each.  The
``chartable``, ``irreps`` and ``verify`` cases of D4 and the ``chartable``
cases of B4 and A5 were recorded before the self-paired D_n characters were
split by little-group induction instead of a commutant eigenspace.  The
``chartable A6`` cases (S_7) were recorded when the S_n characters moved to
Young's seminormal form and their guard rose from n = 6 to 7, after every
value had matched the Murnaghan-Nakayama oracle in ``test_oracles.py``;
before that, these commands exited 3.

A key is ``"<command> <target> <format>"``.  The format is ``tsv``, ``json``
or ``float`` (tsv with ``--float``).  For ``classify`` the target names a
graph in ``GRAPHS``.  Every command runs in-process; caches shared between
the cases keep this cheap.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from coxeterkit.cli import main

GOLDENS = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

# The first four are non-finite graphs whose witness is an irrational minor
# (conductors 70, 10, 60, 60).
GRAPHS = {
    "path(5,7)": {"n": 3, "edges": [[0, 1, 5], [1, 2, 7]]},
    "path(5,5)": {"n": 3, "edges": [[0, 1, 5], [1, 2, 5]]},
    "path(4,5,6)": {"n": 4, "edges": [[0, 1, 4], [1, 2, 5], [2, 3, 6]]},
    "triangle(6,6,5)": {"n": 3, "edges": [[0, 1, 6], [1, 2, 6], [0, 2, 5]]},
    # The A~2 triangle leads, so minor 3 = 0 while det != 0 (a zero pivot).
    "A~2+pendant": {"n": 4, "edges": [[0, 1, 3], [1, 2, 3], [0, 2, 3], [2, 3, 3]]},
    # B3 + A1, then I2(5), lead; the witness is the full determinant (conductor 120).
    "mixed(4,5,6)": {
        "n": 6,
        "edges": [[0, 1, 4], [1, 2, 3], [3, 4, 5], [2, 5, 6], [4, 5, 3]],
    },
}


def run_case(key: str, tmp_dir: Path) -> tuple[int, str]:
    """Exit code and stdout digest of the CLI run that ``key`` names."""
    command, target, fmt = key.split(" ")
    argv = ["--format", "tsv" if fmt == "float" else fmt]
    if fmt == "float":
        argv.append("--float")
    if command == "classify":
        path = tmp_dir / "graph.json"
        path.write_text(json.dumps(GRAPHS[target]))
        target = str(path)
    out = io.StringIO()
    code = main(argv + [command, target], out=out)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_cli_output_matches_golden(key, tmp_path):
    assert run_case(key, tmp_path) == (GOLDENS[key]["exit"], GOLDENS[key]["sha256"])
