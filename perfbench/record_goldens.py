"""Record the golden outputs of every table job the benchmark can draw.

    python3 perfbench/record_goldens.py

Run from the root of a checkout.  For each (command, type, format) in
``workloads.table_sample_space()`` it runs ``python -m coxeterkit`` once and
stores the exit code and the SHA-256 of stdout in ``perfbench/goldens.json``.
CLI output is byte-deterministic for a fixed command and input, so a table
job passes the correctness gate only when both match.  Record again only on
purpose, when a change to the output is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    goldens = {}
    for cmd, type_text, fmt in workloads.table_sample_space():
        p = subprocess.run([sys.executable, "-m", "coxeterkit", "--format", fmt, cmd, type_text],
                           cwd=root, env=env, capture_output=True, timeout=300)
        key = workloads.job_key(cmd, type_text, fmt)
        goldens[key] = {"exit": p.returncode, "sha256": hashlib.sha256(p.stdout).hexdigest()}
        print(key, p.returncode, flush=True)
    path = Path(__file__).resolve().parent / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
