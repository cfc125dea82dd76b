#!/usr/bin/env python3
"""Run every CLI command once, each as a fresh ``python -m coxeterkit`` process.

Usage: python scripts/cli_smoke.py

The commands import their modules inside their own functions, so an
in-process test that has already loaded the whole package cannot catch a
broken function-local import; a fresh process per command does.  Exits 1
at the first command that does not exit 0.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = [
    ["realize", "A3"],
    ["irreps", "A3"],
    ["irreps", "B3"],
    ["irreps", "D4"],
    ["irreps", "I2(5)"],
    ["chartable", "A3"],
    ["chartable", "A6"],
    ["--format", "json", "chartable", "B2"],
    ["--float", "chartable", "I2(5)"],
    ["--max-order", "1000", "irreps", "D4"],
    ["verify", "A3"],
    ["verify", "A4"],
]


def run() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "b3.json"
        graph.write_text('{"n": 3, "edges": [[0, 1, 4], [1, 2, 3]]}')
        for argv in [["classify", str(graph)], *COMMANDS]:
            proc = subprocess.run([sys.executable, "-m", "coxeterkit", *argv],
                                  capture_output=True, text=True, env=env)
            lines = proc.stdout.count("\n")
            print(f"exit {proc.returncode}  {lines:4d} lines  coxeterkit {' '.join(argv)}")
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout + proc.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
