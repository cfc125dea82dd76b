#!/usr/bin/env python3
"""Run every CLI command once, each as a fresh ``python -m coxeterkit`` process.

Usage: python scripts/cli_smoke.py

The commands import their modules inside their own functions, so an
in-process test that has already loaded the whole package cannot catch a
broken function-local import; a fresh process per command does.  The
``classify`` runs have a time limit, so that a slow classify fails here:
on the two non-finite graphs of large conductor, and at the vertex guard
on the 48-vertex path, the 48-vertex D-type fork, the 48-vertex tree of
5-bonds, a 48-vertex tree with two branch vertices (affine D~47) and the
complete graph K48 with every bond 3, which take the path and arm walks,
the forest pivots and the minimal-subgraph sweep (K48 is its densest case:
every candidate filters the adjacency of 47 neighbours).  So does a slow
``chartable`` of A15, B8 or D8, the largest table of each family under its
guard (``chartable A16`` must exit 3), a slow ``realize B6``, or a slow
``verify`` of A7, B6, D6 or I2(24), the largest types each verify path
takes (A7 builds S_7, with 5040 elements, the largest subgroup that any
``verify`` builds).
So does a slow ``irreps`` or ``chartable`` of I2(24), or ``realize
I2(5000)``, whose 10000 elements the closed-form class data never
enumerates, or a slow guard exit of ``realize A2000``, ``verify A3000000``
or ``verify I2(60000)``, whose orders are past the bound (the last passes
``positive-definite`` by the closed form of rank 2, with no cyclotomic
polynomial of conductor 120000).  ``classify.BOND_BOUND`` is the one bound
on m for I2(m): ``verify I2(79)``, the slowest ``verify`` under it, must
pass in time, and ``verify`` of the first bond past it must print the one
guard message as the FAIL line of both root checks (``root-system-axioms``,
``fixed-space``) and of every character check (``character-completeness``,
``character-orthonormality``, ``frobenius-reciprocity``,
``induction-closed-form``), while ``irreps`` there exits 3.  No rank bound
drops the root checks: ``verify A9`` fails them on the order bound.
Every enumerating check takes the order bound from one ``realize``, so
``verify B9`` fails ``class-parametrization`` on it too, not on a B/D guard.
``verify`` loads each family's modules inside its checks, so ``verify``
runs once per family: A3, A4, A7, B6, D4, D6, I2(11), I2(24) and I2(79).
``chartable`` with no type is a usage error, exit 1, and so is a bond
label ``false``, which JSON equality takes for 0, the unbounded bond, and
an ``"edges": null``, which is not a list, a bond label of 5000 digits,
past the digit limit of ``int()``, and 100000 open brackets, past the
decoder's recursion limit; each of these prints ``error: ``.  Any run
whose stderr holds a ``Traceback`` fails.
``argparse`` loads only for a command line that the plain reader of
``cli.main`` leaves to it, so ``--help`` (exit 0, the usage on stdout), an
abbreviated ``--form json``, a ``--max-order=24`` and a bad ``--max-order x``
(exit 1) each run too.  The
children run with ``PYTHONDONTWRITEBYTECODE=1``, so every one compiles
what it loads, as a fresh benchmark job does, and no ``__pycache__`` is
left behind.  Exits 1 at the first command that exits with another code
than expected or runs out of time.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))
from coxeterkit.classify import BOND_BOUND  # noqa: E402
CLASSIFY_TIMEOUT_S = 5
TABLE_TIMEOUT_S = 10
# file name -> (graph, expected exit code of classify)
GRAPHS = {
    "b3.json": ({"n": 3, "edges": [[0, 1, 4], [1, 2, 3]]}, 0),
    "path-7-11-13-17.json": (
        {"n": 5, "edges": [[0, 1, 7], [1, 2, 11], [2, 3, 13], [3, 4, 17]]}, 2),
    "k18-4.json": (
        {"n": 18, "edges": [[i, j, 4] for i in range(18) for j in range(i + 1, 18)]}, 2),
    "path-48.json": ({"n": 48, "edges": [[i, i + 1, 3] for i in range(47)]}, 0),
    "tree-48-5.json": ({"n": 48, "edges": [[(k - 1) // 2, k, 5] for k in range(1, 48)]}, 2),
    "fork-d48.json": ({"n": 48, "edges": [[0, 2, 3]] + [[i, i + 1, 3] for i in range(1, 47)]}, 0),
    "tree-48-two-branches.json": (
        {"n": 48, "edges": [[i, i + 1, 3] for i in range(45)] + [[1, 46, 3], [44, 47, 3]]}, 2),
    "k48-3.json": ({"n": 48, "edges": [[i, j, 3] for i in range(48) for j in range(i + 1, 48)]}, 2),
    "false-label.json": ({"n": 2, "edges": [[0, 1, False]]}, 1),
    "null-edges.json": ({"n": 2, "edges": None}, 1),
    # raw texts past the decoder's limits, which json.dumps cannot write
    "label-5000-digits.json": ('{"n": 2, "edges": [[0, 1, ' + "9" * 5000 + "]]}", 1),
    "open-brackets-100000.json": ("[" * 100_000, 1),
}
COMMANDS = [
    ["realize", "A3"],
    ["irreps", "A3"],
    ["irreps", "B3"],
    ["irreps", "D4"],
    ["irreps", "I2(5)"],
    ["chartable", "A3"],
    ["chartable", "A6"],
    ["--format", "json", "chartable", "B2"],
    ["chartable", "D4"],
    ["--float", "chartable", "I2(5)"],
    ["--max-order", "1000", "irreps", "D4"],
    ["verify", "A3"],
    ["verify", "A4"],
    ["verify", "D4"],
    ["verify", "I2(11)"],
]
# command lines that only argparse reads: an abbreviated option, ``--opt=value``
ARGPARSE_COMMANDS = [["--form", "json", "irreps", "A3"], ["--max-order=24", "realize", "A3"]]
PAST_BOND = BOND_BOUND + 1
# stdout lines a run must print, beside its exit code
BOND_GUARD_LINES = tuple(
    f"FAIL\t{check}\terror: bond {PAST_BOND} exceeds the bound {BOND_BOUND}"
    for check in ("root-system-axioms", "fixed-space", "character-completeness",
                  "character-orthonormality", "frobenius-reciprocity", "induction-closed-form")
)
ROOT_ORDER_LINES = tuple(
    f"FAIL\t{check}\terror: |A9| = 3628800 exceeds the bound 100000"
    for check in ("root-system-axioms", "fixed-space")
)
B9_ORDER_LINES = tuple(
    f"FAIL\t{check}\terror: |B9| = 185794560 exceeds the bound 100000"
    for check in ("group-order", "class-parametrization")
)


def run() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        classify_runs = []
        for name, (graph, code) in GRAPHS.items():
            path = Path(tmp) / name
            path.write_text(graph if isinstance(graph, str) else json.dumps(graph))
            prefix = "error: " if code == 1 else ""
            classify_runs.append((["classify", str(path)], code, CLASSIFY_TIMEOUT_S, (), prefix))
        runs = [(argv, 0, None) for argv in COMMANDS]
        for argv in (["chartable", "A15"], ["chartable", "B8"], ["chartable", "D8"], ["realize", "B6"],
                     ["verify", "A7"], ["verify", "B6"], ["verify", "D6"], ["verify", "I2(24)"],
                     ["verify", "I2(79)"], ["irreps", "I2(24)"], ["--format", "json", "chartable", "I2(24)"],
                     ["realize", "I2(5000)"]):
            runs.append((argv, 0, TABLE_TIMEOUT_S))
        runs += [(["chartable", "A16"], 3, TABLE_TIMEOUT_S), (["realize", "A2000"], 3, TABLE_TIMEOUT_S),
                 (["verify", "A3000000"], 2, TABLE_TIMEOUT_S), (["verify", "I2(60000)"], 2, TABLE_TIMEOUT_S),
                 (["irreps", f"I2({PAST_BOND})"], 3, TABLE_TIMEOUT_S),
                 (["chartable"], 1, TABLE_TIMEOUT_S)]
        runs += [(argv, 0, None) for argv in ARGPARSE_COMMANDS] + [(["--max-order", "x", "irreps", "A3"], 1, None)]
        runs = classify_runs + [(argv, want, timeout, (), "") for argv, want, timeout in runs]
        runs.append((["verify", f"I2({PAST_BOND})"], 2, TABLE_TIMEOUT_S, BOND_GUARD_LINES, ""))
        runs.append((["verify", "A9"], 2, TABLE_TIMEOUT_S, ROOT_ORDER_LINES, ""))
        runs.append((["verify", "B9"], 2, TABLE_TIMEOUT_S, B9_ORDER_LINES, ""))
        runs.append((["--help"], 0, None, (), "usage: "))
        for argv, want, timeout, lines_wanted, prefix in runs:
            try:
                proc = subprocess.run([sys.executable, "-m", "coxeterkit", *argv],
                                      capture_output=True, text=True, env=env, timeout=timeout)
            except subprocess.TimeoutExpired:
                print(f"timeout after {timeout} s  coxeterkit {' '.join(argv)}")
                return 1
            lines = proc.stdout.count("\n")
            print(f"exit {proc.returncode}  {lines:4d} lines  coxeterkit {' '.join(argv)}")
            missing = [line for line in lines_wanted if line not in proc.stdout.splitlines()]
            if proc.returncode != want or missing or not proc.stdout.startswith(prefix) or "Traceback" in proc.stderr:
                sys.stdout.write(proc.stdout + proc.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
