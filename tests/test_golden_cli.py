"""Byte-level pins of CLI output: exit code and SHA-256 of stdout.

The digests in ``golden_cli.json`` were recorded before the index-based
group kernel replaced element-object products, so any change in class
order, representatives, sizes or character values shows up here.  The
``float`` cases and the I2(11), I2(12) and I2(24) cases were recorded
before the integer cyclotomic kernel replaced the Fraction-dict one; they
pin the as-built printed form of cyclotomic values.  The
``chartable``, ``irreps`` and ``verify`` cases of D4 and the ``chartable``
cases of B4 and A5 were recorded before the self-paired D_n characters were
split by little-group induction instead of a commutant eigenspace.  The
``chartable A6`` cases (S_7) were recorded when the S_n characters moved to
Young's seminormal form and their guard rose from n = 6 to 7, after every
value had matched the Murnaghan-Nakayama oracle in ``test_oracles.py``;
before that, these commands exited 3.  The ``chartable`` cases of B5, D5,
B6 and D6 (tsv) were recorded when the B_n and D_n characters moved to a
closed form on signed cycle types and their guard rose from n = 4 to 6:
each digest equals that of the little-group induction with its guard
lifted, and every value matches the bipartition Murnaghan-Nakayama oracle
in ``test_oracles.py``; before that, these commands exited 3.  The
``chartable`` cases of A7, A8, B7, B8, D7 and D8 (tsv and json) were
recorded when the A/B/D tables moved to closed-form class data, with no
group built, and the guards rose to S_9 and B_8/D_8: every value matches
the Murnaghan-Nakayama and bipartition rim-hook oracles of
``test_oracles.py``, and for n <= 8 (S_n), 6 (B_n, D_n) the class data
equals the orbit classes (``test_groups.py``); before that, these commands
exited 3.  The ``chartable`` cases of A9 to A15 (tsv and json) were recorded
when the S_n characters moved to the Murnaghan-Nakayama rule and their guard
rose from n = 9 to 16, after every value had matched the test-side rim-hook
rule and both orthogonality relations of ``test_oracles.py`` (and, for
A9, the seminormal traces); before that, these commands exited 3.  The
non-finite ``classify`` cases (all six graphs in ``GRAPHS``) were
re-recorded when the witness became a minimal non-finite subgraph named by
its vertices, instead of a leading Gram minor.

The benchmark's own goldens, ``perfbench/goldens.json``, are pinned here
too, read as they stand: every table job the benchmark can draw, so a
change that would fail its correctness gate fails a test first.

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
BENCH_GOLDENS = json.loads((Path(__file__).parents[1] / "perfbench" / "goldens.json").read_text())

# Every graph is non-finite.  The first four are hyperbolic: the whole graph
# but for path(4,5,6), whose certificate is the path (5,6) on vertices 1,2,3.
GRAPHS = {
    "path(5,7)": {"n": 3, "edges": [[0, 1, 5], [1, 2, 7]]},
    "path(5,5)": {"n": 3, "edges": [[0, 1, 5], [1, 2, 5]]},
    "path(4,5,6)": {"n": 4, "edges": [[0, 1, 4], [1, 2, 5], [2, 3, 6]]},
    "triangle(6,6,5)": {"n": 3, "edges": [[0, 1, 6], [1, 2, 6], [0, 2, 5]]},
    # The affine A~2 triangle on vertices 0,1,2 is the certificate.
    "A~2+pendant": {"n": 4, "edges": [[0, 1, 3], [1, 2, 3], [0, 2, 3], [2, 3, 3]]},
    # The affine G~2 path (6,3) on vertices 2,4,5 is the certificate.
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


@pytest.mark.parametrize("key", sorted(BENCH_GOLDENS))
def test_cli_output_matches_benchmark_golden(key, tmp_path):
    assert run_case(key, tmp_path) == (BENCH_GOLDENS[key]["exit"], BENCH_GOLDENS[key]["sha256"])
