#!/usr/bin/env python3
"""Scan tensor squares of symmetric-group irreducibles at desk scale.

For each n <= 6, decompose chi ox chi for every irreducible chi of S_n and
report which ones contain every irreducible as a constituent.  For
triangular n (3 and 6) the staircase shape is expected to be among them.

Usage: python scripts/tensor_square_scan.py [max_n]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coxeterkit.families import symmetric_character_table  # noqa: E402
from coxeterkit.reps import tensor_decompose  # noqa: E402
from coxeterkit.tableaux import partition_text, partitions_of  # noqa: E402


def run(max_n: int) -> None:
    for n in range(2, max_n + 1):
        table = list(symmetric_character_table(n))
        shapes = list(partitions_of(n))
        covering = []
        print(f"S_{n}: {len(table)} irreducibles")
        for shape, chi in zip(shapes, table):
            mults = tensor_decompose(chi, chi, table)
            missing = [partition_text(s) for s, m in zip(shapes, mults) if m == 0]
            tag = "covers all" if not missing else f"misses {', '.join(missing)}"
            print(f"  {partition_text(shape):>14}^2: {tag}")
            if not missing:
                covering.append(shape)
        names = ", ".join(partition_text(s) for s in covering) or "none"
        print(f"  covering shapes: {names}\n")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
