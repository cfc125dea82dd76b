#!/usr/bin/env python3
"""Dump exact character tables for every supported type at desk scale.

Usage: python scripts/print_character_tables.py [--float]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coxeterkit.cli import main  # noqa: E402

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(12)"]


def run() -> int:
    extra = [a for a in sys.argv[1:] if a == "--float"]
    for name in TYPES:
        print(f"== {name} ==")
        code = main([*extra, "chartable", name])
        if code != 0:
            return code
        print()
    return 0


if __name__ == "__main__":
    import signal

    if hasattr(signal, "SIGPIPE"):  # a closed pipe ends the dump quietly, as ``cli.run`` ends
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())
