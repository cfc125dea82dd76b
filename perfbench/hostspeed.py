"""Host-speed calibration for the benchmark's timings.

The benchmark host is shared with other tenants.  A fixed Python loop on it
runs up to 60% slower for minutes at a time, and CPU time slows with wall
time, so raw timings of the same code spread by more than any useful
regression bound.  The benchmark therefore times this fixed reference
kernel right before every job and reports every time scaled by
``REFERENCE_S`` over the kernel's time, both estimated the same way: in
seconds at the host's reference speed.  A change to coxeterkit moves the
job times and not the kernel.  The kernel is pure Python, Fraction
arithmetic and dict work like the code under test, and shares no code with
coxeterkit.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Kernel times on the unloaded benchmark host (2 vCPUs of an Intel Xeon at
# 2.0 GHz, CPython 3.11); they only fix the unit of the scaled timings.
REFERENCE_S = 0.0015
REFERENCE_SPAWN_S = 0.07

# The kernel for the set-up, which is all interpreter start-up and imports:
# a fresh interpreter importing the stdlib modules coxeterkit's CLI needs.
# Start-up slows under other load than the compute kernel does: scaled by
# the compute kernel, set-up time spread more than raw; scaled by this one,
# its spread fell from 27% to 4% (interquartile range over median, 8 runs).
SPAWN_ARGV = [sys.executable, "-c", "import argparse, fractions, json"]


def kernel_s() -> float:
    """Wall time of the reference kernel, the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        seen: dict = {}
        for i in range(1, 300):
            q = Fraction(i, i % 11 + 1) + Fraction(1, i % 7 + 2)
            seen[(i % 50, q.denominator)] = q.numerator
        best = min(best, time.perf_counter() - start)
    return best


def scale(kernel_samples: list[list[float]]) -> float:
    """Factor from measured to reference seconds.

    ``kernel_samples[p][i]`` was taken before job i of pass p.  The kernel is
    estimated like the jobs: its fastest pass at each position, averaged.
    """
    fastest = [min(column) for column in zip(*kernel_samples)]
    return REFERENCE_S * len(fastest) / sum(fastest)
