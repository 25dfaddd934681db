"""Machine-speed calibration shared by the workload process and its children.

The reference machine, a 2-vCPU VM with Python 3.11.7, has a host load that
changes from minute to minute: the same depth-3 chain operation took 36 ms
in one process and 64 ms in the next, and its CPU time moved with its wall
time, so the vCPU itself ran slower.  A fixed pure-Python calibration loop
slows down by the same factor (the ratio of an operation's time to the
calibration time stayed within about 2% while the raw time moved 60%).  So
every time the benchmark reports is a wall time rescaled to the speed the
machine had when the reference values below were taken:

    reported = measured * REFERENCE_S[kind] / calibration time measured alongside

The loops use only the standard library, so a change to the program moves
the operation time and not the calibration.  A change to the whole
interpreter moves both and cancels out, except for the garbage collector:
the loop runs with the collector's default settings, whatever the program
set.  `chain` calibrates with exact arithmetic alone, the work its
operations do, because host load slows exact arithmetic, list scans and
interpreter-heavy argument parsing by different factors: the mixed loop the
other workloads use left `chain` reading 8% slower in its slowest runs, and
arithmetic alone left `classify` and `batch` reading 5-8% slower in theirs.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from fractions import Fraction


def _fractions(n: int) -> None:
    total = Fraction(0)
    for i in range(1, n):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
    if total <= 0:
        raise RuntimeError("calibration loop computed a wrong value")


def _lists(n: int) -> None:
    table = [False] * n
    table[0] = True
    for step in (7, 11, 13):
        for v in range(step, n):
            if table[v - step]:
                table[v] = True
    matrix = [[(i * j) % 7 - 3 for j in range(16)] for i in range(16)]
    for i in range(15):
        for r in range(i + 1, 16):
            for c in range(i + 1, 16):
                matrix[r][c] = (matrix[r][c] * 3 - matrix[r][i] * matrix[i][c]) % 1009
    if not table[7 + 11]:
        raise RuntimeError("calibration loop computed a wrong value")


def _argparse() -> None:
    parser = argparse.ArgumentParser(prog="calibration", add_help=False)
    sub = parser.add_subparsers(dest="command")
    for name in ("one", "two", "three", "four"):
        p = sub.add_parser(name)
        p.add_argument("--pairs", required=True)
        p.add_argument("--kind", choices=["a", "b"])
    args = parser.parse_args(["two", "--pairs=2/5,-6/1", "--kind", "a"])
    if args.command != "two":
        raise RuntimeError("calibration parse went wrong")


def _mixed() -> None:
    _argparse()
    _fractions(100)
    _lists(4000)


KINDS = {"fractions": lambda: _fractions(300), "mixed": _mixed}

# Median calibration seconds of each kind on the reference machine (2-vCPU
# VM, Python 3.11.7) at its faster observed speed.
REFERENCE_S = {"fractions": 0.00170, "mixed": 0.00200}

# The calibration each workload (and the set-up probes) is rescaled by.
KIND_OF = {"chain": "fractions", "classify": "mixed", "batch": "mixed", "setup": "mixed"}


def reference_s(workload: str) -> float:
    return REFERENCE_S[KIND_OF[workload]]


def calibration(workload: str) -> float:
    """Time one fixed unit of the workload's kind of work, with the garbage
    collector at its default settings; seconds."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)
    try:
        start = time.perf_counter()
        KINDS[KIND_OF[workload]]()
        return time.perf_counter() - start
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()


def slowdown(workload: str, samples: int = 5) -> float:
    """How much slower than the reference the machine runs right now."""
    return statistics.median(calibration(workload) for _ in range(samples)) / reference_s(workload)
