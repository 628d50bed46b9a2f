"""Arithmetic shared by the benchmark: host-speed normalization, tail
percentiles, span self time, and the quartile spread used to judge
run-to-run stability."""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import checks

TAIL_MIN_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)

# A fixed pure-Python task (a product of two 16-term polynomials with
# Fraction coefficients, using the benchmark's own arithmetic).  A shared
# host's speed drifts by tens of percent over seconds; timing
# this task next to each operation measures the drift, and operation
# times are scaled to a host on which the task takes NOMINAL_REFERENCE_S.
REFERENCE_A = {(i, j, i * j % 3): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
REFERENCE_B = {(j, i, 1): Fraction(2 * i - 3, i + j + 1) for i in range(4) for j in range(4)}
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.05
NOMINAL_REFERENCE_S = 0.001


def reference_seconds():
    """Fastest of REFERENCE_REPEATS timings of the reference task."""
    best = None
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        checks.pmul(REFERENCE_A, REFERENCE_B)
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def normalized(seconds, reference_before, reference_after):
    """`seconds` scaled to the nominal host speed, using the mean of the
    reference timings taken just before and just after the measurement
    (the host may change speed during a long measurement)."""
    return seconds * NOMINAL_REFERENCE_S * 2 / (reference_before + reference_after)


def tail(samples):
    """The highest percentile of TAIL_LADDER that still has at least ten
    samples beyond it.

    Returns (value, percentile, sample_count).  The value is the k-th
    smallest sample with k = ceil(p * N / 100) (nearest rank), and p is the
    highest rung with N - k >= 10.  Taking the rung from a fixed ladder
    keeps the percentile, and so the value, from shifting with small
    changes in N between runs.  With fewer than 20 samples even the median
    has fewer than ten beyond it; the maximum is returned as percentile
    100 so the record still says how little it rests on.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    best = (ordered[-1], 100.0)
    for pct in TAIL_LADDER:
        k = math.ceil(Fraction(str(pct)) * n / 100)
        if n - k < TAIL_MIN_BEYOND:
            break
        best = (ordered[k - 1], pct)
    return best[0], best[1], n


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the part of it that its
    child spans cover.

    Spans are given as parallel sequences; parents[i] is the index of span
    i's parent, or -1 for a root span.
    """
    children = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    return [
        (end - start) - covered(start, end, children.get(i, ()))
        for i, (start, end) in enumerate(zip(starts, ends))
    ]


def spread(values):
    """Inter-quartile distance of `values` as a share of their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
