"""Order statistics and span arithmetic used by the benchmark.

Pure Python, so the tests of these rules need neither numpy nor the package.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10  # a reported tail has at least this many samples beyond it


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail(samples: list[float], beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """The highest percentile that still has `beyond` samples above it.

    Ranks are used, not values: with n sorted samples the tail is the
    (n - beyond)-th smallest, at percentile 100 * (n - beyond) / n, and the
    `beyond` samples ranked above it are the ones beyond it. Returns
    (value, percentile); fewer than beyond + 1 samples have no tail.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    k = n - beyond
    return sorted(samples)[k - 1], 100.0 * k / n


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals after clipping each to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each span given as (start, end, parent index or -1): its
    duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = children.get(i)
        covered = union_length(kids, start, end) if kids else 0.0
        out.append((end - start) - covered)
    return out
