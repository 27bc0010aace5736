"""Percentiles for the runner's report."""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  The reported tail is the
# highest one that still has at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of `count`
    samples beyond it, or None when even the lowest has too few."""
    best = None
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(len(ordered) * p / 100.0, 6)))
    return ordered[rank - 1]


def percentile_label(p: float) -> str:
    """99.0 -> "p99", 99.9 -> "p99.9"."""
    return f"p{p:g}"
