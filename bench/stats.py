"""Order statistics for benchmark timings.

A tail percentile is only reported where at least ``MIN_BEYOND`` samples
lie above it; with fewer samples the figure would be one or two outliers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

MIN_BEYOND = 10
TAIL_CAP = 95


@dataclass(frozen=True)
class Summary:
    """Median and tail of a sample, with the tail's percentile and the count."""

    count: int
    median: float
    tail_pct: int  # 100 when the sample is too small for a tail: tail is then the max
    tail: float


def nearest_rank(ordered: list[float], pct: int) -> float:
    """The pct-th percentile by nearest rank: the smallest value with pct% at or below it."""
    if not ordered:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return ordered[-(-pct * len(ordered) // 100) - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile <= TAIL_CAP that leaves MIN_BEYOND samples above it.

    Returns 100 (the maximum) when no percentile of at least 50 qualifies.
    """
    if count <= MIN_BEYOND:
        return 100
    pct = min(TAIL_CAP, 100 * (count - MIN_BEYOND) // count)
    return pct if pct >= 50 else 100


def summarize(samples: list[float]) -> Summary:
    """Median plus the highest percentile (at most TAIL_CAP) with 10 samples beyond it."""
    if not samples:
        return Summary(0, 0.0, 0, 0.0)
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    return Summary(len(ordered), statistics.median(ordered), pct, nearest_rank(ordered, pct))
