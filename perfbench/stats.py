"""Summary statistics for latency samples."""
from __future__ import annotations

import statistics

# Candidate tail percentiles, highest last; the reported tail is the highest
# one that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile pct among n samples, computed in
    thousandths of a percent so 99.9 % of 10000 is exactly rank 9990."""
    milli = round(pct * 1000)
    return max(1, -(-milli * n // 100_000))


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it, or None when n is too small for any."""
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values: list[float]) -> dict:
    """Tail latency with the percentile it stands for and the sample count.

    With too few samples for any ladder percentile the maximum is reported
    and `percentile` is 100, so the record says the tail is a single sample.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        return {"value": max(values), "percentile": 100.0, "samples": len(values)}
    return {"value": nearest_rank(values, pct), "percentile": pct,
            "samples": len(values)}


def median(values: list[float]) -> float:
    return statistics.median(values)
