"""Sample statistics for the harness: percentiles, tails, spreads.

A failed operation carries the latency ``math.inf``: it sorts after
every real sample, so it counts as exceeding any percentile and can
never improve a median.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """Nearest rank of the ``q``-th percentile among ``count`` samples,
    in integer arithmetic (``q`` has at most one decimal)."""
    return max(1, -(-count * round(q * 10) // 1000))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (nearest rank, so it is always a sample)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def tail_percentile(count: int) -> "float | None":
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it."""
    best = None
    for q in LADDER:
        if count - _rank(count, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(samples) -> dict:
    """``{n, median, tail_q, tail}`` - how every timing is reported."""
    q = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "tail_q": q,
        "tail": None if q is None else percentile(samples, q),
    }


def finite(value: float, ceiling: float) -> float:
    """Clamp ``inf`` (a failed op) so a result stays JSON-encodable."""
    return value if math.isfinite(value) else ceiling
