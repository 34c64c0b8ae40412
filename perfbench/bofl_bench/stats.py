"""Order statistics shared by the workloads, the tracer and ``compare``.

All percentiles are nearest-rank (no interpolation), computed in integer
arithmetic so that, e.g., p99.9 of 1,000 samples is rank 999 and never
rank 1,000 through a rounding slip.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from typing import Optional

#: Percentiles tried for the tail, highest first, in thousandths of a percent.
TAIL_LADDER_MILLI: tuple[int, ...] = (99_999, 99_990, 99_900, 99_000, 90_000, 50_000)

#: A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], milli_pct: int) -> float:
    """The nearest-rank percentile of pre-sorted ``ordered``.

    ``milli_pct`` is the percentile in thousandths of a percent
    (50_000 is the median).
    """
    if not ordered:
        raise ValueError("nearest_rank needs at least one sample")
    rank = max(1, -(-milli_pct * len(ordered) // 100_000))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (0.0 for no samples)."""
    return nearest_rank(sorted(values), 50_000) if values else 0.0


def tail(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """The highest ladder percentile with at least 10 samples beyond it.

    Returns ``(percentile, value)``, e.g. ``(99.9, 12.5)``, or ``None``
    when even the median leaves fewer than 10 samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for milli in TAIL_LADDER_MILLI:
        rank = max(1, -(-milli * n // 100_000))
        if n - rank >= TAIL_MIN_BEYOND:
            return milli / 1000, float(ordered[rank - 1])
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
