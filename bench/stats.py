"""Order statistics the benchmark reports: medians, quartiles and tails.

Quartiles use :func:`statistics.quantiles` with ``n=4`` (its default
exclusive method), the same call that judges run-to-run spread, so a
spread printed by ``compare.py`` is the spread a reviewer recomputes.
Percentiles interpolate linearly between closest ranks.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a latency tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: A tail percentile is only trusted with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if median is 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def tail_percentile(count: int,
                    beyond: int = SAMPLES_BEYOND) -> Optional[float]:
    """Highest of :data:`TAIL_PERCENTILES` with ``beyond`` samples above it.

    With ``count`` samples, about ``count * (100 - p) / 100`` of them lie
    beyond the p-th percentile; ``None`` when even the median has fewer.
    """
    for p in TAIL_PERCENTILES:
        if math.floor(count * (100.0 - p) / 100.0 + 1e-9) >= beyond:
            return p
    return None
