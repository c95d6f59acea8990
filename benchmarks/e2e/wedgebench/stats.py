"""Order statistics used by the runner and the repeat tool."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""

    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the bounds are set against."""

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
