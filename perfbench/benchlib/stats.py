"""Percentiles as the benchmark reports them.

Every timing is a median plus the highest percentile that still has
at least ten samples beyond it, with the sample count.  Failed or
refused operations are passed in as ``math.inf``: they rank worst, so
a percentile that lands on one reads ``inf`` instead of hiding it.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(
    n: int, target: float = 90.0, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The highest percentile <= ``target`` with ``min_beyond`` of ``n``
    samples ranked above it, or ``None`` if no percentile has."""
    if n <= min_beyond:
        return None
    if n - math.ceil(target / 100.0 * n) >= min_beyond:
        return float(target)
    return math.floor(100.0 * (n - min_beyond) / n)


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (a member of the sample, inf if failures
    are the majority)."""
    return nearest_rank(values, 50.0)


def p50_ms(values_s: Sequence[float]) -> float:
    """Median of a sample of seconds, in ms (0.0 for an empty sample,
    which per-layer reports use for a layer the workload never calls)."""
    return median(values_s) * 1e3 if values_s else 0.0


def p90_ms(values_s: Sequence[float]) -> float:
    return nearest_rank(values_s, 90.0) * 1e3 if values_s else 0.0
