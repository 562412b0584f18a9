"""The benchmark's own arithmetic: percentiles, lateness, spread."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it (0 for no samples)."""
    if not values:
        return 0.0
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def lateness_ms(due: list[float], sent: list[float]) -> float:
    """Mean open-loop lateness in ms: how long after its due time each
    request was actually sent (early sends count as on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent times must pair up")
    if not due:
        return 0.0
    return 1000.0 * sum(max(0.0, s - d) for d, s in zip(due, sent)) / len(due)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
