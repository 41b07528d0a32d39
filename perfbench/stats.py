"""Percentiles with a sample-count rule.

A reported percentile must have at least ``MIN_BEYOND`` samples above
it, otherwise it says more about one outlier than about the tail.
Percentiles use the nearest-rank definition, so "samples beyond" is an
exact count.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def beyond(n: int, q: float) -> int:
    """Samples strictly after the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile keeps
    ``MIN_BEYOND`` samples beyond it."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def nearest_rank(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    vals = sorted(values)
    return vals[max(1, math.ceil(q / 100.0 * len(vals))) - 1]


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises if fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    n = len(values)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return nearest_rank(values, q)


def highest_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> float | None:
    """The highest candidate percentile that ``n`` samples support."""
    for q in candidates:
        if n and beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    return float(statistics.median(values))


def summary(values, unit_scale: float = 1.0) -> dict:
    """Median and the highest supported tail percentile of ``values``,
    with the sample count, scaled by ``unit_scale``."""
    out = {"n": len(values)}
    if values:
        out["p50"] = median(values) * unit_scale
        q = highest_percentile(len(values))
        if q is not None and q > 50:
            out[f"p{q:g}"] = percentile(values, q) * unit_scale
    return out
