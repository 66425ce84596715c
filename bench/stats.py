"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def tail_percentile(n_samples: int, min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """Highest percentile that leaves at least `min_beyond` samples above it.

    With N samples, P = 100 * (1 - min_beyond / N); fewer than 2 * min_beyond
    samples fall back to the median (P = 50), the lowest tail worth the name.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return max(50.0, 100.0 * (1.0 - min_beyond / n_samples))


def nearest_rank(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with `percentile` % at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, sample count) under the `tail_percentile` rule."""
    p = tail_percentile(len(values))
    return nearest_rank(values, p), p, len(values)


def median(values) -> float:
    return statistics.median(values)


def pooled_mean_and_error(groups) -> tuple[float, float, int]:
    """Pool (mean, std_error, samples) summaries of independent sample sets.

    Returns the pooled mean, its standard error and the total sample count,
    reconstructing the pooled sample variance exactly from the per-group
    means and variances.
    """
    total = sum(n for _, _, n in groups)
    if total < 2:
        raise ValueError("need at least 2 pooled samples")
    mean = sum(m * n for m, _, n in groups) / total
    ss = 0.0
    for m, se, n in groups:
        var_i = se * se * n  # sample variance of the group (ddof=1)
        ss += (n - 1) * var_i + n * (m - mean) ** 2
    var = ss / (total - 1)
    return mean, math.sqrt(var / total), total


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
