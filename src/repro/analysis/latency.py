"""Latency analysis helpers (Figures 16-18 and 21-23)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.ssd.stats import nearest_rank

def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``samples`` (nearest-rank)."""
    if not samples:
        return 0.0
    return sorted(samples)[nearest_rank(len(samples), pct)]

def mean_and_p99(values: Sequence[float]) -> Tuple[float, float]:
    """(mean, 99th percentile) of a per-group distribution (Figures 10, 12)."""
    if not values:
        return 0.0, 0.0
    return sum(values) / len(values), percentile(values, 99)

def latency_cdf(
    samples: Sequence[float],
    points: Sequence[float] = (0.0, 30.0, 60.0, 90.0, 99.0, 99.9),
) -> Dict[float, float]:
    """Latency values at the given CDF points (Figure 18's x-axis)."""
    return {p: percentile(samples, p) for p in points}

def normalize(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalize a metric to one scheme (lower is better in the paper's plots).

    ``values`` maps scheme name to the raw metric (e.g. mean latency); the
    result divides every value by the baseline's, so the baseline becomes 1.0.
    """
    if baseline_key not in values:
        raise KeyError(f"baseline {baseline_key!r} missing from {sorted(values)}")
    baseline = values[baseline_key]
    if baseline == 0:
        return {key: 0.0 for key in values}
    return {key: value / baseline for key, value in values.items()}

def speedup(values: Mapping[str, float], over: str, of: str) -> float:
    """How much faster ``of`` is than ``over`` (ratio of the latencies)."""
    if values.get(of, 0.0) == 0.0:
        return 0.0
    return values[over] / values[of]

def histogram_cdf(histogram: Mapping[int, int]) -> List[tuple]:
    """Convert a value->count histogram into (value, cumulative fraction) pairs."""
    total = sum(histogram.values())
    if total == 0:
        return []
    cumulative = 0
    points = []
    for value in sorted(histogram):
        cumulative += histogram[value]
        points.append((value, cumulative / total))
    return points

def value_at_cdf(histogram: Mapping[int, int], fraction: float) -> int:
    """Smallest histogram value whose cumulative share reaches ``fraction``."""
    points = histogram_cdf(histogram)
    for value, cum in points:
        if cum >= fraction:
            return value
    return points[-1][0] if points else 0
