"""Mapping-table memory and structure analysis (Figures 5, 15 and 19)."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (e.g. ``'1.5 MB'``)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TB"


def reduction_factor(baseline_bytes: float, candidate_bytes: float) -> float:
    """How many times smaller ``candidate`` is than ``baseline`` (Figure 15's y-axis)."""
    if candidate_bytes <= 0:
        return float("inf") if baseline_bytes > 0 else 1.0
    return baseline_bytes / candidate_bytes


def normalized_size(footprints: Mapping[str, float], baseline: str) -> Dict[str, float]:
    """Mapping-table size of each configuration normalized to ``baseline``.

    This is the y-axis of Figure 19 (lower is better).
    """
    base = footprints[baseline]
    if base == 0:
        return {key: 0.0 for key in footprints}
    return {key: value / base for key, value in footprints.items()}


def geometric_mean(values) -> float:
    """Geometric mean, used for "on average" claims across workloads."""
    items = [v for v in values if v > 0]
    if not items:
        return 0.0
    product = 1.0
    for value in items:
        product *= value
    return product ** (1.0 / len(items))


def length_histogram(
    lengths: Sequence[int],
    buckets: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
) -> Dict[int, float]:
    """Cumulative share of segments whose length is <= each bucket (Fig. 5 y-axis)."""
    if not lengths:
        return {bucket: 0.0 for bucket in buckets}
    total = len(lengths)
    return {
        bucket: 100.0 * sum(1 for value in lengths if value <= bucket) / total
        for bucket in buckets
    }
