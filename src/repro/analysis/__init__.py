"""Analysis helpers: latency statistics, memory accounting, report formatting."""

from repro.analysis.latency import (
    histogram_cdf,
    latency_cdf,
    mean_and_p99,
    normalize,
    percentile,
    speedup,
    value_at_cdf,
)
from repro.analysis.memory import (
    format_bytes,
    geometric_mean,
    length_histogram,
    normalized_size,
    reduction_factor,
    reduction_table,
)
from repro.analysis.report import print_report, render_series, render_table

__all__ = [
    "histogram_cdf",
    "latency_cdf",
    "mean_and_p99",
    "normalize",
    "percentile",
    "speedup",
    "value_at_cdf",
    "format_bytes",
    "geometric_mean",
    "length_histogram",
    "normalized_size",
    "reduction_factor",
    "reduction_table",
    "print_report",
    "render_series",
    "render_table",
]
