"""Figure 21: LeaFTL performance as gamma grows (0, 1, 4, 16).

The paper reports a 1.3x performance improvement at gamma = 16 over
gamma = 0 (1.2x on the real SSD) thanks to the extra memory saved for the
data cache; mispredictions stay cheap (one extra read, Figure 24).
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.analysis.report import print_report, render_series
from repro.experiments.common import axis_grid, project

from benchmarks.conftest import perf_setup, run_once

WORKLOADS = ("MSR-hm", "FIU-mail", "TPCC")
GAMMAS = (0, 4, 16)


def test_fig21_gamma_vs_performance(benchmark):
    setup = perf_setup()
    grid = run_once(benchmark, axis_grid, WORKLOADS, "gamma", GAMMAS, setup)
    latencies = project(grid, "read_mean_latency_us")
    table = {wl: normalize(row, GAMMAS[0]) for wl, row in latencies.items()}

    print_report(render_series(
        "Figure 21: LeaFTL read latency normalized to gamma = 0 (lower is better)",
        {wl: {f"gamma={g}": round(v, 3) for g, v in row.items()} for wl, row in table.items()},
    ))

    for workload, row in table.items():
        # A larger gamma must never make LeaFTL dramatically slower.
        assert row[16] <= 1.25, f"{workload}: gamma=16 slowed down by {row[16]:.2f}x"
