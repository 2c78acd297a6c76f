"""Figure 17: performance on the real-SSD (database) workloads.

The paper reports LeaFTL obtaining a 1.4x average speedup (up to 1.5x) over
SFTL and DFTL across SEATS, AuctionMark, TPC-C, OLTP and CompFlow.

Replay is closed-loop (``bench_fig18`` has the open-loop panel).
Multi-page database commands are translated in batched
``FTL.translate_range`` runs and striped across channels.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.analysis.report import print_report, render_series
from repro.experiments.common import SCHEMES, project, scheme_grid

from benchmarks.conftest import CORE_DATABASE_WORKLOADS, perf_setup, run_once


def test_fig17_database_performance(benchmark):
    setup = perf_setup(dram_policy="cache_reserved")
    grid = run_once(benchmark, scheme_grid, CORE_DATABASE_WORKLOADS, SCHEMES, setup)
    latencies = project(grid, "read_mean_latency_us")
    table = {wl: normalize(row, "DFTL") for wl, row in latencies.items()}

    print_report(render_series(
        "Figure 17: normalized read latency on database workloads (lower is better)",
        {wl: {s: round(v, 3) for s, v in row.items()} for wl, row in table.items()},
        column_order=("DFTL", "SFTL", "LeaFTL"),
    ))

    leaftl_mean = sum(row["LeaFTL"] for row in table.values()) / len(table)
    assert leaftl_mean < 1.0
