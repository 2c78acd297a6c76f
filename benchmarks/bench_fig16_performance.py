"""Figure 16: normalized performance under two DRAM budget policies.

(a) the DRAM is used for the mapping table as much as possible;
(b) at least 20% of the DRAM is reserved for the data cache.

The paper reports LeaFTL improving storage performance by 1.6x (up to 2.7x)
over SFTL in (a) and 1.4x / 1.6x over SFTL / DFTL in (b).  Lower normalized
latency is better; DFTL = 1.0.

Replay is closed-loop (``bench_fig18`` has the open-loop panel).
Multi-page commands are translated in batched ``FTL.translate_range`` runs
and striped across channels.
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import normalize
from repro.analysis.report import print_report, render_series
from repro.experiments.common import SCHEMES, project, scheme_grid

from benchmarks.conftest import CORE_SIMULATOR_WORKLOADS, perf_setup, run_once


@pytest.mark.parametrize("policy", ["mapping_first", "cache_reserved"])
def test_fig16_normalized_performance(benchmark, policy):
    setup = perf_setup(dram_policy=policy)
    grid = run_once(benchmark, scheme_grid, CORE_SIMULATOR_WORKLOADS, SCHEMES, setup)
    latencies = project(grid, "read_mean_latency_us")
    table = {wl: normalize(row, "DFTL") for wl, row in latencies.items()}

    label = "(a) DRAM mostly for mapping" if policy == "mapping_first" else "(b) 20% reserved for cache"
    print_report(render_series(
        f"Figure 16{label}: normalized read latency (lower is better, DFTL = 1.0)",
        {wl: {s: round(v, 3) for s, v in row.items()} for wl, row in table.items()},
        column_order=("DFTL", "SFTL", "LeaFTL"),
    ))

    # Shape: LeaFTL is never slower than DFTL, and is the fastest on average.
    leaftl_mean = sum(row["LeaFTL"] for row in table.values()) / len(table)
    sftl_mean = sum(row["SFTL"] for row in table.values()) / len(table)
    assert leaftl_mean < 1.0
    assert leaftl_mean <= sftl_mean + 0.05
