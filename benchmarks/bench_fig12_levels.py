"""Figure 12: number of levels in the log-structured mapping table per group.

The paper reports a small average (a few levels) with a longer tail at the
99th percentile; lookups therefore stay cheap (see also Figure 23a).
"""

from __future__ import annotations

from repro.analysis.latency import mean_and_p99
from repro.analysis.report import print_report, render_table
from repro.experiments.common import scheme_grid
from repro.experiments.memory import memory_setup

from benchmarks.conftest import CORE_SIMULATOR_WORKLOADS, memory_scale, run_once


def test_fig12_levels_per_group(benchmark):
    setup = memory_setup(request_scale=memory_scale())
    grid = run_once(benchmark, scheme_grid, CORE_SIMULATOR_WORKLOADS, ("LeaFTL",), setup)
    results = {wl: mean_and_p99(cells["LeaFTL"].level_counts) for wl, cells in grid.items()}

    rows = [
        [workload, round(average, 2), round(p99, 1)]
        for workload, (average, p99) in results.items()
    ]
    print_report(render_table(
        ["workload", "average levels", "p99 levels"], rows,
        title="Figure 12: levels per LPA group"))

    for workload, (average, p99) in results.items():
        assert average >= 1.0
        assert average < 8, f"{workload}: average level count {average} unexpectedly high"
        assert p99 < 25
