"""Figure 10: distribution of CRB sizes per workload (gamma = 4).

The paper measures an average CRB of ~14 bytes per group; the key property
is that conflict-resolution metadata stays tiny (well under the 256-byte
worst case).
"""

from __future__ import annotations

from repro.analysis.latency import mean_and_p99
from repro.analysis.report import print_report, render_table
from repro.experiments.common import scheme_grid
from repro.experiments.memory import memory_setup

from benchmarks.conftest import CORE_SIMULATOR_WORKLOADS, memory_scale, run_once


def test_fig10_crb_size_distribution(benchmark):
    setup = memory_setup(gamma=4, request_scale=memory_scale())
    grid = run_once(benchmark, scheme_grid, CORE_SIMULATOR_WORKLOADS, ("LeaFTL",), setup)
    results = {wl: mean_and_p99(cells["LeaFTL"].crb_sizes) for wl, cells in grid.items()}

    rows = [
        [workload, round(average, 1), round(p99, 1)]
        for workload, (average, p99) in results.items()
    ]
    print_report(render_table(
        ["workload", "average CRB bytes", "p99 CRB bytes"], rows,
        title="Figure 10: CRB size per LPA group (gamma = 4)"))

    for workload, (average, p99) in results.items():
        assert average < 256, f"{workload}: CRB average {average} exceeds one group"
        assert p99 <= 300
