"""Figure 19: mapping-table size of LeaFTL as gamma grows (0, 1, 4, 16).

The paper reports a 1.3x average reduction at gamma = 16 relative to
gamma = 0 (1.2x on the real SSD): a larger error bound lets one approximate
segment absorb more irregular mappings.
"""

from __future__ import annotations

from repro.analysis.memory import normalized_size
from repro.analysis.report import print_report, render_series
from repro.experiments.common import axis_grid, project
from repro.experiments.memory import memory_setup

from benchmarks.conftest import CORE_WORKLOADS, memory_scale, run_once

GAMMAS = (0, 1, 4, 16)


def test_fig19_gamma_vs_mapping_size(benchmark):
    setup = memory_setup(request_scale=memory_scale())
    grid = run_once(benchmark, axis_grid, CORE_WORKLOADS, "gamma", GAMMAS, setup)
    footprints = project(grid, "mapping_full_bytes")

    series = {}
    for workload, by_gamma in footprints.items():
        normalized = normalized_size({str(g): float(v) for g, v in by_gamma.items()}, "0")
        series[workload] = {f"gamma={g}": round(normalized[str(g)], 3) for g in GAMMAS}
    print_report(render_series(
        "Figure 19: mapping table size normalized to gamma = 0 (lower is better)", series))

    for workload, by_gamma in footprints.items():
        assert by_gamma[16] <= by_gamma[0], f"{workload}: gamma=16 must not be larger"
    reductions = [by_gamma[0] / by_gamma[16] for by_gamma in footprints.values()]
    assert sum(reductions) / len(reductions) > 1.05
