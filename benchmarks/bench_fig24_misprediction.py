"""Figure 24: misprediction ratio of flash page accesses vs gamma.

The paper reports that most workloads stay below a 10% misprediction ratio
even at gamma = 16, because many segments remain accurate and not every
entry of an approximate segment mispredicts; gamma = 0 never mispredicts.
"""

from __future__ import annotations

from repro.analysis.report import print_report, render_series
from repro.experiments.common import axis_grid, project

from benchmarks.conftest import perf_setup, run_once

WORKLOADS = ("MSR-hm", "FIU-mail", "TPCC")
GAMMAS = (0, 4, 16)


def test_fig24_misprediction_ratio(benchmark):
    setup = perf_setup()
    grid = run_once(benchmark, axis_grid, WORKLOADS, "gamma", GAMMAS, setup)
    ratios = project(grid, "misprediction_ratio")
    table = {wl: {g: 100.0 * v for g, v in row.items()} for wl, row in ratios.items()}

    print_report(render_series(
        "Figure 24: misprediction ratio (%) of translated flash accesses",
        {wl: {f"gamma={g}": round(v, 2) for g, v in row.items()} for wl, row in table.items()},
    ))

    for workload, row in table.items():
        assert row[0] == 0.0, f"{workload}: gamma=0 must never mispredict"
        assert row[16] <= 35.0, f"{workload}: misprediction ratio {row[16]}% too high"
