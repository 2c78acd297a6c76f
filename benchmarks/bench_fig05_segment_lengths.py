"""Figure 5: aggregated length distribution of learned segments (gamma 0/4/8).

The paper reports that 98.2-99.2% of learned segments cover at most 128
LPA-PPA mappings and that the segment count drops as gamma grows.
"""

from __future__ import annotations

from repro.analysis.memory import length_histogram
from repro.analysis.report import print_report, render_series
from repro.experiments.common import axis_grid
from repro.experiments.memory import memory_setup

from benchmarks.conftest import CORE_SIMULATOR_WORKLOADS, memory_scale, run_once

GAMMAS = (0, 4, 8)


def test_fig05_segment_length_distribution(benchmark):
    setup = memory_setup(request_scale=memory_scale())
    grid = run_once(benchmark, axis_grid, CORE_SIMULATOR_WORKLOADS, "gamma", GAMMAS, setup)
    distribution = {
        gamma: [n for cells in grid.values() for n in cells[gamma].segment_lengths]
        for gamma in GAMMAS
    }

    series = {}
    counts = {}
    for gamma, lengths in distribution.items():
        histogram = length_histogram(lengths)
        series[f"gamma={gamma} (#segments={len(lengths)})"] = {
            str(bucket): round(share, 1) for bucket, share in histogram.items()
        }
        counts[gamma] = len(lengths)
    print_report(render_series(
        "Figure 5: cumulative % of segments with length <= bucket", series))

    # Shape checks mirroring the paper's observations.
    assert counts[4] <= counts[0]
    assert counts[8] <= counts[4]
    share_le_128 = length_histogram(distribution[0])[128]
    assert share_le_128 > 90.0
