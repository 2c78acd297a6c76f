"""Setup of the footprint and structure figures (5, 10, 12, 15, 19, 20).

These figures measure how many DRAM bytes each FTL scheme needs to hold the
mapping of a workload's entire working set, and what the learned table looks
like inside — no DRAM budget, no warm-up, no timing.  The figures themselves
are grids of cells at :func:`memory_setup`
(:func:`repro.experiments.common.scheme_grid` / ``axis_grid``), projected in
``benchmarks/bench_figNN``.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.memory import geometric_mean, reduction_factor
from repro.experiments.common import ExperimentSetup


def memory_setup(gamma: int = 0, request_scale: float = 0.25) -> ExperimentSetup:
    """A setup tailored to footprint measurements (no warm-up, no budget)."""
    return ExperimentSetup(
        gamma=gamma,
        warmup=False,
        request_scale=request_scale,
        # A large DRAM so no scheme is budget-limited: we want the size each
        # scheme *needs*, not the size it was allowed.
        dram_bytes=512 * 1024 * 1024,
        # Compact often enough (relative to the scaled-down traces) that the
        # footprint reflects the paper's periodically-compacted steady state.
        compaction_interval_writes=25_000,
    )


def average_reduction(
    footprints: Dict[str, Dict[str, int]], baseline: str, target: str = "LeaFTL"
) -> float:
    """Geometric-mean reduction of ``target`` vs ``baseline`` across workloads."""
    factors = [
        reduction_factor(by_scheme[baseline], by_scheme[target])
        for by_scheme in footprints.values()
    ]
    return geometric_mean(factors)
