"""Shared configuration for the figure-reproduction benchmarks.

Every ``bench_*.py`` file in this directory regenerates one table or figure
of the LeaFTL paper (README, "Reproducing the figures", has the index).  The
workloads are scaled down so the whole suite finishes on a laptop; set the
environment variable ``REPRO_BENCH_SCALE`` (default 1.0) to scale the
replayed request counts up or down, e.g.::

    REPRO_BENCH_SCALE=4 PYTHONPATH=src python -m pytest benchmarks/bench_*.py -s

Each benchmark prints the rows/series of its figure, so running with ``-s``
shows the reproduced numbers.

A figure is a grid of cells (``repro.experiments.common.scheme_grid`` /
``axis_grid``), and a cell — one ``(workload, scheme, setup, replay mode)``
simulation — is memoised for the life of the process.  Figures that share
cells (21 and 24 share all nine; 5/10/12/15/19/20 overlap) therefore pay for
them once, in whichever test asks first, so the per-test pytest-benchmark
times no longer mean "cost of this figure": they depend on collection order
and on which files are selected.  The session's real cost is the line this
file prints at the end, ``cells simulated / cells requested``.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentSetup, bench_scale, memoised_cell

#: Workloads used by the heavier sweeps (a representative subset of the 12).
CORE_SIMULATOR_WORKLOADS = ("MSR-hm", "MSR-prxy", "MSR-usr", "FIU-mail")
CORE_DATABASE_WORKLOADS = ("TPCC", "SEATS", "OLTP")
CORE_WORKLOADS = CORE_SIMULATOR_WORKLOADS + CORE_DATABASE_WORKLOADS

def perf_setup(**overrides: object) -> ExperimentSetup:
    """Performance-measurement setup (warm-up enabled, small device).

    Closed-loop unless a figure says otherwise: ``bench_fig18`` passes
    ``replay_mode="open"`` for its open-loop panel, whose latencies include
    the time requests waited for a saturated device.

    The 100,000-write compaction interval is not scaled with
    ``request_scale``: the LeaFTL cells of MSR-hm / MSR-prxy / MSR-usr /
    FIU-mail never compact (warm-up plus replay write fewer pages), so the
    level figures (12, 23a) report uncompacted tables (ROADMAP item 16).
    """
    defaults = dict(
        capacity_bytes=512 * 1024 * 1024,
        dram_bytes=256 * 1024,
        warmup_fraction=0.5,
        request_scale=0.08 * bench_scale(),
        footprint_scale=0.35,
        compaction_interval_writes=100_000,
    )
    defaults.update(overrides)
    return ExperimentSetup(**defaults)  # type: ignore[arg-type]

def memory_scale() -> float:
    """Request scale used by the footprint/structure benchmarks."""
    return 0.15 * bench_scale()

def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

def pytest_terminal_summary(terminalreporter):
    info = memoised_cell.cache_info()
    terminalreporter.write_line(
        f"cells simulated / cells requested: {info.misses} / {info.hits + info.misses}"
    )
