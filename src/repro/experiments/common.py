"""Experiment harness shared by the benchmarks and examples.

The harness mirrors the paper's methodology (Section 4.1):

1. build an SSD with the FTL scheme under test and a DRAM budget policy;
2. *warm up* the device by writing a large fraction of the logical space
   (the paper replays warm-up traces until GC is guaranteed to run during
   the measurement) — this fills DFTL's cached mapping table and fills the
   flash so that garbage collection is active;
3. replay the workload trace and collect statistics;
4. report mapping-table footprint, latency, hit ratio, WAF, misprediction
   ratio and the learned-table internals the figures need.

Workload sizes are scaled down from the paper's multi-hour traces so a full
figure regenerates in minutes on a laptop; the ``request_scale`` and
environment variable ``REPRO_BENCH_SCALE`` control the scaling.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.flash.oob import oob_size_for_gamma
from repro.ftl.base import FTL
from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import SFTL
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from repro.ssd.stats import SSDStats
from repro.workloads.database import DATABASE_WORKLOAD_NAMES, database_workload
from repro.workloads.synthetic import (
    FIU_WORKLOAD_NAMES,
    MSR_WORKLOAD_NAMES,
    synthetic_workload,
    zipf_lpa,
)
from repro.workloads.trace import Trace

#: FTL schemes compared throughout the evaluation.
SCHEMES: Tuple[str, ...] = ("DFTL", "SFTL", "LeaFTL")

#: The simulator-trace workloads (Figures 15, 16, 19-25 left half).
SIMULATOR_WORKLOADS: List[str] = MSR_WORKLOAD_NAMES + FIU_WORKLOAD_NAMES

#: The real-SSD workloads (Figure 17 and the right half of 19-25).
REAL_SSD_WORKLOADS: List[str] = list(DATABASE_WORKLOAD_NAMES)

ALL_WORKLOADS: List[str] = SIMULATOR_WORKLOADS + REAL_SSD_WORKLOADS


def bench_scale() -> float:
    """Global scale factor for benchmark workload sizes (default 1.0).

    Set the ``REPRO_BENCH_SCALE`` environment variable to trade fidelity for
    runtime (e.g. ``REPRO_BENCH_SCALE=0.1`` for a quick smoke run); positive
    values below 0.01 are raised to it.
    """
    value = os.environ.get("REPRO_BENCH_SCALE")
    if not value:
        return 1.0
    try:
        scale = float(value)
    except ValueError:
        scale = float("nan")
    if not 0.0 < scale < float("inf"):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be a finite number > 0 (1.0 = default "
            f"size, 0.1 = smoke run), got {value!r}"
        )
    return max(0.01, scale)


@dataclass(frozen=True)
class ExperimentSetup:
    """Device + policy configuration for one experiment run."""

    #: Logical capacity of the simulated device.
    capacity_bytes: int = 1 * 1024 * 1024 * 1024
    #: Flash page size (Figure 22b varies this).
    page_size: int = 4096
    channels: int = 16
    #: Dies per channel: programs/erases on different dies overlap, so a
    #: program occupies its channel bus for ``write_latency / dies``.
    dies_per_channel: int = 8
    pages_per_block: int = 256
    #: Controller DRAM shared by the mapping table and the data cache.
    dram_bytes: int = 512 * 1024
    #: ``mapping_first`` (Figure 16a) or ``cache_reserved`` (Figure 16b).
    dram_policy: str = "mapping_first"
    #: LeaFTL error bound (also sizes the per-page spare area, see
    #: :func:`repro.flash.oob.oob_size_for_gamma`).
    gamma: int = 0
    #: Fraction of the logical space written once before measuring.
    warmup_fraction: float = 0.70
    #: Whether to run the warm-up phase at all.
    warmup: bool = True
    #: Write-buffer size in bytes (the paper's default is 8 MB).
    write_buffer_bytes: int = 1 * 1024 * 1024
    #: LeaFTL compaction interval, scaled to the smaller trace sizes.
    compaction_interval_writes: int = 200_000
    #: Fraction of each workload's requests to replay (runtime knob).
    request_scale: float = 0.25
    #: Scale factor applied to workload footprints so they fit the device.
    footprint_scale: float = 0.6
    #: Sort the write buffer by LPA before flushing (ablation knob).
    sort_buffer_on_flush: bool = True
    #: Host requests kept outstanding during replay (1 = the classic
    #: synchronous simulation; > 1 overlaps requests).
    queue_depth: int = 1
    #: Replay admission policy: ``"closed"`` (completion-driven, bounded by
    #: ``queue_depth``) or ``"open"`` (requests admitted at their trace
    #: timestamps — latency is measured against arrival times).
    replay_mode: str = "closed"
    #: Fraction of raw flash capacity reserved as over-provisioning space
    #: (the knob the aging sweep varies; the paper's default is 20 %).
    overprovisioning: float = 0.20
    #: GC scheduling: ``"sync"`` (classic blocking reclaim at flush time) or
    #: ``"background"`` (event-pipelined reclaim overlapping host I/O).
    gc_mode: str = "sync"
    #: GC victim-selection policy: ``greedy``, ``cost_benefit``, ``d_choices``.
    gc_policy: str = "greedy"

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1], got {self.warmup_fraction!r}"
            )
        for name in ("request_scale", "footprint_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def ssd_config(self) -> SSDConfig:
        return SSDConfig(
            capacity_bytes=self.capacity_bytes,
            page_size=self.page_size,
            pages_per_block=self.pages_per_block,
            channels=self.channels,
            dies_per_channel=self.dies_per_channel,
            dram_size=self.dram_bytes,
            oob_size=oob_size_for_gamma(self.gamma),
            write_buffer_bytes=self.write_buffer_bytes,
            overprovisioning=self.overprovisioning,
            ncq_depth=max(32, self.queue_depth),
        )

    def dram_budget(self) -> DRAMBudget:
        return DRAMBudget(dram_bytes=self.dram_bytes, policy=self.dram_policy)


@dataclass
class ExperimentResult:
    """Everything a benchmark needs to print one cell of a paper figure."""

    workload: str
    scheme: str
    gamma: int
    mean_latency_us: float
    read_mean_latency_us: float
    read_p99_us: float
    simulated_time_us: float
    cache_hit_ratio: float
    write_amplification: float
    misprediction_ratio: float
    mapping_full_bytes: int
    mapping_resident_bytes: int
    stats: SSDStats
    latency_samples: List[float] = field(default_factory=list)
    levels_histogram: Dict[int, int] = field(default_factory=dict)
    crb_sizes: List[int] = field(default_factory=list)
    segment_lengths: List[int] = field(default_factory=list)
    segment_type_counts: Tuple[int, int] = (0, 0)
    level_counts: List[int] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Building blocks
# --------------------------------------------------------------------------- #
def build_ftl(scheme: str, setup: ExperimentSetup) -> FTL:
    """Instantiate the FTL scheme under test with the setup's DRAM budget."""
    budget = setup.dram_budget().mapping_budget()
    if scheme == "DFTL":
        return DFTL(mapping_budget_bytes=budget)
    if scheme == "SFTL":
        return SFTL(mapping_budget_bytes=budget)
    if scheme == "LeaFTL":
        config = LeaFTLConfig(
            gamma=setup.gamma,
            compaction_interval_writes=setup.compaction_interval_writes,
        )
        return LeaFTL(config=config, mapping_budget_bytes=budget)
    if scheme == "PageMap":
        return PageLevelFTL()
    raise ValueError(f"unknown FTL scheme {scheme!r}; known: {SCHEMES + ('PageMap',)}")


def build_ssd(scheme: str, setup: ExperimentSetup) -> SimulatedSSD:
    """An SSD + FTL pair ready for warm-up and trace replay."""
    config = setup.ssd_config()
    ftl = build_ftl(scheme, setup)
    options = SSDOptions(
        sort_buffer_on_flush=setup.sort_buffer_on_flush,
        queue_depth=setup.queue_depth,
        gc_mode=setup.gc_mode,
    )
    return SimulatedSSD(
        config=config,
        ftl=ftl,
        dram_budget=setup.dram_budget(),
        options=options,
        gc_policy=setup.gc_policy,
    )


#: Random seed of the warm-up pattern.
WARMUP_SEED = 7


def warmup_ssd(ssd: SimulatedSSD, setup: ExperimentSetup) -> None:
    """Pre-fill the device so GC is active and mapping tables are populated.

    The warm-up writes ``warmup_fraction`` of the logical space in large
    sequential extents interleaved with scattered small writes — a mix that
    populates every FTL's mapping structures without handing LeaFTL an
    artificially easy all-sequential history.
    """
    rng = random.Random(WARMUP_SEED)
    logical_pages = ssd.config.logical_pages
    target_pages = int(logical_pages * setup.warmup_fraction)
    extent = 2048
    lpa = 0
    written = 0
    while written < target_pages and lpa < logical_pages - extent:
        ssd.submit("W", lpa, extent)
        written += extent
        lpa += extent
        if rng.random() < 0.25:
            scattered = rng.randrange(0, logical_pages - 8)
            ssd.submit("W", scattered, rng.randint(1, 4))
            written += 4
    ssd.flush()
    reset_measurement(ssd)


#: Seed of the aging overwrite pattern the GC studies share.
AGING_SEED = 11


def precondition(ssd: SimulatedSSD, seed: int = AGING_SEED) -> int:
    """Age the device into GC steady state (WiscSee-style preconditioning).

    Steady-state WAF and GC-interference latencies only mean something once
    every physical block has been written and the per-block validity
    distribution reflects the workload's skew — a freshly formatted device
    under-reports both.  The recipe:

    1. **fill** — write 92 % of the logical space sequentially in 256-page
       runs, so every block starts fully valid;
    2. **age** — overwrite the filled footprint once over, 4 pages at a
       time in Zipf-skewed (alpha 0.8) random order, spreading invalid pages
       *unevenly* across blocks: hot blocks drain toward empty while cold
       blocks stay valid, which is the regime where victim policies differ;
    3. drain the write buffer and reset measurement, so subsequent ``run()``
       calls report steady-state statistics only.

    Returns the preconditioned footprint in pages (use it to bound the
    measured workload so it overwrites aged data rather than virgin space).
    """
    extent, span = 256, 4
    logical_pages = ssd.config.logical_pages
    footprint = min(logical_pages, max(extent, int(logical_pages * 0.92)))
    for lpa in range(0, footprint - extent + 1, extent):
        ssd.submit("W", lpa, extent)
    rng = random.Random(seed)
    for _ in range(footprint // span):
        lpa = zipf_lpa(rng, max(1, footprint - span), 0.8)
        ssd.submit("W", lpa, span)
    ssd.flush()
    # Let the aging traffic drain: without this the first measured requests
    # queue behind the preconditioning's final flush/GC reservations and the
    # measured tail reflects the aging, not the workload.
    ssd.quiesce()
    reset_measurement(ssd)
    return footprint


def steady_state_workload(
    footprint_pages: int,
    num_requests: int,
    seed: int = 23,
    read_ratio: float = 0.4,
    zipf_alpha: float = 0.85,
    max_span: int = 8,
) -> List[Tuple[str, int, int]]:
    """An overwrite-heavy, Zipf-skewed request mix for GC studies.

    Every request targets the preconditioned footprint, so writes are
    overwrites (sustaining GC pressure) and reads hit aged data (measuring
    GC interference).  Deterministic given ``seed``.
    """
    rng = random.Random(seed)
    requests: List[Tuple[str, int, int]] = []
    upper = max(1, footprint_pages - max_span)
    for _ in range(num_requests):
        lpa = zipf_lpa(rng, upper, zipf_alpha)
        op = "R" if rng.random() < read_ratio else "W"
        requests.append((op, lpa, rng.randint(1, max_span)))
    return requests


def aged_device(
    setup: ExperimentSetup, num_requests: int, aging_seed: int, workload_seed: int
) -> Tuple[SimulatedSSD, List[Tuple[str, int, int]]]:
    """An aged LeaFTL device, ready to measure: ``(ssd, requests)``.

    Builds the device, ages it with :func:`precondition` and generates the
    :func:`steady_state_workload` over the aged footprint.  The caller runs
    ``ssd.run(requests)`` itself, so it can attach observers or telemetry
    between the aging and the measured phase.
    """
    ssd = build_ssd("LeaFTL", setup)
    footprint = precondition(ssd, seed=aging_seed)
    return ssd, steady_state_workload(footprint, num_requests, seed=workload_seed)


def reset_measurement(ssd: SimulatedSSD) -> None:
    """Clear the statistics accumulated so far (end of warm-up).

    Also anchors the measured-time origin, so ``stats.measured_time_us``
    of the subsequent replay excludes the warm-up makespan.
    """
    ssd.begin_measurement()
    ssd.ftl.reset_stats()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def workload_by_name(
    name: str, request_scale: float = 1.0, footprint_scale: float = 1.0
) -> Trace:
    """Build the named workload trace (MSR-like, FIU-like or database)."""
    if name in SIMULATOR_WORKLOADS:
        return synthetic_workload(name, request_scale, footprint_scale)
    if name in DATABASE_WORKLOAD_NAMES:
        return database_workload(name, request_scale)
    raise KeyError(f"unknown workload {name!r}; known: {ALL_WORKLOADS}")


@functools.lru_cache(maxsize=None)
def workload_for_setup(name: str, setup: ExperimentSetup) -> Trace:
    """The named workload scaled for the experiment device.

    Generated once per ``(name, setup)``: traces are immutable, so every
    cell replaying that workload on that setup shares the one object.
    """
    trace = workload_by_name(name, setup.request_scale, setup.footprint_scale)
    return trace.scaled_to(setup.ssd_config().logical_pages)


# --------------------------------------------------------------------------- #
# Running experiments
# --------------------------------------------------------------------------- #
def run_experiment(
    workload: str,
    scheme: str,
    setup: Optional[ExperimentSetup] = None,
    trace: Optional[Trace] = None,
) -> ExperimentResult:
    """One cell of the evaluation: ``workload`` replayed on ``scheme``.

    The cell is the only thing in the harness that simulates, and it is
    simulated once per process: the device is deterministic
    (``python -m repro.verify`` is the gate), so the result is memoised on
    ``(workload, scheme, setup)`` and every figure that reads the same
    configuration shares one :class:`ExperimentResult` — treat it as
    read-only.  An explicit ``trace`` (a custom workload the name does not
    determine) bypasses the memo and always simulates.

    How the cell is replayed is part of the setup: ``setup.replay_mode``
    ``"closed"`` replays completion-driven at ``setup.queue_depth``;
    ``"open"`` admits requests at their trace timestamps (timestamp-less
    synthetic traces are stamped :data:`OPEN_LOOP_INTERARRIVAL_US` apart
    first), so latency-under-load is measured against arrival times.
    """
    setup = setup or ExperimentSetup()
    if trace is not None:
        return simulate(workload, scheme, setup, trace)
    return memoised_cell(workload, scheme, setup)


@functools.lru_cache(maxsize=None)
def memoised_cell(workload: str, scheme: str, setup: ExperimentSetup) -> ExperimentResult:
    """The memo behind :func:`run_experiment`; ``cache_info()`` counts
    cells simulated (misses) against cells requested (hits + misses)."""
    return simulate(workload, scheme, setup, workload_for_setup(workload, setup))


#: Arrival spacing stamped onto timestamp-less (synthetic) traces when a
#: cell is replayed open-loop.
OPEN_LOOP_INTERARRIVAL_US = 20.0


class MappingBudgetExceeded(RuntimeError):
    """A LeaFTL cell's learned table outgrew the DRAM its setup gives it."""


def simulate(
    workload: str, scheme: str, setup: ExperimentSetup, replay: Trace
) -> ExperimentResult:
    """Build, warm up, replay and collect every figure's inputs (uncached)."""
    ssd = build_ssd(scheme, setup)
    if setup.warmup:
        warmup_ssd(ssd, setup)
    if setup.replay_mode == "open":
        replay = replay.with_interarrival(OPEN_LOOP_INTERARRIVAL_US)
    stats = ssd.run(replay, replay_mode=setup.replay_mode)

    ftl = ssd.ftl
    # DFTL and SFTL pay translation-page misses over their mapping budget;
    # LeaFTL accepts the budget and keeps its whole table resident, so a cell
    # over budget would compare it on DRAM the others do not get.
    budget = setup.dram_budget().mapping_budget()
    if isinstance(ftl, LeaFTL) and stats.peak_mapping_bytes > budget:
        raise MappingBudgetExceeded(
            f"{workload} / {scheme} gamma={setup.gamma}: the learned table peaked at "
            f"{stats.peak_mapping_bytes} B, over the {budget} B mapping budget of "
            f"{setup.dram_bytes} B DRAM ({setup.dram_policy}); LeaFTL models no "
            "demand paging, so this cell cannot be simulated fairly"
        )
    result = ExperimentResult(
        workload=workload,
        scheme=scheme,
        gamma=setup.gamma,
        mean_latency_us=stats.mean_latency_us,
        read_mean_latency_us=stats.read_latency.mean_us,
        read_p99_us=stats.read_latency.percentile(99),
        simulated_time_us=stats.simulated_time_us,
        cache_hit_ratio=stats.cache_hit_ratio,
        write_amplification=stats.write_amplification,
        misprediction_ratio=stats.misprediction_ratio,
        mapping_full_bytes=ftl.full_mapping_bytes(),
        mapping_resident_bytes=ftl.resident_bytes(),
        stats=stats,
        latency_samples=stats.read_latency.samples(),
    )
    if isinstance(ftl, LeaFTL):
        result.levels_histogram = dict(ftl.table.stats.levels_histogram)
        result.crb_sizes = ftl.table.crb_sizes()
        result.segment_lengths = ftl.table.segment_lengths()
        result.segment_type_counts = ftl.table.segment_type_counts()
        result.level_counts = ftl.table.level_counts()
    return result


def run_schemes(
    workload: str,
    setup: Optional[ExperimentSetup] = None,
    schemes: Sequence[str] = SCHEMES,
) -> Dict[str, ExperimentResult]:
    """scheme -> cell, every scheme replaying the same workload."""
    return {scheme: run_experiment(workload, scheme, setup) for scheme in schemes}


# --------------------------------------------------------------------------- #
# Grids: a figure is a grid of cells read one way
# --------------------------------------------------------------------------- #
Grid = Dict[Any, Dict[Any, ExperimentResult]]


def scheme_grid(
    workloads: Sequence[str], schemes: Sequence[str], setup: ExperimentSetup
) -> Grid:
    """workload -> scheme -> cell, all at one setup (Figures 15-18, 25)."""
    return {workload: run_schemes(workload, setup, schemes) for workload in workloads}


def axis_grid(
    workloads: Sequence[str], axis: str, values: Sequence[Any], setup: ExperimentSetup
) -> Grid:
    """workload -> value -> LeaFTL cell with ``setup.<axis> = value``.

    ``axis`` names one :class:`ExperimentSetup` field: ``gamma`` (Figures
    5, 19-21, 24) or ``queue_depth`` (``examples/queue_depth_sweep.py``).
    An axis that needs every scheme (Figure 22's DRAM and page sizes) is a
    :func:`scheme_grid` per value instead.
    """
    return {
        workload: {
            value: run_experiment(workload, "LeaFTL", replace(setup, **{axis: value}))
            for value in values
        }
        for workload in workloads
    }


def project(grid: Grid, attribute: str) -> Dict[Any, Dict[Any, Any]]:
    """row -> column -> one attribute of each cell's result."""
    return {
        row: {column: getattr(cell, attribute) for column, cell in cells.items()}
        for row, cells in grid.items()
    }
