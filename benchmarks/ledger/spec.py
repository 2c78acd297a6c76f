"""Names, units, clocks, directions and bounds of everything the ledger reports.

This module is the single definition; ``BENCHMARK.json`` at the repository
root restates the subset the PR driver gates on, and the smoke test checks
that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: name -> why the workload exists (one line; the README has the long form).
WORKLOADS: Dict[str, str] = {
    "steady_mixed": (
        "aged device, closed loop qd8, 60% Zipf writes: PLR learning, level "
        "insert/merge and GC migration relearn dominate; loads core learn, ssd "
        "reclaim, flash program"
    ),
    "read_lookup": (
        "same aged device at gamma=4 with a tiny cache, 95% random reads: level "
        "walks, translate_range, OOB misprediction fixes; almost no learning or GC"
    ),
    "seq_stream": (
        "fresh device, qd1 serial path, 64-page sequential commands: bypasses the "
        "event loop, arbiter and GC migration; write buffer, cache and flash "
        "program/erase dominate"
    ),
    "tenants_wrr": (
        "two namespaces through HostInterface, WRR arbiter, background GC, open-"
        "loop Zipf reader beside a bursty writer: the only workload that runs host"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric, reported per workload."""

    name: str
    unit: str
    #: ``"host"`` = CPU seconds of the machine running the simulator (best
    #: of the repeats); ``"sim"`` = the modelled device's clock or counters
    #: (must be identical across repeats).
    clock: str
    better: str
    #: Share of the baseline value the metric may worsen by before it counts
    #: as a regression.  ``compare`` and ``BENCHMARK.json`` use this one
    #: number.  The PR driver refuses a benchmark whose spread over ten
    #: *different* seeds exceeds a bound and allows 25% at most, so each is
    #: up to three times the widest seed-to-seed spread measured, as far as
    #: that ceiling lets it (README.md has the figures).
    bound: float
    #: Absolute slack that also counts as "within bound" (metrics near 0).
    absolute_bound: float = 0.0


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("host_ios_per_s", "1/s", "host", "higher", 0.25),
    EndToEnd("host_pages_per_s", "1/s", "host", "higher", 0.25),
    EndToEnd("setup_s", "s", "host", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "host", "lower", 0.10),
    EndToEnd("sim_iops", "1/s", "sim", "higher", 0.10),
    EndToEnd("sim_read_mean_us", "us", "sim", "lower", 0.25),
    EndToEnd("sim_read_p99_us", "us", "sim", "lower", 0.25),
    EndToEnd("waf", "ratio", "sim", "lower", 0.25),
    EndToEnd("mapping_bytes", "B", "sim", "lower", 0.18),
    EndToEnd("misprediction_ratio", "ratio", "sim", "lower", 0.02, absolute_bound=0.001),
    # 1 - misprediction_ratio: the same quantity in a form that is never 0,
    # which is what lets the PR driver put a bound on it (see below).
    EndToEnd("exact_prediction_ratio", "ratio", "sim", "higher", 0.06),
    EndToEnd("ops_failed_share", "ratio", "sim", "lower", 0.0),
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {metric.name: metric for metric in END_TO_END}

#: End-to-end metrics that are exactly 0 on some workload.  The PR driver
#: divides each spread by the median, so ``BENCHMARK.json`` cannot bound
#: them: it lists them with the per-layer metrics, bounds
#: ``exact_prediction_ratio`` in place of ``misprediction_ratio``, and gets
#: failures through the ``failed`` / ``correct`` fields of each run.
ZERO_VALUED = ("misprediction_ratio", "ops_failed_share")

#: Source tags of the per-layer metrics (see README.md).
TRACE, COUNT, SIM, GAUGE, MICRO, RATIO = "trace", "count", "sim", "gauge", "micro", "ratio"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    source: str
    better: str = "lower"
    #: The end-to-end metric this one should move, and on which workload.
    moves: Optional[str] = None


_LEARN = "host_ios_per_s on steady_mixed"
_LOOKUP = "host_ios_per_s on read_lookup"
_MISS = "misprediction_ratio, sim_read_mean_us, mapping_bytes on read_lookup/tenants_wrr"
_STREAM = "host_pages_per_s on seq_stream"
_EVENTS = "host_ios_per_s on steady_mixed/tenants_wrr"
_RECLAIM = "waf, host_ios_per_s on steady_mixed; sim_read_p99_us on tenants_wrr"
_CACHE = "sim_read_mean_us on read_lookup"
_HOST = "host_ios_per_s, sim_read_p99_us on tenants_wrr only"

PER_LAYER: Tuple[PerLayer, ...] = (
    # core -------------------------------------------------------------- #
    PerLayer("core.learn_self_s", "s", TRACE, moves=_LEARN),
    PerLayer("core.learn_calls", "count", TRACE, moves=_LEARN),
    PerLayer("core.lookup_self_s", "s", TRACE, moves=_LOOKUP),
    PerLayer("core.lookup_calls", "count", TRACE, moves=_LOOKUP),
    PerLayer("core.compact_self_s", "s", TRACE, moves="mapping_bytes on steady_mixed"),
    PerLayer("core.compactions", "count", COUNT, "higher", "mapping_bytes on steady_mixed"),
    PerLayer("core.points_fitted_per_host_page", "ratio", COUNT, moves=_LEARN),
    PerLayer("core.segments_per_batch", "ratio", COUNT, moves="mapping_bytes on steady_mixed"),
    PerLayer("core.mean_segment_length", "pages", COUNT, "higher", "mapping_bytes on steady_mixed"),
    PerLayer("core.levels_per_lookup", "ratio", COUNT, moves=_LOOKUP),
    PerLayer("core.approx_segment_share", "ratio", COUNT, moves=_MISS),
    PerLayer("core.mispredictions_per_lookup", "ratio", COUNT, moves=_MISS),
    PerLayer("core.oob_correction_failures", "count", COUNT, moves=_MISS),
    PerLayer("core.crb_bytes", "B", GAUGE, moves=_MISS),
    PerLayer("core.segment_count", "count", GAUGE, moves=_MISS),
    PerLayer("core.plr_fit_points_per_s.sequential", "1/s", MICRO, "higher"),
    PerLayer("core.plr_fit_points_per_s.strided", "1/s", MICRO, "higher"),
    PerLayer("core.plr_fit_points_per_s.random", "1/s", MICRO, "higher"),
    PerLayer("core.table_update_pages_per_s", "1/s", MICRO, "higher"),
    PerLayer("core.table_lookup_per_s", "1/s", MICRO, "higher"),
    PerLayer("core.table_lookup_range_pages_per_s", "1/s", MICRO, "higher"),
    PerLayer("core.table_compact_s", "s", MICRO),
    # flash ------------------------------------------------------------- #
    PerLayer("flash.program_self_s", "s", TRACE, moves=_STREAM),
    PerLayer("flash.read_self_s", "s", TRACE, moves=_STREAM),
    PerLayer("flash.erase_self_s", "s", TRACE, moves=_STREAM),
    PerLayer("flash.allocator_self_s", "s", TRACE, moves=_STREAM),
    PerLayer("flash.pages_programmed", "count", COUNT, moves="waf everywhere"),
    PerLayer("flash.pages_read", "count", COUNT, moves="sim_read_mean_us on read_lookup"),
    PerLayer("flash.oob_reads", "count", COUNT, moves="sim_read_mean_us on read_lookup"),
    PerLayer("flash.blocks_erased", "count", COUNT, moves="waf everywhere"),
    PerLayer("flash.wear_imbalance", "count", GAUGE),
    PerLayer("flash.program_run_pages_per_s", "1/s", MICRO, "higher"),
    PerLayer("flash.read_run_pages_per_s", "1/s", MICRO, "higher"),
    PerLayer("flash.erase_blocks_per_s", "1/s", MICRO, "higher"),
    # sim --------------------------------------------------------------- #
    PerLayer("sim.loop_self_s", "s", TRACE, moves=_EVENTS),
    PerLayer("sim.frontend_self_s", "s", TRACE, moves=_EVENTS),
    PerLayer("sim.nand_self_s", "s", TRACE, moves=_EVENTS),
    PerLayer("sim.nand_reserve_calls", "count", TRACE, moves=_EVENTS),
    PerLayer("sim.events_per_io", "ratio", COUNT, moves=_EVENTS),
    PerLayer("sim.host_us_per_event", "us", RATIO, moves=_EVENTS),
    PerLayer("sim.channel_utilization_mean", "ratio", SIM, moves="sim_iops, sim_read_p99_us"),
    PerLayer("sim.event_schedule_dispatch_per_s", "1/s", MICRO, "higher"),
    PerLayer("sim.nand_reserve_per_s", "1/s", MICRO, "higher"),
    # ssd --------------------------------------------------------------- #
    PerLayer("ssd.datapath_self_s", "s", TRACE, moves="host_pages_per_s on seq_stream/read_lookup"),
    PerLayer("ssd.reclaim_self_s", "s", TRACE, moves=_RECLAIM),
    PerLayer("ssd.gc_select_self_s", "s", TRACE, moves=_RECLAIM),
    PerLayer("ssd.gc_pages_moved_per_erase", "pages", COUNT, moves=_RECLAIM),
    PerLayer("ssd.gc_invocations", "count", COUNT, moves=_RECLAIM),
    PerLayer("ssd.gc_background_runs", "count", COUNT, moves=_RECLAIM),
    PerLayer("ssd.gc_urgent_collections", "count", COUNT, moves=_RECLAIM),
    PerLayer("ssd.wl_page_moves", "count", COUNT, moves=_RECLAIM),
    PerLayer("ssd.gc_write_throttle_us", "us", SIM, moves="sim_read_p99_us"),
    PerLayer("ssd.read_stall_us", "us", SIM, moves="sim_read_p99_us"),
    PerLayer("ssd.cache_self_s", "s", TRACE, moves=_CACHE),
    PerLayer("ssd.write_buffer_self_s", "s", TRACE, moves=_CACHE),
    PerLayer("ssd.cache_hit_ratio", "ratio", COUNT, "higher", _CACHE),
    PerLayer("ssd.buffer_hit_share", "ratio", COUNT, "higher", _CACHE),
    PerLayer("ssd.buffer_flushes", "count", COUNT, moves=_CACHE),
    PerLayer("ssd.flash_reads_per_host_read_page", "ratio", COUNT, moves=_CACHE),
    PerLayer("ssd.cache_insert_lookup_per_s", "1/s", MICRO, "higher"),
    PerLayer("ssd.write_buffer_pages_per_s", "1/s", MICRO, "higher"),
    PerLayer("ssd.gc_select_victims_per_s", "1/s", MICRO, "higher"),
    # host -------------------------------------------------------------- #
    PerLayer("host.frontend_self_s", "s", TRACE, moves=_HOST),
    PerLayer("host.arbiter_self_s", "s", TRACE, moves=_HOST),
    PerLayer("host.arbiter_picks", "count", TRACE, moves=_HOST),
    PerLayer("host.max_outstanding", "count", COUNT, moves=_HOST),
    PerLayer("host.reader_p99_us", "us", SIM, moves=_HOST),
    PerLayer("host.reader_slo_miss_share", "ratio", SIM, moves=_HOST),
    PerLayer("host.writer_mean_us", "us", SIM, moves=_HOST),
    PerLayer("host.arbiter_select_per_s", "1/s", MICRO, "higher"),
    # obs --------------------------------------------------------------- #
    PerLayer("obs.trace_slowdown", "ratio", RATIO),
    PerLayer("obs.metrics_slowdown", "ratio", RATIO),
    PerLayer("obs.on_slowdown", "ratio", RATIO),
    PerLayer("obs.sim_metrics_unchanged", "count", RATIO, "higher"),
    # the benchmark itself ---------------------------------------------- #
    PerLayer("bench.trace_overhead_ratio", "ratio", RATIO),
    PerLayer("bench.attributed_share", "ratio", RATIO, "higher"),
)

PER_LAYER_BY_NAME: Dict[str, PerLayer] = {metric.name: metric for metric in PER_LAYER}

#: Unit of every metric the ledger prints, by name.
UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: The disjoint self-time rows of the traced pass.  Every wrapped span is
#: charged to exactly one of them, so they add up to the traced replay
#: (``bench.attributed_share``).  ``ssd.reclaim_self_s`` is *not* in here:
#: it is a by-cause view cutting across these rows.
SELF_TIME_ROWS: Tuple[str, ...] = (
    "core.learn_self_s",
    "core.lookup_self_s",
    "core.compact_self_s",
    "flash.program_self_s",
    "flash.read_self_s",
    "flash.erase_self_s",
    "flash.allocator_self_s",
    "sim.loop_self_s",
    "sim.frontend_self_s",
    "sim.nand_self_s",
    "ssd.datapath_self_s",
    "ssd.gc_select_self_s",
    "ssd.cache_self_s",
    "ssd.write_buffer_self_s",
    "host.frontend_self_s",
    "host.arbiter_self_s",
)

#: The traced pass fails when the rows above cover less of it than this.
MIN_ATTRIBUTED_SHARE = 0.99
