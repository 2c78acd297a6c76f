"""The trace-driven SSD model that ties flash, FTL, cache, buffer and GC together.

This is the WiscSim-equivalent substrate of the reproduction.  It models an
SSD controller at the level of detail the LeaFTL evaluation depends on:

* a write buffer that batches host writes and programs them one flash block
  at a time, with LPA-sorted flushes (Section 3.3);
* an LRU read/write data cache whose capacity is whatever DRAM the mapping
  table leaves free — this is the mechanism that converts LeaFTL's memory
  savings into performance (Figure 16);
* per-channel latency accounting: every flash read/program/erase occupies
  its channel, so background flushes and GC delay later reads that land on
  the same channel;
* garbage collection with pluggable victim policies (greedy, cost-benefit,
  d-choices) and throttled wear leveling, whose migrated mappings reach the
  FTL with the pages they left (``FTL.migrate_batch``): LeaFTL carries a
  segment that moved whole and relearns the rest (Section 3.6).  All
  reclaim, and when it runs, lives in :mod:`repro.ssd.gc`: one read →
  migrate → erase mechanism, blocking at flush time (``SSDOptions.gc_mode``
  ``"sync"``) or as a background event pipeline (``"background"``), one
  victim at a time.  This module calls it once per flush and holds the next
  buffer-filling write until the urgent reclaim it reports completes.  Host
  and migrated (cold) data go to separate allocator streams, never one block;
* OOB reverse mappings written with every page, including the
  ``[-gamma, +gamma]`` neighbour window LeaFTL needs to correct
  mispredictions with a single extra flash read (Section 3.5);
* verification of every translated read against the reverse mapping and
  the page state (a superseded copy still holds its LPA but no longer
  answers for it), which is how mispredictions are detected and accounted
  (Figure 24).

The simulator keeps a ground-truth ``LPA -> PPA`` map, ``_current_ppa``
(the role the page validity table plays in real firmware): an ``array('q')``
of one slot per logical page, ``-1`` where the LPA has no live page.  It is
simulator state, like LeaFTL's owner index: the program path reads it to
find the old copy to invalidate, and only the device indexes it.  Everything
else — a power failure's durability oracle, recovery checks, tests — reads
it as a dict through :meth:`SimulatedSSD.live_mappings`; never a host read,
which always goes through the FTL under test
(``tests/test_ssd_integration.py`` replays reads at gamma 4 over a map
whose every index raises).

Host commands are multi-page natively: a read spanning several pages is
translated in one :meth:`repro.ftl.base.FTL.translate_range` batch (one
learned segment answers a whole contiguous run in LeaFTL, one
translation-page fetch serves all its entries in DFTL/SFTL) and its flash
accesses are issued as per-channel chunks that proceed concurrently
through the NAND scheduler.  A chunk is one flash call
(:meth:`repro.flash.flash_array.FlashArray.read_chunk`): it senses the
chunk's predicted pages in order, checks each against its reverse mapping
in the page array and, for a misprediction only, calls back into the
device for the page to sense instead and the fix reads after it (the OOB
window read, else the error-window scan).  There is one read path: a
single-page read is a one-page command through the same code, so the
device only ever calls ``translate_range``.  There is one write path the
same way: a write of any length is one pass that hands the write buffer,
the data cache and the latency recorder a buffer-full of pages at a time,
and ``write()`` is its one-page command.

There is one way to replay: :meth:`SimulatedSSD.run` always runs the one
admission engine (:class:`repro.sim.frontend.Frontend`) on an event loop
(:mod:`repro.sim`), at whatever depth.  Depth 1 is the classic serial
replay, each request issued at the completion of its predecessor; higher
depths admit up to ``SSDOptions.queue_depth`` requests NCQ-style, so
foreground reads genuinely overlap the background flush/GC traffic earlier
writes triggered — the channel contention behind Figure 18's tails.  A
completion that is the loop's next event is taken where it was submitted
rather than dispatched, so a depth-1 replay under sync GC dispatches no
event (``stats.events_processed`` is 0) while the event observers — the
determinism digest, a crash timer, the tracer — still see every
completion.

Admission is a parameter of a replay, not of the device: ``run()`` takes
``replay_mode`` — **closed-loop** admission is completion-driven (a
finished request admits the next one), while **open-loop** admission fires
each request at its trace timestamp scaled by ``time_scale`` — the
WiscSee-style replay that measures latency under load against *arrival*
times instead of queue depth.

Internally every operation takes an explicit issue clock (``at_us``), so
the same read/write/flush/GC code serves replays and direct calls alike:
state changes apply in submission order while timing is resolved through
the per-channel NAND scheduler.

Above the device, the NVMe-style multi-queue host interface
(:mod:`repro.host`) carves the logical space into namespaces and drives
the event loop with its own submission queues and arbitration, through the
:meth:`SimulatedSSD.run_frontend` / :meth:`SimulatedSSD.finalize_replay`
hooks; ``SSDOptions.arbiter`` names the default arbitration policy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple, cast

from repro.config import DRAMBudget, SSDConfig
from repro.flash.allocator import BlockAllocator
from repro.flash.flash_array import FlashArray
from repro.flash.oob import validate_gamma_fits_oob
from repro.ftl.base import FTL
from repro.host.arbiter import ARBITERS
from repro.sim.events import Event, EventLoop
from repro.sim.frontend import (
    REPLAY_MODES,
    Frontend,
    HostFrontend,
    OpenLoopFrontend,
    check_queue_depth,
)
from repro.sim.nand import NANDScheduler
from repro.workloads.trace import ReplayItem
from repro.ssd.cache import LRUDataCache
from repro.ssd.gc import BackgroundGCController, GCPolicy, make_gc_policy
from repro.ssd.stats import SSDStats
from repro.ssd.write_buffer import WriteBuffer


class SimulationError(RuntimeError):
    """Raised when the simulated device reaches an inconsistent state."""


#: Valid values of :attr:`SSDOptions.gc_mode`.
GC_MODES = ("sync", "background")

#: ``_current_ppa`` slot of an LPA with no live page.
_UNMAPPED = -1

#: Which allocator write stream each program purpose lands in: host data is
#: hot, GC/wear-leveling migrations are cold (Section 3.6 stream separation).
STREAM_OF_PURPOSE = {"host": "hot", "gc": "cold", "wear": "cold"}


@dataclass
class SSDOptions:
    """Behavioural switches of the simulator (ablation knobs)."""

    #: Sort the write buffer by LPA before flushing (Section 3.3).
    sort_buffer_on_flush: bool = True
    #: Host requests kept outstanding during trace replay (NCQ style);
    #: clamped to the device's ``SSDConfig.ncq_depth``.
    queue_depth: int = 1
    #: Garbage-collection scheduling: ``"sync"`` reclaims blocking at
    #: flush time; ``"background"`` pipelines per-victim read/migrate/erase
    #: events through the event loop every replay runs on, overlapping host
    #: I/O; only flushes outside a replay (direct ``write()`` calls, the
    #: final drain) reclaim blocking.
    gc_mode: str = "sync"
    #: Default submission-queue arbitration policy used when this device is
    #: driven through the multi-queue host interface
    #: (:class:`repro.host.interface.HostInterface`): ``"fifo"``,
    #: ``"round_robin"``, ``"weighted_round_robin"`` or
    #: ``"strict_priority"``.  Single-queue replays ignore it.
    arbiter: str = "round_robin"
    #: Observability mode (:data:`repro.obs.session.TELEMETRY_MODES`):
    #: ``"off"`` (default, zero per-event cost beyond observer-is-None
    #: checks), ``"trace"``, ``"metrics"`` or ``"on"`` (both).  Collectors
    #: never perturb scheduling, so determinism digests are unchanged.
    telemetry: str = "off"


class SimulatedSSD:
    """A trace-driven SSD with a pluggable flash translation layer."""

    def __init__(
        self,
        config: SSDConfig,
        ftl: FTL,
        dram_budget: Optional[DRAMBudget] = None,
        options: Optional[SSDOptions] = None,
        gc_policy: str = "greedy",
    ) -> None:
        self.config = config
        self.ftl = ftl
        self.options = options or SSDOptions()
        self.dram_budget = dram_budget or DRAMBudget(dram_bytes=config.dram_size)
        check_queue_depth(self.options.queue_depth)
        if self.options.gc_mode not in GC_MODES:
            raise ValueError(f"gc_mode must be one of {GC_MODES}")
        if self.options.arbiter not in ARBITERS:
            raise ValueError(f"arbiter must be one of {ARBITERS}")

        #: The FTL's OOB reverse-mapping window (LeaFTL's gamma, else 0).
        self._oob_window = ftl.oob_window()
        validate_gamma_fits_oob(self._oob_window, config.oob_size)

        self.scheduler = NANDScheduler(config.channels, config.dies_per_channel)
        self.flash = FlashArray(config, scheduler=self.scheduler)
        #: Geometry constants of the per-page read path, resolved once.
        self._total_pages = config.physical_pages
        self._pages_per_channel = config.pages_per_channel
        self.allocator = BlockAllocator(self.flash)
        self.write_buffer = WriteBuffer(
            capacity_pages=config.write_buffer_pages,
            sort_on_flush=self.options.sort_buffer_on_flush,
        )
        self.cache = LRUDataCache(capacity_pages=self._cache_capacity_pages())
        self.gc_policy: GCPolicy = make_gc_policy(gc_policy)
        #: The one reclaim owner (threshold, urgent, wear, background).
        self.gc = BackgroundGCController(self, self.gc_policy)
        self.stats = SSDStats()

        #: Ground truth of the live flash page of every LPA (page validity).
        self._current_ppa = self._unmapped()
        self._now_us = 0.0
        self._prev_flush_finish_us = 0.0
        #: Channel the last metadata page occupied (see charge_metadata_pages).
        self._background_channel = 0
        self._measure_start_us = 0.0
        #: Event loop attached while a replay runs through one.
        self._loop: Optional[EventLoop] = None
        #: Per-event observer propagated to every replay's event loop
        #: (see :attr:`repro.sim.events.EventLoop.observer`).  The
        #: determinism harness (:mod:`repro.verify`) attaches its trace
        #: digest here so open-loop, closed-loop and multi-queue replays
        #: are all covered by one hook.
        self.event_observer: Optional[Callable[[Event], None]] = None
        #: Optional periodic mapping checkpointer
        #: (:class:`repro.ssd.recovery.MappingCheckpointer`); duck-typed to
        #: keep this module free of a circular import.  ``None`` (the
        #: default) costs a single predicate per flush and nothing else.
        self.checkpointer: Optional[Any] = None
        #: Telemetry session (:class:`repro.obs.session.Telemetry`);
        #: duck-typed because :meth:`submit` dereferences it under
        #: ``_wants_breakdowns``, not under an ``is not None`` test.
        #: ``None`` (telemetry off) keeps every hook at one predicate.
        self.telemetry: Optional[Any] = None
        #: Whether :meth:`submit` reports to the tracer; set by
        #: :meth:`run_frontend` for the replay's duration.
        self._wants_breakdowns = False
        #: Critical-path attribution of the host request currently inside
        #: :meth:`submit`: a component -> microseconds dict, or ``None``
        #: when breakdown capture is off (the telemetry session asks for it
        #: only while a tracer records spans).  Every accounting site below
        #: guards on ``is not None``, so the disabled path costs one
        #: predicate per site and allocates nothing.  The write path adds
        #: every page's share to it; the read path fills it once per command
        #: with the components of its slowest page (the critical path).
        self._attr: Optional[Dict[str, float]] = None
        if self.options.telemetry != "off":
            # Lazy import: a device with telemetry off loads no repro.obs
            # module.
            from repro.obs.session import attach_telemetry

            attach_telemetry(self, self.options.telemetry)

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    def _cache_capacity_pages(self) -> int:
        cache_bytes = self.dram_budget.cache_bytes(self.ftl.resident_bytes())
        return max(1, cache_bytes // self.config.page_size)

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def effective_queue_depth(self) -> int:
        """Replay concurrency: the requested depth, capped by the device NCQ."""
        return min(self.options.queue_depth, self.config.ncq_depth)

    @property
    def logical_pages(self) -> int:
        return self.config.logical_pages

    def _horizon_us(self) -> float:
        """Latest simulated time any resource is reserved to.

        The serial clock lags reservations made by the final flush/GC, so
        the simulated end time is the maximum of the clock and every
        channel's busy horizon.
        """
        busiest = max(
            (self.flash.channel_busy_until(c) for c in range(self.config.channels)),
            default=0.0,
        )
        return max(self._now_us, busiest)

    def _clock(self, at_us: Optional[float]) -> float:
        """Resolve an operation's issue time (``None`` = the serial clock)."""
        return self._now_us if at_us is None else at_us

    def _advance(self, finish_us: float) -> None:
        """Move the serial clock forward to the latest completion seen."""
        if finish_us > self._now_us:
            self._now_us = finish_us

    def quiesce(self) -> float:
        """Let all in-flight flash work finish (in simulated time).

        Advances the device clock to the busiest channel's horizon, so the
        next request starts on idle hardware.  Call between an aging /
        warm-up phase and a measured phase: otherwise the first measured
        requests queue behind the warm-up's final flush/GC reservations and
        the measured tail reflects the warm-up, not the workload.
        """
        self._advance(self._horizon_us())
        return self._now_us

    def begin_measurement(self) -> None:
        """Reset the statistics and anchor measured time at the present.

        Call after a warm-up phase: subsequent ``run()`` calls report
        ``stats.measured_time_us`` relative to this point, so throughput
        numbers exclude the warm-up makespan.
        """
        self.stats = SSDStats()
        self._measure_start_us = self._now_us

    def set_telemetry(self, session: Optional[Any]) -> None:
        """Attach (or, with ``None``, detach) the telemetry session."""
        self.telemetry = session

    def _unmapped(self) -> array[int]:
        """A ground-truth map in which no LPA has a live page."""
        return array("q", [_UNMAPPED]) * self.config.logical_pages

    def live_mappings(self) -> Dict[int, int]:
        """The live flash page of every mapped LPA: the ground truth as a dict."""
        return {lpa: ppa for lpa, ppa in enumerate(self._current_ppa) if ppa != _UNMAPPED}

    def _check_lpa(self, lpa: int) -> None:
        if not 0 <= lpa < self.config.logical_pages:
            raise ValueError(f"LPA {lpa} outside the device ({self.config.logical_pages} pages)")

    # ------------------------------------------------------------------ #
    # Metadata page traffic (translation pages, checkpoints)
    # ------------------------------------------------------------------ #
    def charge_metadata_pages(self, start_us: float, reads: int = 0, writes: int = 0) -> float:
        """Occupy flash for metadata pages issued at ``start_us``; returns the finish.

        Mapping metadata (DFTL/SFTL translation pages, checkpoint images)
        lives outside the data blocks, so each page only holds a channel for
        one read or program time: the next channel in rotation, reads first.
        """
        channels = self.config.channels
        channel = self._background_channel
        finish = start_us
        for count, latency in (
            (reads, self.config.read_latency_us),
            (writes, self.config.write_latency_us),
        ):
            for _ in range(count):
                channel = (channel + 1) % channels
                finish = max(finish, self.flash.occupy_channel(channel, start_us, latency))
        self._background_channel = channel
        return finish

    def _charge_translation(
        self, start_us: float, reads_before: int, writes_before: int, foreground: bool
    ) -> float:
        """Charge the translation-page I/O of the FTL call that just returned.

        ``reads_before`` / ``writes_before`` are the FTL's counters before
        that call, so the charge is exactly its delta.  Returns the I/O's
        completion for a foreground call (the read path, serial with the
        host request) and ``start_us`` otherwise: background charges only
        occupy a channel.
        """
        ftl_stats = self.ftl.stats
        reads = ftl_stats.translation_page_reads - reads_before
        writes = ftl_stats.translation_page_writes - writes_before
        if reads == 0 and writes == 0:
            return start_us
        self.stats.translation_page_reads += reads
        self.stats.translation_page_writes += writes
        finish = self.charge_metadata_pages(start_us, reads, writes)
        if self.telemetry is not None:
            self.telemetry.note_translation(start_us, finish, reads, writes, foreground)
        return finish if foreground else start_us

    # ------------------------------------------------------------------ #
    # Host write path
    # ------------------------------------------------------------------ #
    def write(self, lpa: int, at_us: Optional[float] = None) -> float:
        """Write one logical page; returns the request latency in microseconds.

        The one-page entry to the write path every command takes
        (:meth:`_write_command`).  ``at_us`` is the issue time of the
        request: event-loop replays pass it explicitly, ``None`` means the
        device's serial clock.
        """
        self._check_lpa(lpa)
        start = self._clock(at_us)
        return self._write_command(lpa, 1, start) - start

    def _write_command(self, lpa: int, npages: int, start: float) -> float:
        """Serve one write command of any length; returns its completion.

        Pages enter the DRAM write buffer (and the data cache) one
        DRAM latency after another.  The page that fills the buffer
        additionally waits for the previous flush to drain (double-buffering
        backpressure) and issues the next flush at its own completion; the
        command then carries on into the emptied buffer.  Each page's
        latency is recorded individually.
        """
        stats = self.stats
        buffer = self.write_buffer
        dram_latency = self.config.dram_latency_us
        attr = self._attr
        clock = start
        end = lpa + npages
        latencies: List[float] = []
        while lpa < end:
            taken = buffer.add_run(lpa, end)
            self.cache.insert_many(range(lpa, lpa + taken))
            lpa += taken
            # Counted before the flush below: it samples WAF so far.
            stats.host_write_pages += taken
            latencies += [dram_latency] * taken
            filled = buffer.is_full
            # Page after page: the clock is a running sum, not a product.
            for _ in range(taken - 1 if filled else taken):
                clock += dram_latency
            if attr is not None:
                for _ in range(taken):
                    attr["dram_us"] = attr.get("dram_us", 0.0) + dram_latency
            if filled:
                wait = max(0.0, self._prev_flush_finish_us - clock)
                if wait > 0.0 and attr is not None:
                    key = (
                        "gc_wait_us"
                        if self._prev_flush_finish_us <= self.gc.throttle_horizon_us
                        else "flush_wait_us"
                    )
                    attr[key] = attr.get(key, 0.0) + wait
                latencies[-1] = dram_latency + wait
                clock += latencies[-1]
                self._advance(clock)
                self._flush_buffer(at_us=clock)
        self._advance(clock)
        stats.write_latency.record_many(latencies)
        return clock

    def flush(self, at_us: Optional[float] = None) -> None:
        """Drain the write buffer (e.g. at the end of a trace replay)."""
        if len(self.write_buffer):
            self._flush_buffer(at_us=at_us)

    def _flush_buffer(self, at_us: Optional[float] = None) -> None:
        clock = self._clock(at_us)
        lpas = self.write_buffer.drain()
        if not lpas:
            return
        stats = self.stats
        stats.buffer_flushes += 1
        finish = self._program_batch(lpas, purpose="host", at_us=clock)
        self._prev_flush_finish_us = max(self._prev_flush_finish_us, finish)
        if self.checkpointer is not None:
            self.checkpointer.note_programs(len(lpas), clock)
        stats.peak_mapping_bytes = max(stats.peak_mapping_bytes, self.ftl.resident_bytes())
        self.cache.resize(self._cache_capacity_pages())
        self._prev_flush_finish_us = max(
            self._prev_flush_finish_us, self.gc.after_flush(clock)
        )
        if self.telemetry is not None:
            # The sampling heartbeat between events, and for flushes outside
            # any replay (direct writes, the final drain).
            self.telemetry.pump(clock)

    # ------------------------------------------------------------------ #
    # Programming batches (host flush, GC migration, wear leveling)
    # ------------------------------------------------------------------ #
    def _program_batch(
        self, lpas: Sequence[int], purpose: str, at_us: Optional[float] = None
    ) -> float:
        """Program ``lpas`` at the purpose's stream frontier, learn mappings.

        Writes are tagged by purpose: host data goes to the **hot** stream,
        GC/wear migrations to the **cold** stream — each stream fills its
        own open block to the end before taking a fresh one, so short-lived
        host pages never share a block with long-lived migrated pages.

        Returns the completion time of the last program operation.  The
        programs are *issued* at ``at_us``; their completion times come from
        the NAND scheduler, so they extend into the future and delay any
        foreground read that lands on the same channel meanwhile.
        """
        clock = self._clock(at_us)
        finish = clock
        stream = STREAM_OF_PURPOSE[purpose]
        index = 0
        while index < len(lpas):
            block, next_ppa, room = self.allocator.frontier(stream)
            chunk = lpas[index : index + room]
            index += len(chunk)
            finish = max(
                finish, self._program_chunk(block, next_ppa, chunk, purpose, clock)
            )
        return finish

    def _program_chunk(
        self, block: int, first_ppa: int, chunk: Sequence[int], purpose: str, at_us: float
    ) -> float:
        current_ppa = self._current_ppa
        lpas = list(chunk)
        mappings = list(zip(lpas, range(first_ppa, first_ppa + len(lpas))))
        old_ppas = [None if (ppa := current_ppa[lpa]) == _UNMAPPED else ppa for lpa in lpas]
        # One batched flash call programs the whole run: page-state updates,
        # OOB windows, old-copy invalidation and the per-page scheduler
        # timing chain all happen inside (bit-identical to per-page calls).
        finish = self.flash.program_run(first_ppa, lpas, old_ppas, self._oob_window, {}, at_us)
        for lpa, ppa in mappings:
            current_ppa[lpa] = ppa
        self._record_programs(purpose, len(mappings))
        self.allocator.seal_if_full(block)

        ftl = self.ftl
        reads, writes = ftl.stats.translation_page_reads, ftl.stats.translation_page_writes
        if purpose == "host":
            ftl.update_batch(mappings)
        else:  # a migration: every LPA it moved had a page
            ftl.migrate_batch(mappings, cast(List[int], old_ppas))
        self._charge_translation(at_us, reads, writes, foreground=False)
        return finish

    def _record_programs(self, purpose: str, pages: int) -> None:
        if purpose == "host":
            self.stats.data_page_writes += pages
        elif purpose == "gc":
            self.stats.gc_page_writes += pages
        elif purpose == "wear":
            self.stats.wl_page_moves += pages
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown program purpose {purpose!r}")

    # ------------------------------------------------------------------ #
    # Host read path
    # ------------------------------------------------------------------ #
    def read(self, lpa: int, at_us: Optional[float] = None) -> float:
        """Read one logical page; returns the request latency in microseconds.

        The one-page entry to the read path every command takes
        (:meth:`_read_command`).  ``at_us`` is the issue time of the
        request: event-loop replays pass it explicitly, ``None`` means the
        device's serial clock.
        """
        self._check_lpa(lpa)
        start = self._clock(at_us)
        return self._read_command(lpa, 1, start) - start

    def _misprediction_reads(self, lpa: int, ppa: int) -> Tuple[int, Sequence[int]]:
        """What a read of ``lpa`` predicted at ``ppa`` senses: a page, then its fixes.

        :meth:`FlashArray.read_chunk` asks only when ``ppa`` is not the
        live copy of ``lpa``.  A page answers for an LPA only while it is
        VALID: the LPA array and the OOB windows also name the superseded
        copies of an LPA until their block is erased, and the page-validity
        table tells them apart.  A prediction past the programmed region of
        a block (or, within gamma of the array's edges, past the array
        itself) senses the nearest programmed page of the error window
        instead, which needs no fix when it is the live copy.  Any other
        sensed page is a misprediction (Section 3.5): its OOB stores the
        reverse mappings of its ±gamma neighbourhood as they were when it
        was programmed, so the fix is normally exactly one more read — of
        the first page the window names for ``lpa`` that is live.  The OOB
        cannot resolve the LPA when the true page's entry is out of date:
        no LPA (``-1``) because that page was still FREE then, or a stale LPA
        because the window reaches into the adjacent block and that block
        has been erased and reprogrammed since.  The fix then scans the
        error window around the prediction page by page (the paper's
        baseline log(gamma) strategy) up to the live copy.
        """
        flash = self.flash
        total = self._total_pages
        sensed = ppa
        if not 0 <= ppa < total or flash.is_free(ppa):
            nearest = self._nearest_programmed_page(ppa)
            if nearest is None:
                self._fail_translation(lpa, ppa)
            sensed = nearest
            if flash.is_live_copy(sensed, lpa):
                return sensed, ()
        stats = self.stats
        stats.mispredictions += 1
        window = flash.oob_window_of(sensed)
        assert window is not None  # the sensed page is programmed
        for correct_ppa in self.ftl.resolve_misprediction(lpa, sensed, window):
            if 0 <= correct_ppa < total and flash.is_live_copy(correct_ppa, lpa):
                stats.misprediction_extra_reads += 1
                return sensed, (correct_ppa,)
        gamma = max(self._oob_window, 1)
        scan: List[int] = []
        for candidate in range(ppa - gamma, ppa + gamma + 1):
            if candidate == sensed or not 0 <= candidate < total or flash.is_free(candidate):
                continue
            scan.append(candidate)
            stats.misprediction_extra_reads += 1
            if flash.is_live_copy(candidate, lpa):
                return sensed, scan
        self._fail_translation(lpa, ppa)

    def _nearest_programmed_page(self, predicted_ppa: int) -> Optional[int]:
        """The programmed page of the ±gamma window closest to the prediction."""
        gamma = max(self._oob_window, 1)
        total = self._total_pages
        for distance in range(0, gamma + 1):
            for candidate in (predicted_ppa - distance, predicted_ppa + distance):
                if 0 <= candidate < total and not self.flash.is_free(candidate):
                    return candidate
        return None

    def _fail_translation(self, lpa: int, predicted_ppa: int) -> NoReturn:
        """The error window holds no copy of the LPA: a device bug, fail loudly."""
        raise SimulationError(
            f"unrecoverable misprediction for LPA {lpa}: predicted PPA {predicted_ppa}"
        )

    # ------------------------------------------------------------------ #
    # Power failure
    # ------------------------------------------------------------------ #
    def power_fail(self, at_us: Optional[float] = None) -> Dict[int, int]:
        """Simulate a sudden power loss: every DRAM structure is destroyed.

        What dies: the write buffer (its unflushed pages were never durable
        — counted in ``stats.buffered_pages_lost``), the data cache, the
        FTL's in-DRAM mapping state (the FTL object survives as a Python
        object but its tables are garbage until recovery rebuilds them),
        the background-GC pipeline and the ground-truth validity map.  What
        survives is exactly the flash substrate: page states, per-page LPA
        back-references, stored OOB areas and erase counters.

        Returns the durability **oracle**: the last-acked flash location of
        every LPA at the instant of the crash.  Programs apply their state
        atomically at issue, so flash is never torn — the oracle is simply
        :meth:`live_mappings` of the validity map, and the differential
        recovery tests assert every oracle LPA reads back after recovery.

        Between ``power_fail()`` and :func:`repro.ssd.recovery.recover` the
        device must not serve host I/O (behaviour is undefined, exactly as
        on real hardware).
        """
        clock = self._clock(at_us)
        self._advance(clock)
        oracle = self.live_mappings()
        self.stats.power_failures += 1
        self.stats.buffered_pages_lost += self.write_buffer.discard()
        self.cache.clear()
        self._current_ppa = self._unmapped()
        self.gc.reset_pipeline()
        self._loop = None
        if self.checkpointer is not None:
            self.checkpointer.on_power_fail()
        return oracle

    def finish_recovery(self, ready_us: float) -> int:
        """Re-derive the DRAM state beside the mapping table after a crash.

        The last step of :func:`repro.ssd.recovery.recover`, once the FTL
        holds its rebuilt table: the validity map and the allocator come
        back from flash (firmware metadata in the model, so no charged
        reads), the cache gets whatever DRAM the table leaves free, and the
        device serves nothing before its recovery I/O completes at
        ``ready_us``.  Returns the number of live LPAs.
        """
        flash = self.flash
        rebuilt = self._unmapped()
        for block in range(flash.geometry.total_blocks):
            for ppa in flash.valid_ppas_of_block(block):
                lpa = flash.lpa_of(ppa)
                assert lpa is not None
                rebuilt[lpa] = ppa
        self._current_ppa = rebuilt
        self.allocator.rebuild_from_flash()
        self.cache.resize(self._cache_capacity_pages())
        self._advance(ready_us)
        self._prev_flush_finish_us = max(self._prev_flush_finish_us, ready_us)
        return len(rebuilt) - rebuilt.count(_UNMAPPED)

    # ------------------------------------------------------------------ #
    # Trace replay
    # ------------------------------------------------------------------ #
    def submit(
        self, op: str, lpa: int, npages: int = 1, at_us: Optional[float] = None
    ) -> float:
        """Issue one host request at ``at_us``; returns its completion time.

        Every read, whatever its length, is one command through
        :meth:`_read_command`: its flash-resident pages are translated one
        :meth:`FTL.translate_range` batch per contiguous run and sensed
        concurrently, split into per-channel chunks that the NAND scheduler
        arbitrates — so a run striped over k channels completes in roughly
        one read time, not k.  Every write is one command through
        :meth:`_write_command`: the DRAM write buffer, not the NAND path,
        absorbs its pages, a buffer-full at a time.

        Pages running past the end of the logical space are clipped and
        counted in ``stats.clipped_pages``.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        if op not in ("R", "W"):
            raise ValueError(f"unknown operation {op!r}")
        if lpa < 0:
            raise ValueError(f"LPA {lpa} must be non-negative")
        clock = self._clock(at_us)
        end = lpa + npages
        logical_pages = self.config.logical_pages
        if end > logical_pages:
            end = logical_pages
            self.stats.clipped_pages += lpa + npages - (end if end > lpa else lpa)
            if end <= lpa:
                if self._wants_breakdowns:
                    self.telemetry.note_request_breakdown({}, clock, clock)
                return clock
        attr: Optional[Dict[str, float]] = None
        if self._wants_breakdowns:
            attr = {}
            self._attr = attr
        try:
            if op == "W":
                finish = self._write_command(lpa, end - lpa, clock)
            else:
                finish = self._read_command(lpa, end - lpa, clock)
        finally:
            self._attr = None
        if attr is not None:
            self.telemetry.note_request_breakdown(attr, clock, finish)
        return finish

    def _read_command(self, lpa: int, npages: int, start: float) -> float:
        """Serve one read command of any length; returns its completion.

        Pages resident in DRAM (write buffer or data cache) complete at
        DRAM latency.  The remaining pages form contiguous runs, each
        translated with a single :meth:`FTL.translate_range` call, then
        issued to flash grouped by channel: chunks on different channels
        proceed concurrently while pages of the same chunk queue on their
        channel bus — the striping the NAND scheduler arbitrates.  Each
        page's latency (its completion minus the command's issue time) is
        recorded individually; the command completes when its slowest page
        does, so that page's components *are* the request's critical path.
        """
        stats = self.stats
        stats.host_read_pages += npages
        attr = self._attr
        dram_latency = self.config.dram_latency_us
        finish = start
        critical: Optional[Dict[str, float]] = None
        runs: List[range] = []
        run_start = lpa
        end = lpa + npages
        for page in range(lpa, end):
            if page in self.write_buffer:
                stats.buffer_hits += 1
            elif self.cache.lookup(page):
                stats.cache_hits += 1
            else:
                continue
            # A DRAM-resident page ends the flash run before it.
            if page > run_start:
                runs.append(range(run_start, page))
            run_start = page + 1
        if end > run_start:
            runs.append(range(run_start, end))
        dram_pages = npages - sum(map(len, runs))
        if dram_pages:
            # DRAM pages all complete together, ahead of any flash page.
            stats.read_latency.record_many([dram_latency] * dram_pages)
            finish = start + dram_latency
            if attr is not None:
                critical = {"dram_us": dram_latency}
        for run in runs:
            done, run_critical = self._read_run_from_flash(run, start, attr is not None)
            if done >= finish:
                finish = done
                critical = run_critical
        if attr is not None and critical is not None:
            attr.update(critical)
        self._advance(finish)
        return finish

    def _read_run_from_flash(
        self, pages: Sequence[int], start: float, want_attr: bool
    ) -> Tuple[float, Optional[Dict[str, float]]]:
        """Translate one contiguous run in a batch and sense it by channel chunk.

        Returns the completion time of the slowest page and, when
        ``want_attr``, that page's latency components.  Foreground
        translation flash traffic (DFTL/SFTL page fetches) is serial with
        the run — every data read issues after it completes — so the
        slowest page inherits it.  Each chunk is one
        :meth:`FlashArray.read_chunk` call, which asks
        :meth:`_misprediction_reads` for a page's fix only when the
        predicted page does not hold its LPA.  A page's stall is the time
        its sense queued behind earlier operations on its channel bus —
        buffer flushes, GC migrations, other outstanding requests — the
        direct measure of background traffic delaying foreground reads.
        """
        ftl_stats = self.ftl.stats
        reads, writes = ftl_stats.translation_page_reads, ftl_stats.translation_page_writes
        predicted = self.ftl.translate_range(pages[0], len(pages))
        clock = self._charge_translation(start, reads, writes, foreground=True)
        translate_us = clock - start if clock > start else 0.0
        stats = self.stats
        finish = start
        critical: Optional[Dict[str, float]] = None
        # Per-page latencies in the order they are accounted, and the pages
        # sensed from flash in that order: handed to the recorder and the
        # cache as one batch each when the run is done.
        latencies: List[float] = []
        sensed: List[int] = []
        # Channel -> the chunk's LPAs and predicted PPAs.  Predictions of
        # approximate segments can overshoot the physical space by up to
        # gamma pages: clamped here for the grouping only.
        chunks: Dict[int, Tuple[List[int], List[int]]] = {}
        last_ppa = self._total_pages - 1
        pages_per_channel = self._pages_per_channel
        for page, ppa in zip(pages, predicted):
            if ppa is None:
                # Unwritten space: served as zeroes from the controller,
                # every such page of the run at the same time.
                stats.unmapped_reads += 1
                latency = translate_us + self.config.dram_latency_us
                latencies.append(latency)
                finish = start + latency
                if want_attr:
                    critical = {"dram_us": self.config.dram_latency_us}
                continue
            channel = (0 if ppa < 0 else ppa if ppa < last_ppa else last_ppa) // pages_per_channel
            chunk = chunks.get(channel)
            if chunk is None:
                chunks[channel] = chunk = ([], [])
            chunk[0].append(page)
            chunk[1].append(ppa)
        read_latency = self.config.read_latency_us
        for channel in sorted(chunks):
            lpas, ppas = chunks[channel]
            senses, finishes = self.flash.read_chunk(lpas, ppas, clock, self._misprediction_reads)
            sensed += lpas
            for sense, page_finish in zip(senses, finishes):
                stall = sense - clock - read_latency
                if stall > 0.0:
                    stats.read_stall_us += stall
                latencies.append(page_finish - start)
                if page_finish >= finish:
                    finish = page_finish
                    if want_attr:
                        critical = {}
                        nand_us = sense - clock
                        if stall > 0.0:
                            # Stalls while the GC pipeline is mid-victim are
                            # GC interference; otherwise the read queued
                            # behind ordinary channel traffic.
                            critical["gc_wait_us" if self.gc.active else "chan_wait_us"] = stall
                            nand_us -= stall
                        critical["nand_us"] = nand_us
                        if page_finish > sense:
                            critical["extra_read_us"] = page_finish - sense
        stats.flash_reads_for_host += len(sensed)
        self.cache.insert_many(sensed)
        stats.read_latency.record_many(latencies)
        if critical is not None and translate_us > 0.0:
            critical["translate_us"] = translate_us
        return finish, critical

    def run(
        self,
        requests: Iterable[ReplayItem],
        drain: bool = True,
        queue_depth: Optional[int] = None,
        replay_mode: str = "closed",
        time_scale: float = 1.0,
    ) -> SSDStats:
        """Replay an iterable of host requests.

        ``requests`` may yield :class:`repro.workloads.trace.IORequest`
        objects (a :class:`~repro.workloads.trace.Trace` iterates those
        directly) or bare ``(op, lpa, npages)`` tuples; tuples carry no
        timestamps, so open-loop replay of a tuple stream degenerates to
        simultaneous arrival.

        ``replay_mode`` is ``"closed"`` (keep up to ``queue_depth`` requests
        outstanding, completion-driven; the depth defaults to
        ``SSDOptions.queue_depth``) or ``"open"`` (admit each request at its
        trace timestamp regardless of completions, so latency under load is
        measured against arrival times); ``time_scale`` multiplies open-loop
        inter-arrival times (``0.5`` doubles the arrival rate).  Every
        replay runs on a fresh event loop through :meth:`run_frontend`.
        """
        if replay_mode not in REPLAY_MODES:
            raise ValueError(f"replay_mode must be one of {REPLAY_MODES}")
        depth = self.effective_queue_depth if queue_depth is None else min(
            check_queue_depth(queue_depth), self.config.ncq_depth
        )
        loop = EventLoop(start_us=self._now_us)
        frontend = (
            OpenLoopFrontend(self, loop, time_scale)
            if replay_mode == "open"
            else HostFrontend(self, loop, depth)
        )
        self.run_frontend(frontend, loop, requests)
        return self.finalize_replay(drain=drain)

    def run_frontend(self, frontend: Frontend, loop: EventLoop, traffic: Any) -> None:
        """Replay ``traffic`` through the event loop with the given frontend.

        ``frontend`` is an admission policy of the one engine
        (:class:`repro.sim.frontend.Frontend`) and ``traffic`` whatever its
        ``run`` replays: a request iterable for the single-queue policies,
        the submission queues for the multi-queue host interface
        (:mod:`repro.host`), which drives the device through this hook.
        Callers are expected to follow up with :meth:`finalize_replay`.
        """
        self._loop = loop
        # Chain rather than install-if-empty: a caller-installed observer
        # (say a CrashTimer on the loop) and the device's own observers
        # must all see every event.  chain_observer runs the existing
        # observer first, so the digest/crash ordering of repro.verify is
        # preserved and telemetry observes last.
        if self.event_observer is not None and loop.observer is not self.event_observer:
            loop.chain_observer(self.event_observer)
        if self.telemetry is not None:
            loop.chain_observer(self.telemetry.observe)
            self._wants_breakdowns = self.telemetry.wants_breakdowns
            self.telemetry.pump(loop.now_us)  # the first submits precede any event
        try:
            frontend.run(traffic)
        finally:
            self._loop = None
            self._wants_breakdowns = False
        self.stats.events_processed += loop.events_processed
        self.stats.requests_submitted += frontend.stats.submitted
        self.stats.requests_completed += frontend.stats.completed
        if frontend.stats.max_outstanding > self.stats.max_outstanding_requests:
            self.stats.max_outstanding_requests = frontend.stats.max_outstanding
        self._advance(loop.now_us)

    def finalize_replay(self, drain: bool = True) -> SSDStats:
        """End-of-replay bookkeeping: optional drain flush + time accounting."""
        if drain:
            self.flush()
        self.stats.simulated_time_us = self._horizon_us()
        self.stats.measured_time_us = max(
            0.0, self.stats.simulated_time_us - self._measure_start_us
        )
        if self.telemetry is not None:
            self.telemetry.finalize(self.stats.simulated_time_us)
        return self.stats
