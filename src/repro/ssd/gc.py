"""Reclaim: garbage collection and static wear leveling, which and when.

LeaFTL preserves the conventional reclaim of modern SSDs (Section 3.6 of the
paper): when the free-block ratio drops below a threshold, victim blocks are
selected, their valid pages migrated to freshly allocated blocks and the
victims erased; static wear leveling migrates cold data the same way.  The
migrated mappings are relearned like a buffer flush, except what moved as a
whole learned segment: LeaFTL carries that segment forward re-based to its
new pages (see :meth:`BackgroundGCController._migrate`).  This module owns
all of it.  The victim *policies* choose which blocks to collect, and nothing
else.  :class:`BackgroundGCController` decides when reclaim runs and how:
its thresholds come once from :class:`repro.config.SSDConfig`, it keeps the
wear-leveling throttle window and the write-throttle horizon, and it is the
only code in the tree that reads, migrates and erases a victim.  The device
model (:class:`repro.ssd.ssd.SimulatedSSD`) just calls
:meth:`BackgroundGCController.after_flush` from its flush hook and supplies
the cold-stream program path that relearns the migrated mappings.

Victim policies (all behind the :class:`GCPolicy` interface):

``greedy``
    Fewest-valid-pages-first — minimises migration traffic *now*.  The
    classic default; tends to thrash on skewed workloads because recently
    written (hot) blocks with momentarily few valid pages get collected just
    before their remaining pages are overwritten anyway.
``cost_benefit``
    The LFS cost-benefit score ``age * (1 - u) / (1 + u)`` where ``u`` is
    the block's valid-page ratio and ``age`` counts array-wide operations
    since the block last changed: old, mostly-invalid blocks are collected
    first, while hot blocks are given time to accumulate more invalid pages.
``d_choices``
    Samples ``d`` random candidates and takes the one with the fewest valid
    pages — the "power of d choices" approximation of greedy that real
    controllers use when scanning every block's metadata per invocation is
    too expensive.  Deterministically seeded.

Every policy skips victims with **no reclaimable space**: migrating a fully
valid block consumes exactly as many pages as erasing it frees, so such an
invocation would burn migration bandwidth for zero net gain.  Only below the
*hard watermark* — free blocks critically low — are fully-valid victims
allowed (the device must make forward progress even if only wear-moving).

The mechanism is three stages written once — *read* a victim's valid
pages, *migrate* the still-valid LPAs (sorted, relearned like a buffer
flush or carried) into the cold stream, *erase* the drained victim and
return it to the free pool — and four drivers that differ only in when the
stages run:

* **threshold reclaim** (below ``SSDConfig.gc_threshold``, until
  ``gc_restore``), **wear-leveling passes** (the coldest block, once the
  erase-count spread exceeds :data:`WEAR_IMBALANCE`, checked at most once
  every :data:`WEAR_CHECK_ERASES` erases) and **urgent reclaim** (below
  the hard watermark: ``min(0.04, gc_threshold / 2)``, and at least one
  host flush plus two blocks) run the stages back to back at one issue
  clock over a batch of victims bounded by the free pool
  (:meth:`BackgroundGCController.collect`), blocking the flush that
  triggered them; urgent reclaim also holds back the host's next
  buffer-filling write until it completes;
* **background GC** runs the same stages one victim at a time, each stage
  an event issued at the previous stage's completion.  Foreground requests
  that arrive between stages reserve the NAND channels first, so a read
  waits for at most one in-flight stage instead of a whole multi-victim
  reclaim burst — this is what flattens the GC-interference tail latencies.
"""

from __future__ import annotations

import abc
import math
import random
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.flash.allocator import BlockAllocator
from repro.flash.flash_array import FlashArray, FlashError
from repro.sim.events import PRIORITY_GC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.events import Event
    from repro.ssd.ssd import SimulatedSSD

#: Victim-policy names accepted by :func:`make_gc_policy`.
GC_POLICIES = ("greedy", "cost_benefit", "d_choices")

#: Victims one policy call returns at most (keeps blocking pauses short).
MAX_VICTIMS_PER_INVOCATION = 64
#: A wear-leveling pass runs once the spread between the most and the least
#: erased block exceeds this many erases.
WEAR_IMBALANCE = 8
#: Block erases between two wear checks (the throttle window).
WEAR_CHECK_ERASES = 64


class GCPolicy(abc.ABC):
    """Victim-selection policy: decides *which* blocks, never when or how."""

    def eligible_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        """Candidates that would reclaim space if collected.

        Fully-valid blocks are zero-progress victims — migrating them
        consumes exactly the pages their erase frees — so they are excluded
        unless the device is below the hard watermark (``urgent``) *and* no
        better candidate exists.
        """
        candidates = allocator.gc_candidates()
        pages_per_block = flash.geometry.pages_per_block
        reclaimable = [
            block
            for block in candidates
            if flash.valid_page_count(block) < pages_per_block
        ]
        if reclaimable or not urgent:
            return reclaimable
        return candidates

    @abc.abstractmethod
    def select_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        """Victim blocks for one invocation, best candidates first."""


class GreedyGCPolicy(GCPolicy):
    """Greedy (min-valid-pages-first) victim selection."""

    def select_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        """Candidate blocks ordered by ascending valid-page count.

        Blocks with zero valid pages come first (they can be erased without
        any migration); the list is truncated to the per-invocation limit.
        """
        candidates = self.eligible_victims(flash, allocator, urgent)
        ordered = flash.blocks_by_valid_pages(candidates)
        return ordered[:MAX_VICTIMS_PER_INVOCATION]


class CostBenefitGCPolicy(GCPolicy):
    """LFS cost-benefit victim selection (Rosenblum & Ousterhout).

    Scores each candidate as ``age * (1 - u) / (1 + u)`` — the space freed
    per unit migration cost, weighted by how long the block has been stable.
    Old, mostly-invalid blocks win; hot blocks that are still accumulating
    invalidations are deferred until collecting them is cheaper.
    """

    def select_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        candidates = self.eligible_victims(flash, allocator, urgent)
        pages_per_block = flash.geometry.pages_per_block

        def score(block: int) -> float:
            utilization = flash.valid_page_count(block) / pages_per_block
            return flash.block_age(block) * (1.0 - utilization) / (1.0 + utilization)

        ordered = sorted(candidates, key=lambda block: (-score(block), block))
        return ordered[:MAX_VICTIMS_PER_INVOCATION]


class DChoicesGCPolicy(GCPolicy):
    """Sampled greedy: each victim is the best of ``d`` random candidates.

    Approximates greedy selection without scanning every block's metadata —
    the classic "power of d choices" trade-off.  The sampling RNG is seeded,
    so replays remain deterministic.
    """

    def __init__(self, d: int = 8, seed: int = 17) -> None:
        if d <= 0:
            raise ValueError("d must be positive")
        self.d = d
        self._rng = random.Random(seed)

    def select_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        pool = self.eligible_victims(flash, allocator, urgent)
        victims: List[int] = []
        limit = min(MAX_VICTIMS_PER_INVOCATION, len(pool))
        while pool and len(victims) < limit:
            sample = self._rng.sample(pool, min(self.d, len(pool)))
            best = min(sample, key=lambda b: (flash.valid_page_count(b), b))
            victims.append(best)
            pool.remove(best)
        return victims


def make_gc_policy(name: str) -> GCPolicy:
    """Instantiate a victim policy by name (see :data:`GC_POLICIES`)."""
    if name == "greedy":
        return GreedyGCPolicy()
    if name == "cost_benefit":
        return CostBenefitGCPolicy()
    if name == "d_choices":
        return DChoicesGCPolicy()
    raise ValueError(f"unknown GC policy {name!r}; known: {GC_POLICIES}")


class BackgroundGCController:
    """The device's one reclaim owner: when reclaim runs, and how.

    (It covers blocking reclaim too; the name is the one the perf ledger
    imports.)  The device calls :meth:`after_flush` once per buffer flush;
    every trigger is decided here — the GC thresholds and the hard
    watermark (from :class:`repro.config.SSDConfig`), the wear-leveling
    throttle window and the write-throttle horizon.  Blocking reclaim —
    threshold and urgent reclaim, wear-leveling passes, all through
    :meth:`collect` — runs the three stages back to back inside the flush
    that triggered it.  The event pipeline keeps one victim in flight,
    staged through events:

    1. **read** — the victim's valid pages are read (reserving their channel
       through the NAND scheduler at the event's timestamp);
    2. **program** — at the reads' completion, the still-valid LPAs are
       re-scanned (host overwrites racing the migration are skipped) and
       programmed into the cold write stream;
    3. **erase** — at the programs' completion the victim is erased and
       returned to the free pool, and the next pipeline step is scheduled.

    Because each stage only reserves NAND time when its event fires,
    foreground requests issued between stages take their place in the
    channel FCFS order ahead of the *next* GC stage — the yielding that
    bounds GC interference to roughly one stage instead of a whole
    multi-victim reclaim burst.  The pipeline stops once the restore
    watermark is reached (or no eligible victim remains).
    """

    def __init__(self, device: "SimulatedSSD", policy: GCPolicy) -> None:
        self._device = device
        #: Which victims; the controller never asks it anything else.
        self.policy = policy
        config = device.config
        self._threshold = config.gc_threshold
        self._restore = config.gc_restore
        # Never below one host flush plus two blocks — the pipeline's
        # in-flight migration and urgent reclaim's own destination — so on
        # a small device the host cannot take the last block reclaim needs.
        flush_blocks = math.ceil(config.write_buffer_pages / config.pages_per_block)
        self._hard_watermark = max(
            min(0.04, config.gc_threshold / 2.0),
            (flush_blocks + 2) / config.total_blocks,
        )
        #: Block erases counted when the last wear-leveling pass ran.
        self._wear_window_start = 0
        #: Completion horizon of the last urgent reclaim; write backpressure
        #: up to this horizon is GC throttling, beyond it plain flush-drain
        #: wait.
        self.throttle_horizon_us = 0.0
        self.reset_pipeline()

    def reset_pipeline(self) -> None:
        """Forget the event pipeline (a power failure kills its events).

        The wear window and the throttle horizon are device history and
        survive.
        """
        self._active = False
        self._pending: List[int] = []
        self._in_flight: Optional[int] = None

    # ------------------------------------------------------------------ #
    # When: the watermarks, read off the free pool
    # ------------------------------------------------------------------ #
    def should_collect(self) -> bool:
        """True when the free-block ratio fell below the GC threshold."""
        return self._device.allocator.free_ratio() < self._threshold

    def should_stop(self) -> bool:
        """True when enough free blocks have been reclaimed."""
        return self._device.allocator.free_ratio() >= self._restore

    def below_hard_watermark(self) -> bool:
        """True when free blocks are critically low (urgent reclaim regime).

        The watermark is ``min(0.04, gc_threshold / 2)`` of the blocks, or
        one host flush plus two blocks when that is more.  Below it host
        writes are throttled behind an urgent blocking reclaim, and victim
        selection may fall back to fully valid blocks.
        """
        return self._device.allocator.free_ratio() < self._hard_watermark

    @property
    def active(self) -> bool:
        """True while the pipeline has events in flight.

        Blocking reclaim starts and finishes inside one flush, so nothing
        can observe it mid-batch; the pipeline is the only reclaim a host
        read can overlap.
        """
        return self._active

    @property
    def in_flight(self) -> Optional[int]:
        """The victim block currently mid-pipeline, if any."""
        return self._in_flight

    @property
    def backlog(self) -> int:
        """Victim blocks selected but not yet erased (queued + in flight)."""
        return len(self._pending) + (1 if self._in_flight is not None else 0)

    # ------------------------------------------------------------------ #
    # The three stages
    # ------------------------------------------------------------------ #
    def _read(self, block: int, purpose: str, clock: float) -> float:
        """Stage 1: read the victim's valid pages; returns the last finish."""
        device = self._device
        ppas = device.flash.valid_ppas_of_block(block)
        if purpose == "gc":
            device.stats.gc_victim_blocks += 1
        device.stats.gc_page_reads += len(ppas)
        return device.flash.read_page_run(ppas, now_us=clock)

    def _migrate(self, blocks: Sequence[int], purpose: str, clock: float) -> float:
        """Stage 2: program the still-valid LPAs into the cold stream.

        Validity is re-scanned here, not remembered from the read stage:
        pages the host overwrote in between are stale and must not be
        migrated (their read was wasted bandwidth, exactly as in a real
        controller).  Section 3.6: migrated pages are sorted by LPA and
        relearned like a regular buffer flush.  The device hands each chunk
        to ``FTL.migrate_batch`` with the pages it left, and LeaFTL carries
        a candidate segment made of whole owners (every LPA of each moved
        here by one PPA shift) instead of fitting it: re-based in place and
        re-verified, it meets the bound a relearned segment must (exact,
        or within γ), so lookups still get §3.6's answers.  What it does
        fit first drops each segment the fit leaves owning no LPA, which
        would otherwise wait below level 0 for a compaction.  Which pages
        move, and where, is the same either way.
        """
        flash = self._device.flash
        lpas: List[int] = []
        for block in blocks:
            for ppa in flash.valid_ppas_of_block(block):
                lpa = flash.lpa_of(ppa)
                if lpa is None:  # pragma: no cover - defensive
                    raise FlashError(f"valid page {ppa} without reverse mapping")
                lpas.append(lpa)
        if not lpas:
            return clock
        return self._device._program_batch(sorted(lpas), purpose=purpose, at_us=clock)

    def _erase(self, block: int, purpose: str, clock: float) -> float:
        """Stage 3: erase the drained victim; returns the erase's completion.

        :meth:`_migrate` reprogrammed every valid page and no program lands
        in a victim (neither active nor free), so the victim holds none;
        ``FlashArray.erase_block`` raises if one does.
        """
        device = self._device
        finish = device.flash.erase_block(block, now_us=clock)
        if purpose == "gc":
            device.stats.gc_block_erases += 1
        device.allocator.release_block(block)
        return finish

    # ------------------------------------------------------------------ #
    # Blocking drivers: the stages back to back at one issue clock
    # ------------------------------------------------------------------ #
    def _free_pages(self) -> int:
        """Pages a migration can program now: the free pool plus the room
        left in the cold stream's open block."""
        device = self._device
        flash, allocator = device.flash, device.allocator
        pages_per_block = flash.geometry.pages_per_block
        cold = allocator.stream_block("cold")
        room = 0 if cold is None else pages_per_block - flash.write_pointer(cold)
        return allocator.free_block_count() * pages_per_block + room

    def _bounded(self, victims: Sequence[int]) -> List[int]:
        """Prefix of ``victims`` whose migration fits the current free pool.

        A migration batch consumes free blocks *before* the victims' erases
        release any, so an unbounded batch can exhaust the pool mid-flight
        on a small or nearly-full device.  Zero-valid victims cost nothing;
        the first space-consuming victim is always kept so reclaim can make
        progress even when the pool is down to its last blocks.
        """
        flash = self._device.flash
        free_blocks = self._device.allocator.free_block_count()
        room = max(0, free_blocks - 1) * flash.geometry.pages_per_block
        chosen: List[int] = []
        migrating = False
        pending = 0
        for block in victims:
            valid = flash.valid_page_count(block)
            pending += valid
            if migrating and pending > room:
                break
            chosen.append(block)
            migrating = migrating or valid > 0
        return chosen

    def collect(self, victims: Sequence[int], purpose: str, clock: float) -> float:
        """Migrate and erase a bounded batch of victims; returns completion.

        Valid pages of all victims are packed into shared destination
        blocks (one migration batch), which is what lets GC reclaim space
        even when every victim still holds some valid data.  ``purpose``
        is ``"gc"`` or ``"wear"`` (which counters the work lands in).
        """
        blocks = self._bounded(victims)
        for block in blocks:
            self._read(block, purpose, clock)
        finish = self._migrate(blocks, purpose, clock)
        for block in blocks:
            finish = max(finish, self._erase(block, purpose, clock))
        return finish

    def after_flush(self, clock: float) -> float:
        """Run the reclaim a buffer flush at ``clock`` calls for.

        In order: threshold reclaim, a wear-leveling pass, urgent reclaim.
        Returns the urgent reclaim's completion (``clock`` when none ran):
        the device's next buffer-filling write waits for it through the
        double-buffering backpressure, which is how real controllers
        throttle hosts.
        """
        self._reclaim_threshold(clock)
        self._level_wear(clock)
        return self._reclaim_urgent(clock)

    def _reclaim_threshold(self, clock: float) -> None:
        """Threshold reclaim, checked after every buffer flush.

        Under ``gc_mode="background"`` with an event loop attached the work
        is handed to the pipeline; otherwise (sync mode, or no loop: direct
        ``write()`` calls and the final drain flush) victims are collected
        here until the restore watermark, blocking the flush.
        """
        device = self._device
        allocator = device.allocator
        if device.options.gc_mode == "background" and device._loop is not None:
            self._start_pipeline(clock)
            return
        if self._active or not self.should_collect():
            return
        device.stats.gc_invocations += 1
        while not self.should_stop():
            free_before = allocator.free_block_count()
            victims = self.policy.select_victims(
                device.flash, allocator, urgent=self.below_hard_watermark()
            )
            if not victims:
                break
            self.collect(victims, "gc", clock)
            if allocator.free_block_count() <= free_before:
                # No net space reclaimed (victims were fully valid):
                # stop rather than amplify writes indefinitely.
                break

    def _level_wear(self, clock: float) -> None:
        """Static wear leveling: move the coldest block's data (Section 3.6).

        Checked at most once every :data:`WEAR_CHECK_ERASES` block erases.
        A check that finds the erase-count spread within
        :data:`WEAR_IMBALANCE` leaves the window open, so the next flush
        asks again; only a pass restarts it.  The pass migrates one block:
        the least erased one holding valid data (most valid pages first),
        whose data is long-lived, so the block itself rejoins the pool for
        hot data.  While the pipeline is mid-run its victim must not be
        stolen, so wear evens out on the next quiet check instead.
        """
        flash = self._device.flash
        erases = flash.counters.block_erases
        if self._active or erases - self._wear_window_start < WEAR_CHECK_ERASES:
            return
        counts = flash.erase_counts()
        if max(counts) - min(counts) <= WEAR_IMBALANCE:
            return
        self._wear_window_start = erases
        cold = [
            block
            for block in self._device.allocator.gc_candidates()
            if flash.valid_page_count(block) > 0
        ]
        if cold:
            coldest = min(
                cold, key=lambda b: (flash.erase_count(b), -flash.valid_page_count(b))
            )
            self.collect([coldest], "wear", clock)

    def _reclaim_urgent(self, clock: float) -> float:
        """Hard watermark: reclaim until it clears; returns the completion.

        Runs whatever the GC mode (background GC lagging a write burst is
        the usual cause): batches of at most four victims, each issued at
        the previous batch's completion, never touching the pipeline's
        in-flight victim.  It stops early only when a batch frees no page:
        progress is counted in pages (:meth:`_free_pages`), because a batch
        whose migration opened a fresh cold block frees no *block* net, yet
        leaves that block's room for the next batch.  The stall is charged
        to host writes.  Returns ``clock`` when there was nothing to do.
        """
        if not self.below_hard_watermark():
            return clock
        device = self._device
        allocator = device.allocator
        device.stats.gc_urgent_collections += 1
        finish = clock
        while self.below_hard_watermark():
            free_before = self._free_pages()
            victims = [
                block
                for block in self.policy.select_victims(device.flash, allocator, urgent=True)
                if block != self._in_flight
            ][:4]
            if not victims:
                break
            finish = max(finish, self.collect(victims, "gc", finish))
            if self._free_pages() <= free_before:
                break
        if finish > clock:
            device.stats.gc_write_throttle_us += finish - clock
            self.throttle_horizon_us = max(self.throttle_horizon_us, finish)
        return finish

    # ------------------------------------------------------------------ #
    # Event pipeline: the same stages, one victim at a time
    # ------------------------------------------------------------------ #
    def _start_pipeline(self, at_us: float) -> None:
        """Kick off a background run if one is due and none is running."""
        device = self._device
        if self._active or not self.should_collect():
            return
        self._active = True
        device.stats.gc_invocations += 1
        device.stats.gc_background_runs += 1
        self._schedule(at_us, "gc_step", self._select_step)

    def _schedule(
        self,
        at_us: float,
        kind: str,
        stage: Callable[["Event"], None],
        block: Optional[int] = None,
    ) -> None:
        loop = self._device._loop
        assert loop is not None, "GC pipeline events only fire inside a replay"
        loop.schedule(at_us, kind, stage, payload=block, priority=PRIORITY_GC)

    def _select_step(self, event: "Event") -> None:
        self._in_flight = None
        if self.should_stop():
            self._active = False
            self._pending.clear()
            return
        victim = self._next_victim()
        if victim is None:
            self._active = False
            return
        self._in_flight = victim
        self._schedule(
            self._read(victim, "gc", event.time_us),
            "gc_program",
            self._program_stage,
            victim,
        )

    def _next_victim(self) -> Optional[int]:
        device = self._device
        urgent = self.below_hard_watermark()
        queue = self._pending
        if not queue:
            queue = list(
                self.policy.select_victims(device.flash, device.allocator, urgent=urgent)
            )
        while queue:
            block = queue.pop(0)
            if self._collectable(block):
                self._pending = queue
                return block
        self._pending = []
        return None

    def _collectable(self, block: int) -> bool:
        """Re-validate a victim at fire time (state may have moved on)."""
        device = self._device
        return (
            not device.allocator.is_active(block)
            and not device.flash.block_is_free(block)
        )

    def _program_stage(self, event: "Event") -> None:
        block: int = event.payload
        self._schedule(
            self._migrate([block], "gc", event.time_us),
            "gc_erase",
            self._erase_stage,
            block,
        )

    def _erase_stage(self, event: "Event") -> None:
        block: int = event.payload
        finish = self._erase(block, "gc", event.time_us)
        self._in_flight = None
        self._schedule(finish, "gc_step", self._select_step)
