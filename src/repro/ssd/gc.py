"""Garbage collection: victim policies and the one reclaim mechanism.

LeaFTL preserves the conventional GC of modern SSDs (Section 3.6 of the
paper): when the free-block ratio drops below a threshold, victim blocks are
selected, their valid pages migrated to freshly allocated blocks and the
victims erased.  This module owns all of it.  The *policy* side decides when
to collect and which blocks to pick; :class:`BackgroundGCController` is the
*mechanism* — the only code in the tree that reads, migrates and erases a
victim.  The device model (:class:`repro.ssd.ssd.SimulatedSSD`) just calls
it from its flush hook and supplies the cold-stream program path that
relearns the migrated mappings.

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
flush) into the cold stream, *erase* the drained victim and return it to
the free pool — and four drivers that differ only in when the stages run:

* **threshold reclaim**, **urgent reclaim** (hard watermark) and
  **wear-leveling passes** run the stages back to back at one issue clock
  over a batch of victims bounded by the free pool
  (:meth:`BackgroundGCController.collect`), blocking the flush that
  triggered them;
* **background GC** runs the same stages one victim at a time, each stage
  an event issued at the previous stage's completion.  Foreground requests
  that arrive between stages reserve the NAND channels first, so a read
  waits for at most one in-flight stage instead of a whole multi-victim
  reclaim burst — this is what flattens the GC-interference tail latencies.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.flash.allocator import BlockAllocator
from repro.flash.flash_array import FlashArray, FlashError
from repro.sim.events import PRIORITY_GC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.events import Event
    from repro.ssd.ssd import SimulatedSSD

#: Victim-policy names accepted by :func:`make_gc_policy`.
GC_POLICIES = ("greedy", "cost_benefit", "d_choices")


@dataclass
class GCPolicyConfig:
    """Thresholds controlling garbage collection."""

    #: Start GC when the free-block ratio drops below this value.
    threshold: float = 0.15
    #: Stop GC once the free-block ratio recovers to this value.
    restore: float = 0.25
    #: Upper bound of victims processed per invocation (keeps pauses short).
    max_victims_per_invocation: int = 64
    #: Critically-low free-block ratio: below it host writes are throttled
    #: behind an urgent synchronous reclaim, and victim selection may fall
    #: back to fully-valid blocks as a last resort.  ``None`` (the default)
    #: derives it from the threshold — ``min(0.04, threshold / 2)`` — so any
    #: valid threshold yields a valid watermark.
    hard_watermark: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < self.restore <= 1.0:
            raise ValueError("require 0 < threshold < restore <= 1")
        if self.max_victims_per_invocation <= 0:
            raise ValueError("max_victims_per_invocation must be positive")
        if self.hard_watermark is None:
            self.hard_watermark = min(0.04, self.threshold / 2.0)
        if not 0.0 < self.hard_watermark < self.threshold:
            raise ValueError("require 0 < hard_watermark < threshold")


class GCPolicy(abc.ABC):
    """Victim-selection policy: decides *when* and *which*, never *how*."""

    def __init__(self, config: Optional[GCPolicyConfig] = None) -> None:
        self.config = config or GCPolicyConfig()

    def should_collect(self, allocator: BlockAllocator) -> bool:
        """True when the free-block ratio fell below the GC threshold."""
        return allocator.free_ratio() < self.config.threshold

    def should_stop(self, allocator: BlockAllocator) -> bool:
        """True when enough free blocks have been reclaimed."""
        return allocator.free_ratio() >= self.config.restore

    def below_hard_watermark(self, allocator: BlockAllocator) -> bool:
        """True when free blocks are critically low (urgent reclaim regime)."""
        return allocator.free_ratio() < self.config.hard_watermark

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
        return ordered[: self.config.max_victims_per_invocation]


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
        return ordered[: self.config.max_victims_per_invocation]


class DChoicesGCPolicy(GCPolicy):
    """Sampled greedy: each victim is the best of ``d`` random candidates.

    Approximates greedy selection without scanning every block's metadata —
    the classic "power of d choices" trade-off.  The sampling RNG is seeded,
    so replays remain deterministic.
    """

    def __init__(
        self,
        config: Optional[GCPolicyConfig] = None,
        d: int = 8,
        seed: int = 17,
    ) -> None:
        super().__init__(config)
        if d <= 0:
            raise ValueError("d must be positive")
        self.d = d
        self._rng = random.Random(seed)

    def select_victims(
        self, flash: FlashArray, allocator: BlockAllocator, urgent: bool = False
    ) -> List[int]:
        pool = self.eligible_victims(flash, allocator, urgent)
        victims: List[int] = []
        limit = min(self.config.max_victims_per_invocation, len(pool))
        while pool and len(victims) < limit:
            sample = self._rng.sample(pool, min(self.d, len(pool)))
            best = min(sample, key=lambda b: (flash.valid_page_count(b), b))
            victims.append(best)
            pool.remove(best)
        return victims


def make_gc_policy(name: str, config: Optional[GCPolicyConfig] = None) -> GCPolicy:
    """Instantiate a victim policy by name (see :data:`GC_POLICIES`)."""
    if name == "greedy":
        return GreedyGCPolicy(config)
    if name == "cost_benefit":
        return CostBenefitGCPolicy(config)
    if name == "d_choices":
        return DChoicesGCPolicy(config)
    raise ValueError(f"unknown GC policy {name!r}; known: {GC_POLICIES}")


class BackgroundGCController:
    """The device's one reclaim mechanism and the drivers that schedule it.

    (It covers blocking reclaim too; the name is the one the perf ledger
    imports.)  Blocking reclaim — :meth:`on_flush`, :meth:`reclaim_urgent`,
    wear-leveling passes through :meth:`collect` — runs the three stages
    back to back inside the flush that triggered it.  The event pipeline
    keeps one victim in flight, staged through events:

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
    multi-victim reclaim burst.  The pipeline stops once the policy's
    restore watermark is reached (or no eligible victim remains).
    """

    def __init__(self, device: "SimulatedSSD", policy: GCPolicy) -> None:
        self._device = device
        self.policy = policy
        self._active = False
        self._pending: List[int] = []
        self._in_flight: Optional[int] = None

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
        relearned like a regular buffer flush.
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

    def _erase(self, block: int, purpose: str, clock: float) -> Optional[float]:
        """Stage 3: erase the victim if it drained; ``None`` when skipped.

        A victim still holding valid pages (a migrated LPA was overwritten
        concurrently) stays put for a later pass.
        """
        device = self._device
        if device.flash.block_is_free(block) or device.flash.valid_page_count(block):
            return None
        finish = device.flash.erase_block(block, now_us=clock)
        if purpose == "gc":
            device.stats.gc_block_erases += 1
        device.allocator.release_block(block)
        return finish

    # ------------------------------------------------------------------ #
    # Blocking drivers: the stages back to back at one issue clock
    # ------------------------------------------------------------------ #
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
            erased = self._erase(block, purpose, clock)
            if erased is not None:
                finish = max(finish, erased)
        return finish

    def on_flush(self, clock: float) -> None:
        """Threshold reclaim, checked after every buffer flush.

        Under ``gc_mode="background"`` with an event loop attached the work
        is handed to the pipeline; otherwise (sync mode, or no loop: direct
        ``write()`` calls and the final drain flush) victims are collected
        here until the restore watermark, blocking the flush.
        """
        device = self._device
        policy, allocator = self.policy, device.allocator
        if device.options.gc_mode == "background" and device._loop is not None:
            self._start_pipeline(clock)
            return
        if self._active or not policy.should_collect(allocator):
            return
        device.stats.gc_invocations += 1
        while not policy.should_stop(allocator):
            free_before = allocator.free_block_count()
            victims = policy.select_victims(
                device.flash, allocator, urgent=policy.below_hard_watermark(allocator)
            )
            if not victims:
                break
            self.collect(victims, "gc", clock)
            if allocator.free_block_count() <= free_before:
                # No net space reclaimed (victims were fully valid):
                # stop rather than amplify writes indefinitely.
                break

    def reclaim_urgent(self, clock: float) -> float:
        """Hard watermark: reclaim until it clears; returns the completion.

        Runs whatever the GC mode (background GC lagging a write burst is
        the usual cause): batches of at most four victims, each issued at
        the previous batch's completion, never touching the pipeline's
        in-flight victim.  Returns ``clock`` when there was nothing to do.
        """
        device = self._device
        policy, allocator = self.policy, device.allocator
        if not policy.below_hard_watermark(allocator):
            return clock
        device.stats.gc_urgent_collections += 1
        finish = clock
        while policy.below_hard_watermark(allocator):
            free_before = allocator.free_block_count()
            victims = [
                block
                for block in policy.select_victims(device.flash, allocator, urgent=True)
                if block != self._in_flight
            ][:4]
            if not victims:
                break
            finish = max(finish, self.collect(victims, "gc", finish))
            if allocator.free_block_count() <= free_before:
                break
        return finish

    # ------------------------------------------------------------------ #
    # Event pipeline: the same stages, one victim at a time
    # ------------------------------------------------------------------ #
    def _start_pipeline(self, at_us: float) -> None:
        """Kick off a background run if one is due and none is running."""
        device = self._device
        if self._active or not self.policy.should_collect(device.allocator):
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
        if self.policy.should_stop(self._device.allocator):
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
        urgent = self.policy.below_hard_watermark(device.allocator)
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
        self._schedule(
            event.time_us if finish is None else finish, "gc_step", self._select_step
        )
