"""Power-fail injection and mapping recovery (crash consistency).

The paper keeps LeaFTL's learned segments in DRAM and treats the per-page
OOB reverse mappings as the durable ground truth (Section 3.5).  This
module exercises that contract end to end:

* :class:`CrashTimer` is an :attr:`repro.sim.events.EventLoop.observer`
  that raises :class:`PowerFailure` at an injected trigger — an absolute
  simulated timestamp, or the N-th event of a kind (e.g. the first
  ``gc_…`` pipeline step for a mid-GC crash).  The observer runs *before*
  the event's callback, and flash state changes apply atomically when an
  operation is issued, so the crash always lands between consistent flash
  states: at most one VALID page per LPA, never a torn page.
* :meth:`repro.ssd.ssd.SimulatedSSD.power_fail` then discards every DRAM
  structure and returns the durability oracle (the last-acked flash
  location of each LPA).
* :func:`recover` rebuilds the mapping two ways: a full **OOB scan**
  (works for any FTL — read every programmed page's reverse mapping,
  rebuild from the VALID ones) and, for LeaFTL, **checkpoint + replay**
  (restore the last :class:`MappingCheckpointer` image losslessly, then
  re-learn only the pages programmed since — found by diffing durable
  per-block ``(erase_count, write_pointer)`` generations).

Cost model
----------

Recovery time is dominated by modeled flash reads: one page-read latency
per scanned OOB (the spare area cannot be sensed without activating the
page), issued as one per-block burst through the NAND scheduler so the
channels drain in parallel.  Checkpoint writes are charged as real page
writes (``stats.checkpoint_page_writes`` feeds the WAF), and their channel
time, like the image's read-back, through
:meth:`repro.ssd.ssd.SimulatedSSD.charge_metadata_pages`, the device's one
charge for translation and checkpoint pages: checkpoint images live in a
small reserved metadata region, so they do not consume data blocks or
interact with GC.  The in-DRAM rebuild
itself (dict inserts, segment relearning) is charge-free, as is reading
the page-validity bitmap — firmware metadata in the model.  FTL rebuild
entry points are pure state reconstructions and charge no translation
counters; every modeled recovery cost flows through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.flash.flash_array import PageState
from repro.sim.events import Event
from repro.ssd.ssd import SimulatedSSD

#: Default checkpoint interval: data pages programmed between checkpoints.
DEFAULT_CHECKPOINT_INTERVAL_PAGES = 8192

#: Recovery strategies accepted by :func:`recover`.
RECOVERY_MODES = ("oob_scan", "checkpoint_replay")


class PowerFailure(Exception):
    """Raised out of the event loop when an injected crash fires.

    Propagates through the frontend's ``run()`` and out of
    ``SimulatedSSD.run`` / ``run_frontend``; the harness catches it and
    calls :meth:`repro.ssd.ssd.SimulatedSSD.power_fail`.
    """

    def __init__(self, at_us: float, event_kind: str) -> None:
        super().__init__(
            f"power failure injected at t={at_us:.3f}us (event {event_kind!r})"
        )
        self.at_us = at_us
        self.event_kind = event_kind


class CrashTimer:
    """Event-loop observer that raises :class:`PowerFailure` at a trigger.

    Triggers (first one to hold wins):

    * ``at_us`` — crash at the first processed event whose timestamp has
      reached the deadline;
    * ``after_kind`` / ``kind_count`` — crash at the ``kind_count``-th
      processed event whose ``kind`` starts with ``after_kind`` (e.g.
      ``after_kind="gc"`` lands the crash mid-GC-migration when background
      GC is active).

    Attach with :meth:`repro.sim.events.EventLoop.chain_observer` so it
    composes with the determinism harness's digest observer — the crash
    then lands at the identical event index with or without digesting.
    """

    def __init__(
        self,
        at_us: Optional[float] = None,
        after_kind: Optional[str] = None,
        kind_count: int = 1,
    ) -> None:
        if at_us is None and after_kind is None:
            raise ValueError("CrashTimer needs at_us or after_kind")
        if kind_count < 1:
            raise ValueError("kind_count must be at least 1")
        self.at_us = at_us
        self.after_kind = after_kind
        self.kind_count = kind_count
        self._kind_seen = 0
        self.fired = False

    def __call__(self, event: Event) -> None:
        if self.fired:
            return
        if self.at_us is not None and event.time_us >= self.at_us:
            self.fired = True
            raise PowerFailure(event.time_us, event.kind)
        if self.after_kind is not None and event.kind.startswith(self.after_kind):
            self._kind_seen += 1
            if self._kind_seen >= self.kind_count:
                self.fired = True
                raise PowerFailure(event.time_us, event.kind)


@dataclass
class CheckpointImage:
    """One persisted mapping checkpoint (modeled flash-durable)."""

    #: The pickled learned table
    #: (:meth:`repro.core.leaftl.LeaFTL.serialize_checkpoint`).
    payload: bytes
    #: Flash pages the image occupies (what its write and read-back cost).
    pages: int
    #: Durable per-block ``(erase_count, write_pointer)`` generations at
    #: checkpoint time; recovery diffs these against the post-crash state
    #: to find exactly the pages programmed since.
    block_generations: List[Tuple[int, int]]


class MappingCheckpointer:
    """Periodically persists the learned mapping table to flash.

    Attached via :func:`attach_checkpointer`; the SSD calls
    :meth:`note_programs` after every buffer flush, and once
    ``interval_pages`` data pages have been programmed the next flush
    triggers :meth:`take`.  Checkpoint pages are charged as real flash
    writes (``stats.checkpoint_page_writes``, part of the WAF) and occupy
    rotating channels for their program time; the image itself lives in a
    reserved metadata region, so it neither consumes data blocks nor
    perturbs GC.  The image and the generation snapshot are modeled as
    durable; only the programs-since counter is DRAM and resets at a
    crash.
    """

    def __init__(
        self,
        ssd: SimulatedSSD,
        interval_pages: int = DEFAULT_CHECKPOINT_INTERVAL_PAGES,
    ) -> None:
        if interval_pages < 1:
            raise ValueError("interval_pages must be at least 1")
        self.ssd = ssd
        self.interval_pages = interval_pages
        self.image: Optional[CheckpointImage] = None
        self.checkpoints_taken = 0
        self._programs_since = 0

    def note_programs(self, pages: int, at_us: float) -> None:
        """Account freshly flushed data pages; checkpoint when due."""
        self._programs_since += pages
        if self._programs_since >= self.interval_pages:
            self.take(at_us)

    def take(self, at_us: float) -> CheckpointImage:
        """Persist the current learned table to flash, charging its writes."""
        ssd = self.ssd
        ftl = ssd.ftl
        payload = ftl.serialize_checkpoint()
        # On flash the table occupies its device encoding (8 B/segment plus
        # CRB and level bookkeeping — exactly resident_bytes); the pickled
        # payload exists only for bit-exact restoration.
        pages = max(1, math.ceil(ftl.resident_bytes() / ssd.config.page_size))
        ssd.stats.checkpoint_page_writes += pages
        finish = ssd.charge_metadata_pages(at_us, writes=pages)
        if ssd.telemetry is not None:
            ssd.telemetry.note_checkpoint(at_us, finish, pages)
        self.image = CheckpointImage(
            payload=payload,
            pages=pages,
            block_generations=ssd.flash.block_generations(),
        )
        self.checkpoints_taken += 1
        self._programs_since = 0
        return self.image

    def on_power_fail(self) -> None:
        """Reset the (DRAM) programs-since counter; the image survives."""
        self._programs_since = 0


def attach_checkpointer(
    ssd: SimulatedSSD, interval_pages: int = DEFAULT_CHECKPOINT_INTERVAL_PAGES
) -> MappingCheckpointer:
    """Wire a :class:`MappingCheckpointer` into ``ssd``'s flush path."""
    if not hasattr(ssd.ftl, "serialize_checkpoint"):
        raise ValueError(
            f"FTL {type(ssd.ftl).__name__} has no checkpoint serialization; "
            "only LeaFTL supports checkpoint+replay recovery"
        )
    checkpointer = MappingCheckpointer(ssd, interval_pages=interval_pages)
    ssd.checkpointer = checkpointer
    return checkpointer


@dataclass
class RecoveryResult:
    """What a :func:`recover` call did and what it cost."""

    #: Strategy actually used (``checkpoint_replay`` falls back to
    #: ``oob_scan`` when no checkpoint image exists yet).
    mode: str
    #: OOB reads charged at full page-read latency (scan or replay).
    flash_reads: int
    #: Checkpoint-image pages read back (checkpoint mode only).
    checkpoint_pages_read: int
    #: Post-checkpoint pages whose mappings were replayed into the table.
    replayed_pages: int
    #: Live LPAs the recovered device can translate.
    recovered_lpas: int
    #: Modeled wall time of the recovery I/O (scan/read-back makespan).
    recovery_time_us: float


def recover(ssd: SimulatedSSD, mode: str = "oob_scan") -> RecoveryResult:
    """Rebuild all DRAM mapping state of a crashed device.

    Call after :meth:`repro.ssd.ssd.SimulatedSSD.power_fail`.  Both modes
    end with the same post-conditions: the FTL translates every live LPA,
    the ground-truth validity map and the block allocator are re-derived
    from flash, and the data cache is resized to whatever DRAM the rebuilt
    table leaves free.  The device clock advances past the recovery I/O,
    so the first post-recovery requests queue behind it exactly like
    requests behind any other background traffic.
    """
    if mode not in RECOVERY_MODES:
        raise ValueError(f"mode must be one of {RECOVERY_MODES}")
    flash = ssd.flash
    ftl = ssd.ftl
    start = ssd.now_us
    finish = start
    flash_reads = 0
    checkpoint_pages_read = 0
    replayed_pages = 0

    checkpointer = ssd.checkpointer
    image = checkpointer.image if checkpointer is not None else None
    if mode == "checkpoint_replay" and image is None:
        # Crashed before the first checkpoint: the full scan is the only
        # durable source.
        mode = "oob_scan"

    def scan(run: range) -> List[Tuple[int, int]]:
        """Read one block's OOB run; the ``(lpa, ppa)`` of its VALID pages.

        INVALID pages carry stale reverse mappings: they cost a read to be
        recognised as such and contribute nothing.
        """
        nonlocal finish, flash_reads
        if not run:
            return []
        finish = max(finish, flash.read_oob_run(run, now_us=start))
        flash_reads += len(run)
        live: List[Tuple[int, int]] = []
        for ppa in run:
            if flash.page_state(ppa) is PageState.VALID:
                # The OOB's own reverse mapping, without its neighbour window.
                lpa = flash.lpa_of(ppa)
                assert lpa is not None
                live.append((lpa, ppa))
        return live

    if mode == "oob_scan":
        # Baseline: read the OOB of every programmed page, rebuild from
        # the VALID set.
        mappings: List[Tuple[int, int]] = []
        for block in range(flash.geometry.total_blocks):
            mappings += scan(flash.programmed_ppas_of_block(block))
        ftl.rebuild_from_oob(mappings)
    else:
        # Restore the checkpointed table (reading the image back from the
        # metadata region), then replay only the pages programmed since:
        # a block whose erase count changed was recycled, so its whole
        # programmed range is post-checkpoint; otherwise only the pages
        # the write pointer grew over are new.
        assert image is not None
        finish = ssd.charge_metadata_pages(start, reads=image.pages)
        checkpoint_pages_read = image.pages
        ftl.restore_checkpoint(image.payload)
        old_generations = image.block_generations
        pages_per_block = ssd.config.pages_per_block
        for block, (new_erases, new_wp) in enumerate(flash.block_generations()):
            old_erases, old_wp = old_generations[block]
            if new_erases != old_erases:
                run = flash.programmed_ppas_of_block(block)
            elif new_wp > old_wp:
                base = block * pages_per_block
                run = range(base + old_wp, base + new_wp)
            else:
                continue
            replay = scan(run)
            if replay:
                # Level-0 insertion shadows whatever stale mappings the
                # checkpoint still holds for these LPAs.
                ftl.replay_mappings(replay)
                replayed_pages += len(replay)

    ssd.stats.oob_scan_reads += flash_reads
    recovered_lpas = ssd.finish_recovery(finish)

    if ssd.telemetry is not None:
        ssd.telemetry.note_recovery(
            "recovery_scan" if mode == "oob_scan" else "recovery_replay",
            start,
            finish,
            {
                "flash_reads": flash_reads,
                "checkpoint_pages_read": checkpoint_pages_read,
                "replayed_pages": replayed_pages,
                "recovered_lpas": recovered_lpas,
            },
        )

    return RecoveryResult(
        mode=mode,
        flash_reads=flash_reads,
        checkpoint_pages_read=checkpoint_pages_read,
        replayed_pages=replayed_pages,
        recovered_lpas=recovered_lpas,
        recovery_time_us=finish - start,
    )
