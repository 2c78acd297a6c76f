"""Differential crash-recovery tests: power-fail at arbitrary points, then
prove the rebuilt mapping agrees with the durability oracle.

The oracle is the last-acked flash location of every LPA, captured by
``power_fail()`` from the ground-truth page map an instant before all DRAM
state is discarded.  Whatever recovery path runs afterwards — full OOB
scan for any FTL, or checkpoint + replay for LeaFTL — the recovered device
must:

* reconstruct the ground-truth validity map bit-exactly (``live_mappings()``
  equals the oracle — acked data is never lost, unacked in-flight writes
  may be lost but never torn);
* translate every acked LPA back to live data (the device raises on any
  unrecoverable translation, and the read path verifies each translated
  read against the durable OOB reverse mapping);
* keep serving new writes correctly after recovery.

Crashes land mid-write-burst, mid-GC-migration and at idle, across all
four FTL schemes, and at a completion of a depth-1 synchronous-GC replay.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import SFTL
from repro.ssd.recovery import (
    CrashTimer,
    MappingCheckpointer,
    PowerFailure,
    attach_checkpointer,
    recover,
)
from repro.ssd.ssd import SimulatedSSD, SSDOptions

#: Small, low-OP device: GC stays active, so mid-GC crashes are reachable.
CONFIG = SSDConfig.tiny(capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)

FTL_FACTORIES = {
    "LeaFTL-g4": lambda: LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=20_000)),
    "DFTL": lambda: DFTL(mapping_budget_bytes=64 * 1024),
    "SFTL": lambda: SFTL(mapping_budget_bytes=64 * 1024),
    "PageMap": lambda: PageLevelFTL(),
}

#: Crash triggers: mid-write-burst (N-th host completion), mid-GC-migration
#: (N-th GC pipeline event), idle (after the replay fully drains).
CRASH_POINTS = {
    "mid_write": ("request_complete", 2600),
    "mid_gc": ("gc", 40),
    "idle": None,
}


def overwrite_workload(seed: int, num_requests: int = 2200):
    rng = random.Random(seed)
    footprint = int(CONFIG.logical_pages * 0.9)
    requests = []
    for lpa in range(0, footprint - 8, 8):
        requests.append(("W", lpa, 8))
    for _ in range(num_requests):
        span = rng.randint(1, 8)
        lpa = int((rng.random() ** 4) * (footprint - span))
        requests.append(("W", lpa, span))
    return requests


def build_ssd(ftl_name: str, queue_depth: int = 8, gc_mode: str = "background") -> SimulatedSSD:
    return SimulatedSSD(
        CONFIG,
        FTL_FACTORIES[ftl_name](),
        dram_budget=DRAMBudget(dram_bytes=CONFIG.dram_size),
        options=SSDOptions(queue_depth=queue_depth, gc_mode=gc_mode),
    )


def crash(ssd: SimulatedSSD, requests, crash_point: str):
    """Run until the injected crash (or to idle), then power-fail.

    Returns the durability oracle: LPA -> last-acked PPA.
    """
    trigger = CRASH_POINTS[crash_point]
    if trigger is None:
        ssd.run(requests)
        return ssd.power_fail()
    kind, count = trigger
    timer = CrashTimer(after_kind=kind, kind_count=count)
    ssd.event_observer = timer
    with pytest.raises(PowerFailure):
        ssd.run(requests)
    assert timer.fired
    return ssd.power_fail()


def assert_recovered(ssd: SimulatedSSD, oracle, seed: int) -> None:
    """Post-recovery invariants common to both recovery modes."""
    # Bit-exact durability: the rebuilt ground truth IS the oracle.
    assert ssd.live_mappings() == oracle
    # Every acked LPA reads back through the FTL under test; the device
    # raises on unrecoverable translations and the read path verifies the
    # translated PPA against the durable OOB reverse mapping.
    rng = random.Random(seed + 1)
    sample = rng.sample(sorted(oracle), min(250, len(oracle)))
    before = ssd.stats.unmapped_reads
    for lpa in sample:
        ssd.read(lpa)
    assert ssd.stats.unmapped_reads == before
    # The device keeps working: new writes land and translate.
    for lpa in sample[:20]:
        ssd.write(lpa)
    for lpa in sample[:20]:
        ssd.read(lpa)
    assert ssd.stats.unmapped_reads == before


@pytest.mark.parametrize("crash_point", sorted(CRASH_POINTS))
@pytest.mark.parametrize("ftl_name", sorted(FTL_FACTORIES))
def test_oob_scan_recovery(ftl_name, crash_point):
    seed = zlib.crc32(f"recovery/{ftl_name}/{crash_point}".encode()) & 0xFFFF
    requests = overwrite_workload(seed)
    ssd = build_ssd(ftl_name)
    oracle = crash(ssd, requests, crash_point)
    assert oracle, "workload must have acked writes before the crash"
    assert ssd.stats.power_failures == 1

    result = recover(ssd, mode="oob_scan")
    assert result.mode == "oob_scan"
    # The scan reads every programmed page's OOB — VALID and INVALID alike.
    programmed = sum(
        len(ssd.flash.programmed_ppas_of_block(block))
        for block in range(ssd.flash.geometry.total_blocks)
    )
    assert result.flash_reads == programmed
    assert result.recovered_lpas == len(oracle)
    assert result.recovery_time_us > 0
    assert_recovered(ssd, oracle, seed)


@pytest.mark.parametrize("ftl_name", sorted(FTL_FACTORIES))
def test_depth_one_sync_replay_crashes_at_a_completion(ftl_name):
    """A qd1 sync-GC replay dispatches no event, yet every completion
    reaches the crash timer: the crash lands mid-replay, and the recovered
    device reads back every acked LPA."""
    seed = zlib.crc32(f"recovery/{ftl_name}/qd1".encode()) & 0xFFFF
    requests = overwrite_workload(seed)
    ssd = build_ssd(ftl_name, queue_depth=1, gc_mode="sync")
    timer = CrashTimer(after_kind="request_complete", kind_count=2600)
    ssd.event_observer = timer
    with pytest.raises(PowerFailure):
        ssd.run(requests)
    assert timer.fired
    assert ssd.stats.host_write_pages < sum(npages for _, _, npages in requests)
    oracle = ssd.power_fail()
    assert oracle
    recover(ssd, mode="oob_scan")
    assert ssd.live_mappings() == oracle
    before = ssd.stats.unmapped_reads
    for lpa in sorted(oracle):
        ssd.read(lpa)
    assert ssd.stats.unmapped_reads == before


@pytest.mark.parametrize("crash_point", sorted(CRASH_POINTS))
def test_checkpoint_replay_recovery(crash_point):
    seed = zlib.crc32(f"recovery/ckpt/{crash_point}".encode()) & 0xFFFF
    requests = overwrite_workload(seed)
    ssd = build_ssd("LeaFTL-g4")
    checkpointer = attach_checkpointer(ssd, interval_pages=512)
    oracle = crash(ssd, requests, crash_point)
    assert checkpointer.checkpoints_taken > 0
    assert ssd.stats.checkpoint_page_writes > 0

    result = recover(ssd, mode="checkpoint_replay")
    assert result.mode == "checkpoint_replay"
    assert result.checkpoint_pages_read == checkpointer.image.pages
    # Replay touches only the pages programmed since the last checkpoint.
    # Mid-run that is a strict subset; at idle the post-crash GC drain can
    # have recycled every block, legitimately forcing a full replay.
    programmed = sum(
        len(ssd.flash.programmed_ppas_of_block(block))
        for block in range(ssd.flash.geometry.total_blocks)
    )
    assert result.flash_reads <= programmed
    if crash_point != "idle":
        assert result.flash_reads < programmed
    assert_recovered(ssd, oracle, seed)


def test_checkpoint_recovery_faster_than_scan():
    """The headline claim: checkpoint+replay beats the full OOB scan.

    Both devices run with checkpointing enabled (checkpoint writes occupy
    channels and shift GC timing, so a checkpointed and an unadorned device
    diverge physically); only the recovery strategy differs.  Identical
    runs crash at the identical event, so the comparison is apples to
    apples: same durable flash state, two ways to rebuild from it.
    """
    seed = 1234
    requests = overwrite_workload(seed)

    def crashed_device() -> SimulatedSSD:
        ssd = build_ssd("LeaFTL-g4")
        attach_checkpointer(ssd, interval_pages=512)
        ssd.event_observer = CrashTimer(after_kind="request_complete", kind_count=2600)
        with pytest.raises(PowerFailure):
            ssd.run(requests)
        return ssd

    ssd_scan = crashed_device()
    oracle_scan = ssd_scan.power_fail()
    scan = recover(ssd_scan, mode="oob_scan")

    ssd_ckpt = crashed_device()
    oracle_ckpt = ssd_ckpt.power_fail()
    ckpt = recover(ssd_ckpt, mode="checkpoint_replay")

    # Same crash point, same durable contents recovered either way.
    assert oracle_scan == oracle_ckpt
    assert ssd_scan.live_mappings() == ssd_ckpt.live_mappings()
    assert ckpt.flash_reads < scan.flash_reads
    assert ckpt.recovery_time_us < scan.recovery_time_us


def test_checkpoint_falls_back_to_scan_before_first_image():
    """Crash before any checkpoint: replay mode degrades to the OOB scan."""
    ssd = build_ssd("LeaFTL-g4")
    attach_checkpointer(ssd, interval_pages=10**9)
    ssd.write(0)
    ssd.write(1)
    ssd.finalize_replay()
    oracle = ssd.power_fail()
    result = recover(ssd, mode="checkpoint_replay")
    assert result.mode == "oob_scan"
    assert ssd.live_mappings() == oracle


def test_unacked_writes_may_be_lost_but_never_torn():
    """In-flight (unacked) writes vanish cleanly: the write buffer is DRAM
    and discards at the crash; flash holds no partial page for them."""
    ssd = build_ssd("PageMap")
    # Buffered but never flushed: fewer pages than the flush threshold.
    ssd.write(7)
    assert len(ssd.write_buffer) > 0
    oracle = ssd.power_fail()
    assert oracle == {}
    assert ssd.stats.buffered_pages_lost > 0
    result = recover(ssd, mode="oob_scan")
    assert result.recovered_lpas == 0
    # The lost write is simply unmapped — not torn, not half-present.
    before = ssd.stats.unmapped_reads
    ssd.read(7)
    assert ssd.stats.unmapped_reads == before + 1


def test_checkpointer_requires_serializable_ftl():
    ssd = build_ssd("PageMap")
    with pytest.raises(ValueError):
        attach_checkpointer(ssd)


def test_attach_checkpointer_validates_interval():
    ssd = build_ssd("LeaFTL-g4")
    with pytest.raises(ValueError):
        MappingCheckpointer(ssd, interval_pages=0)
