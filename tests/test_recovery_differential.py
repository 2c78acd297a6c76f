"""Crash-recovery tests on a 24 MB device, beside the whole-device machine.

The oracle is the last-acked flash location of every LPA, captured by
``power_fail()`` from the ground-truth page map an instant before all DRAM
state is discarded; the recovered device's ``live_mappings()`` must equal
it.  Generated crash histories (a power failure, or a ``CrashTimer`` crash
at the k-th completion or GC event, then OOB-scan or checkpoint recovery,
across all four FTLs) are rules of the whole-device machine
(``tests/test_device_machine.py``).  What stays here: checkpoint recovery
beating the full scan from the same crash (thousands of requests on a
larger device), the fallback to the scan before the first image, and the
checkpointer's argument checks.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ssd.recovery import (
    CrashTimer,
    MappingCheckpointer,
    PowerFailure,
    attach_checkpointer,
    recover,
)
from repro.ssd.ssd import SimulatedSSD, SSDOptions

#: Small, low-OP device: GC stays active, so mid-GC crashes are reachable.
CONFIG = replace(SSDConfig.tiny(), capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)

FTL_FACTORIES = {
    "LeaFTL-g4": lambda: LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=20_000)),
    "PageMap": lambda: PageLevelFTL(),
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


def build_ssd(ftl_name: str) -> SimulatedSSD:
    return SimulatedSSD(
        CONFIG,
        FTL_FACTORIES[ftl_name](),
        dram_budget=DRAMBudget(dram_bytes=CONFIG.dram_size),
        options=SSDOptions(queue_depth=8, gc_mode="background"),
    )


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


def test_checkpointer_requires_serializable_ftl():
    ssd = build_ssd("PageMap")
    with pytest.raises(ValueError):
        attach_checkpointer(ssd)


def test_attach_checkpointer_validates_interval():
    ssd = build_ssd("LeaFTL-g4")
    with pytest.raises(ValueError):
        MappingCheckpointer(ssd, interval_pages=0)
