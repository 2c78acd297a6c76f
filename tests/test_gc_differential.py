"""Differential property test: GC-heavy replay vs an in-memory oracle.

Randomized overwrite-skewed workloads on a small, low-over-provisioning
device (GC constantly active) are replayed through every FTL scheme, across
queue depths and both GC scheduling modes.  An in-memory oracle tracks which
logical pages the host has written; after the replay the device must agree
with it on every read-back:

* reads of written pages resolve to a live flash page holding that LPA
  (the device raises on any unrecoverable translation, and the simulator
  verifies every translated read against the OOB reverse mapping);
* reads of never-written pages — and only those — are served as unmapped;
* the device's ground-truth page map covers exactly the oracle's pages, and
  flash validity accounting matches it page for page.

This is the harness that catches lost mappings, double-invalidations and
stale-migration bugs in the GC pipeline, whichever mapping scheme is active.
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
from repro.ssd.ssd import SimulatedSSD, SSDOptions

#: Small device with little spare space: the workload keeps GC active.
CONFIG = SSDConfig.tiny(capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)

FTL_FACTORIES = {
    "LeaFTL-g4": lambda: LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=20_000)),
    "DFTL": lambda: DFTL(mapping_budget_bytes=64 * 1024),
    "SFTL": lambda: SFTL(mapping_budget_bytes=64 * 1024),
    "PageMap": lambda: PageLevelFTL(),
}


def gc_heavy_workload(seed: int, footprint: int, num_requests: int):
    """A fill pass + an overwrite-skewed mix; returns the oracle alongside.

    Writes are Zipf-like skewed (hot head), so block validity drains
    unevenly — the regime where victim selection and migration races
    actually matter.  Reads target previously written pages; the expected
    number of unmapped page reads (spans running past written data) is
    computed against the oracle while generating.
    """
    rng = random.Random(seed)
    requests = []
    written: set[int] = set()
    written_list: list[int] = []
    expected_unmapped = 0

    for lpa in range(0, footprint - 8, 8):
        requests.append(("W", lpa, 8))
        written.update(range(lpa, lpa + 8))
        written_list.append(lpa)

    for _ in range(num_requests):
        if rng.random() < 0.65 or not written_list:
            span = rng.randint(1, 8)
            lpa = int((rng.random() ** 4) * (footprint - span))
            requests.append(("W", lpa, span))
            written.update(range(lpa, lpa + span))
            written_list.append(lpa)
        else:
            span = rng.randint(1, 4)
            lpa = rng.choice(written_list)
            requests.append(("R", lpa, span))
            expected_unmapped += sum(
                1 for page in range(lpa, lpa + span) if page not in written
            )
    return requests, written, expected_unmapped


@pytest.mark.parametrize("gc_mode", ["sync", "background"])
@pytest.mark.parametrize("queue_depth", [1, 8])
@pytest.mark.parametrize("ftl_name", sorted(FTL_FACTORIES))
def test_gc_heavy_replay_agrees_with_oracle(ftl_name, queue_depth, gc_mode):
    # str hashes are salted per process; CRC32 keeps the per-combination
    # workload seed stable across runs and machines.
    seed = zlib.crc32(f"{ftl_name}/{queue_depth}/{gc_mode}".encode()) & 0xFFFF
    footprint = int(CONFIG.logical_pages * 0.9)
    requests, written, expected_unmapped = gc_heavy_workload(
        seed=seed, footprint=footprint, num_requests=2000
    )

    # Plain options + run(): background GC brings the event loop with it,
    # even at depth 1.
    ssd = SimulatedSSD(
        CONFIG,
        FTL_FACTORIES[ftl_name](),
        dram_budget=DRAMBudget(dram_bytes=CONFIG.dram_size),
        options=SSDOptions(queue_depth=queue_depth, gc_mode=gc_mode),
    )
    stats = ssd.run(requests)

    # The workload really kept GC busy (otherwise this test proves nothing).
    assert stats.gc_invocations > 0
    assert stats.gc_page_writes > 0
    if gc_mode == "background":
        assert stats.gc_background_runs > 0

    # Unmapped reads match the oracle exactly: no written page was lost and
    # no unwritten page was conjured, at any queue depth / GC mode.
    assert stats.unmapped_reads == expected_unmapped

    # Ground-truth page map covers exactly the oracle's pages...
    assert set(ssd.live_mappings()) == written
    # ...and flash validity accounting agrees page for page.
    total_valid = sum(
        ssd.flash.valid_page_count(block)
        for block in range(ssd.flash.geometry.total_blocks)
    )
    assert total_valid == len(written)

    # Read back a sample of written pages through the FTL under test:
    # the device raises on unrecoverable translations, and none may be
    # served as unmapped.
    rng = random.Random(seed + 1)
    before = ssd.stats.unmapped_reads
    for lpa in rng.sample(sorted(written), 200):
        ssd.read(lpa)
    assert ssd.stats.unmapped_reads == before
