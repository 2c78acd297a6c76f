"""Integration tests: the full SSD model with each FTL scheme.

The key end-to-end invariant is *read-your-writes*: whatever FTL is plugged
in (and whatever gamma LeaFTL uses), a read of any previously written LPA
must reach the flash page that holds that LPA's latest data — mispredictions
may add flash reads, but never return wrong data.  The simulator enforces
this by verifying the OOB reverse mapping on every translated read and
raising ``SimulationError`` when it cannot be satisfied; the whole-device
machine (``tests/test_device_machine.py``) checks it on generated histories
of every FTL.  The tests here pin single mechanisms end to end.
"""

from __future__ import annotations

import random

import pytest

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.experiments.common import ExperimentSetup, build_ssd, warmup_ssd
from repro.ftl.dftl import DFTL
from repro.ssd.recovery import recover
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from tests.conftest import make_ssd


def mixed_requests(rng, count, footprint):
    requests = []
    for _ in range(count):
        r = rng.random()
        start = rng.randrange(footprint)
        if r < 0.3:
            requests.append(("W", start, rng.randint(1, 32)))
        elif r < 0.5:
            requests.append(("W", start, 1))
        elif r < 0.8:
            requests.append(("R", start, rng.randint(1, 8)))
        else:
            requests.append(("R", start, 1))
    return requests


def test_write_buffer_absorbs_overwrites():
    ssd = make_ssd()
    for _ in range(10):
        ssd.write(42)
    ssd.flush()
    assert ssd.stats.data_page_writes == 1


def test_cache_hit_served_from_dram():
    ssd = make_ssd()
    ssd.write(10)
    ssd.flush()
    ssd.cache.invalidate(10)   # drop the write-allocated entry
    first = ssd.read(10)       # flash read, repopulates the cache
    second = ssd.read(10)      # cache hit
    assert second <= ssd.config.dram_latency_us
    assert ssd.stats.cache_hits >= 1
    assert first >= ssd.config.read_latency_us


def test_unmapped_read_serves_zeroes_without_flash_access():
    ssd = make_ssd()
    before = ssd.flash.counters.page_reads
    ssd.read(123)
    assert ssd.flash.counters.page_reads == before
    assert ssd.stats.unmapped_reads == 1


def test_gc_reclaims_space_and_preserves_data():
    """Fill the device past the GC threshold and verify data integrity."""
    rng = random.Random(3)
    config = SSDConfig.tiny()
    ssd = make_ssd(gamma=4, config=config)
    footprint = int(config.logical_pages * 0.9)
    # A full pass fills the device; the second pass overwrites the first
    # half of every other 64-page extent, so GC victims are half-valid and
    # must migrate their surviving pages (fully-valid blocks are skipped —
    # migrating them would reclaim nothing).
    for lpa in range(0, footprint, 64):
        ssd.submit("W", lpa, 64)
    for lpa in range(0, footprint, 128):
        ssd.submit("W", lpa, 32)
    ssd.flush()
    assert ssd.stats.gc_invocations > 0
    assert ssd.stats.gc_page_writes > 0
    assert ssd.allocator.free_ratio() > ssd.config.gc_threshold
    # Reads after GC still find their data (the read path would raise otherwise).
    for lpa in rng.sample(range(footprint), 300):
        ssd.read(lpa)


def test_write_amplification_accounts_gc_traffic():
    config = SSDConfig.tiny()
    ssd = make_ssd(config=config)
    footprint = int(config.logical_pages * 0.9)
    for _ in range(2):
        for lpa in range(0, footprint, 64):
            ssd.submit("W", lpa, 64)
    ssd.flush()
    waf = ssd.stats.write_amplification
    assert waf >= 1.0
    assert waf < 3.0


def test_mapping_bytes_sampled_on_flush():
    ssd = make_ssd()
    for lpa in range(0, 4096, 8):
        ssd.write(lpa)
    ssd.flush()
    assert ssd.stats.peak_mapping_bytes > 0
    assert ssd.ftl.resident_bytes() > 0


#: A small harness device whose DRAM holds only part of a DFTL / SFTL map,
#: so the warm-up and every replay pay translation-page reads and writes.
_TRANSLATION_SETUP = ExperimentSetup(
    capacity_bytes=16 * 1024 * 1024,
    channels=4,
    dies_per_channel=2,
    pages_per_block=64,
    dram_bytes=32 * 1024,
    write_buffer_bytes=64 * 1024,
)


@pytest.mark.parametrize("scheme", ["DFTL", "SFTL", "LeaFTL", "PageMap"])
def test_device_charges_exactly_the_ftl_translation_io(scheme):
    """The device's translation-page counts equal the FTL's over every
    replay: after a warm-up that reset the FTL's counters, and after a
    power failure whose recovery rebuilt the table."""
    ssd = build_ssd(scheme, _TRANSLATION_SETUP)
    warmup_ssd(ssd, _TRANSLATION_SETUP)
    footprint = ssd.config.logical_pages - 32

    def replay(seed):
        device, ftl = ssd.stats, ssd.ftl.stats
        before = (
            device.translation_page_reads, device.translation_page_writes,
            ftl.translation_page_reads, ftl.translation_page_writes,
        )
        ssd.run(mixed_requests(random.Random(seed), 600, footprint))
        device_io = (
            device.translation_page_reads - before[0],
            device.translation_page_writes - before[1],
        )
        ftl_io = (
            ftl.translation_page_reads - before[2],
            ftl.translation_page_writes - before[3],
        )
        assert device_io == ftl_io
        if scheme in ("DFTL", "SFTL"):
            assert min(ftl_io) > 0, "the replay must miss on translation pages"

    replay(1)
    ssd.power_fail()
    recover(ssd, "oob_scan")
    replay(2)


def test_cache_resizes_as_mapping_grows():
    config = SSDConfig.tiny()
    ftl = DFTL(mapping_budget_bytes=1024 * 1024)
    budget = DRAMBudget(dram_bytes=256 * 1024, min_cache_bytes=16 * 4096)
    ssd = SimulatedSSD(config, ftl, dram_budget=budget)
    initial_capacity = ssd.cache.capacity_pages
    rng = random.Random(0)
    for _ in range(20_000):
        ssd.write(rng.randrange(60_000))
    ssd.flush()
    assert ssd.cache.capacity_pages < initial_capacity


def test_unsorted_flush_option_produces_more_segments():
    """Ablation of Section 3.3: sorting the buffer reduces segment count."""
    def run(sort):
        ssd = make_ssd(
            ftl=LeaFTL(LeaFTLConfig(gamma=0)),
            options=SSDOptions(sort_buffer_on_flush=sort),
        )
        rng = random.Random(11)
        for _ in range(6000):
            start = rng.randrange(0, 30_000)
            ssd.submit("W", start, rng.randint(1, 16))
        ssd.flush()
        return ssd.ftl.table.segment_count()

    assert run(sort=True) < run(sort=False)


def test_reads_never_consult_the_ground_truth_map():
    """``_current_ppa`` is simulator state (the program path's old-copy
    lookup): where the paper's device must translate, the device translates.
    Every index of the map raises here, and a few thousand multi-page reads
    at gamma 4 — mispredictions and their OOB corrections included — pass."""

    class Unreadable:
        """Wraps the map array; every index, scan or method of it raises."""

        def __init__(self, wrapped):
            self.wrapped = wrapped

        def _raise(self, *args, **kwargs):
            raise AssertionError("a host read consulted the ground-truth map")

        __getitem__ = __setitem__ = __contains__ = __iter__ = __len__ = _raise
        __getattr__ = _raise

    rng = random.Random(29)
    ssd = make_ssd(gamma=4)
    footprint = 20_000
    for _ in range(8000):
        ssd.submit("W", rng.randrange(footprint - 4), rng.randint(1, 4))
    ssd.flush()
    ssd._current_ppa = Unreadable(ssd._current_ppa)
    for _ in range(3000):
        ssd.submit("R", rng.randrange(footprint - 8), rng.randint(2, 8))
    assert ssd.stats.mispredictions > 0
    assert ssd.stats.flash_reads_for_host > 3000
