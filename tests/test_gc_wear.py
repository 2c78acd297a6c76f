"""Tests for GC policies, stream separation and background GC.

Wear leveling is tested in ``tests/test_wear_leveling.py``.

Layered coverage:

* victim policies in isolation (greedy / cost-benefit / d-choices, the
  fully-valid-victim exclusion, the hard-watermark fallback);
* allocator write-stream separation (hot host data vs cold migrations);
* background GC against the hard watermark and the in-flight victim (the
  whole-device machine, ``tests/test_device_machine.py``, checks the
  reclaim invariants after every step of generated histories);
* the hard watermark throttling host writes when the pipeline lags;
* the tail-latency acceptance property: background GC beats synchronous GC
  at p99 on a contended aged device without amplifying writes;
* a golden accounting pin so policy refactors can't silently change the
  ``gc_page_reads`` / ``gc_page_writes`` / WAF bookkeeping.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SSDConfig
from repro.experiments.common import precondition, steady_state_workload
from repro.flash.allocator import BlockAllocator
from repro.flash.flash_array import FlashArray
from repro.ssd import gc
from repro.ssd.gc import (
    CostBenefitGCPolicy,
    DChoicesGCPolicy,
    GreedyGCPolicy,
    make_gc_policy,
)
from repro.ssd.ssd import SSDOptions
from tests.conftest import make_ssd
from tests.test_device_machine import assert_gc_invariants


@pytest.fixture
def flash():
    return FlashArray(SSDConfig.tiny())


def _sealed_block(flash, allocator, valid, invalid=0, lpa_base=0):
    """Program a block with ``valid + invalid`` pages, invalidate ``invalid``.

    The block comes from the free pool but no stream holds it open, so it
    is a GC candidate however few pages it holds.
    """
    block = allocator.allocate_block()
    base = flash.geometry.first_ppa_of_block(block)
    count = valid + invalid
    flash.program_run(base, list(range(lpa_base, lpa_base + count)), [None] * count, 0, {})
    for offset in range(invalid):
        flash.invalidate_page(base + offset)
    return block


class TestGCPolicy:
    def test_thresholds_validated(self):
        """The thresholds are declared once, on SSDConfig; the controller
        derives the hard watermark from them: min(0.04, threshold / 2) on a
        device where that exceeds one flush plus two blocks."""
        with pytest.raises(ValueError):
            replace(SSDConfig.tiny(), gc_threshold=0.5, gc_restore=0.4)
        for threshold, watermark in ((0.15, 0.04), (0.06, 0.03)):
            ssd = make_ssd(config=replace(SSDConfig.tiny(), gc_threshold=threshold))
            allocator = ssd.allocator
            while allocator.free_ratio() >= watermark:
                assert not ssd.gc.below_hard_watermark()
                allocator.allocate_block()
            assert ssd.gc.below_hard_watermark()

    def test_should_collect_tracks_free_ratio(self):
        ssd = make_ssd(config=replace(SSDConfig.tiny(), gc_threshold=0.5, gc_restore=0.6))
        assert not ssd.gc.should_collect()
        assert ssd.gc.should_stop()
        total = ssd.allocator.total_blocks
        for _ in range(int(total * 0.6)):
            ssd.allocator.allocate_block()
        assert ssd.gc.should_collect()
        assert not ssd.gc.should_stop()

    def test_greedy_victim_order(self, flash):
        allocator = BlockAllocator(flash)
        policy = GreedyGCPolicy()
        for valid in (5, 1, 3):
            _sealed_block(flash, allocator, valid=valid, invalid=2)
        victims = policy.select_victims(flash, allocator)
        ordered_valid = [flash.valid_page_count(b) for b in victims]
        assert ordered_valid == sorted(ordered_valid)

    def test_victim_limit(self, flash, monkeypatch):
        monkeypatch.setattr(gc, "MAX_VICTIMS_PER_INVOCATION", 2)
        allocator = BlockAllocator(flash)
        policy = GreedyGCPolicy()
        for index in range(5):
            _sealed_block(flash, allocator, valid=1, lpa_base=index * 10)
        assert len(policy.select_victims(flash, allocator)) == 2

    def test_fully_valid_victims_skipped_unless_urgent(self, flash):
        """The zero-progress fix: migrating a fully valid block consumes
        exactly the pages its erase frees, so such victims burn migration
        bandwidth for nothing — they are only eligible below the hard
        watermark, and even then only when nothing better exists."""
        allocator = BlockAllocator(flash)
        policy = GreedyGCPolicy()
        pages = flash.geometry.pages_per_block
        full = _sealed_block(flash, allocator, valid=pages)
        assert policy.select_victims(flash, allocator) == []
        assert policy.select_victims(flash, allocator, urgent=True) == [full]
        # Once a reclaimable block exists it wins even under urgency.
        partial = _sealed_block(flash, allocator, valid=1, invalid=1, lpa_base=5000)
        assert policy.select_victims(flash, allocator) == [partial]
        assert policy.select_victims(flash, allocator, urgent=True) == [partial]

    def test_cost_benefit_prefers_old_sparse_blocks(self, flash):
        allocator = BlockAllocator(flash)
        policy = CostBenefitGCPolicy()
        # Same utilization, different age: the earlier-touched block wins.
        old = _sealed_block(flash, allocator, valid=2, invalid=2, lpa_base=0)
        young = _sealed_block(flash, allocator, valid=2, invalid=2, lpa_base=100)
        assert flash.block_age(old) > flash.block_age(young)
        assert policy.select_victims(flash, allocator)[0] == old
        # The distinction from greedy: a freshly-modified (hot) block is
        # deferred even when it is the sparsest — its age is ~0, so it gets
        # time to shed more valid pages before being collected.
        sparse = _sealed_block(flash, allocator, valid=1, invalid=7, lpa_base=200)
        assert GreedyGCPolicy().select_victims(flash, allocator)[0] == sparse
        assert policy.select_victims(flash, allocator)[0] == old

    def test_d_choices_deterministic_and_bounded(self, flash, monkeypatch):
        monkeypatch.setattr(gc, "MAX_VICTIMS_PER_INVOCATION", 3)
        allocator = BlockAllocator(flash)
        for index, valid in enumerate((6, 2, 4, 1, 5, 3)):
            _sealed_block(flash, allocator, valid=valid, invalid=1, lpa_base=index * 50)
        first = DChoicesGCPolicy(d=2, seed=5).select_victims(flash, allocator)
        second = DChoicesGCPolicy(d=2, seed=5).select_victims(flash, allocator)
        assert first == second
        assert len(first) == 3
        assert set(first) <= set(allocator.gc_candidates())
        # With d covering the whole pool it degenerates to exact greedy.
        exhaustive = DChoicesGCPolicy(d=100, seed=1).select_victims(flash, allocator)
        assert exhaustive == GreedyGCPolicy().select_victims(flash, allocator)

    def test_make_gc_policy_registry(self):
        assert isinstance(make_gc_policy("greedy"), GreedyGCPolicy)
        assert isinstance(make_gc_policy("cost_benefit"), CostBenefitGCPolicy)
        assert isinstance(make_gc_policy("d_choices"), DChoicesGCPolicy)
        with pytest.raises(ValueError):
            make_gc_policy("round_robin")


class TestStreamSeparation:
    def test_streams_use_disjoint_open_blocks(self, flash):
        allocator = BlockAllocator(flash)
        hot_block, hot_ppa, hot_room = allocator.frontier("hot")
        cold_block, cold_ppa, cold_room = allocator.frontier("cold")
        assert hot_block != cold_block
        assert hot_room == cold_room == flash.geometry.pages_per_block
        with pytest.raises(ValueError):
            allocator.frontier("lukewarm")

    def test_frontier_continues_partial_block(self, flash):
        allocator = BlockAllocator(flash)
        block, first_ppa, _ = allocator.frontier("hot")
        flash.program_run(first_ppa, [0, 1, 2], [None] * 3, 0, {})
        again, next_ppa, room = allocator.frontier("hot")
        assert again == block
        assert next_ppa == first_ppa + 3
        assert room == flash.geometry.pages_per_block - 3
        # The open block is active, hence never a GC candidate.
        assert allocator.is_active(block)
        assert block not in allocator.gc_candidates()

    def test_full_block_is_sealed_and_replaced(self, flash):
        allocator = BlockAllocator(flash)
        pages = flash.geometry.pages_per_block
        block, first_ppa, room = allocator.frontier("cold")
        flash.program_run(first_ppa, list(range(pages)), [None] * pages, 0, {})
        allocator.seal_if_full(block)
        assert not allocator.is_active(block)
        replacement, _, _ = allocator.frontier("cold")
        assert replacement != block

    def test_host_and_gc_data_never_share_a_block(self):
        """End to end: after a GC-heavy replay, every block holds pages of
        a single write stream (host flush vs migration)."""
        config = replace(SSDConfig.tiny(), capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)
        ssd = make_ssd(config=config)
        footprint = precondition(ssd, seed=11)
        ssd.run(steady_state_workload(footprint, 1000, seed=40))
        assert ssd.stats.gc_page_writes > 0
        hot = ssd.allocator.stream_block("hot")
        cold = ssd.allocator.stream_block("cold")
        assert hot is not None and cold is not None and hot != cold


class TestBackgroundGC:
    def _aged_ssd(self, gc_mode, queue_depth=8):
        config = replace(SSDConfig.tiny(), capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)
        ssd = make_ssd(
            gamma=4,
            config=config,
            options=SSDOptions(queue_depth=queue_depth, gc_mode=gc_mode),
        )
        footprint = precondition(ssd, seed=11)
        return ssd, footprint

    def test_background_gc_flattens_tail_at_equal_waf(self):
        """Acceptance: at queue depth 8 on an aged device, background GC
        yields a measurably lower p99 read latency than synchronous GC
        without amplifying writes more."""
        stats = {}
        for mode in ("sync", "background"):
            ssd, footprint = self._aged_ssd(mode)
            stats[mode] = ssd.run(steady_state_workload(footprint, 3000, seed=23))
        sync, background = stats["sync"], stats["background"]
        assert background.gc_background_runs > 0
        assert sync.gc_background_runs == 0
        # Same logical work...
        assert background.host_write_pages == sync.host_write_pages
        # ...much flatter read tail...
        assert (
            background.read_latency.percentile(99)
            < sync.read_latency.percentile(99) * 0.8
        )
        # ...at equal-or-better write amplification.
        assert background.write_amplification <= sync.write_amplification * 1.1

    def test_hard_watermark_throttles_host_writes(self):
        """A write-only burst outruns the pipeline: the hard watermark must
        engage, reclaim synchronously and charge the stall to the host."""
        ssd, footprint = self._aged_ssd("background")
        burst = steady_state_workload(footprint, 2500, seed=77, read_ratio=0.0)
        stats = ssd.run(burst)
        assert stats.gc_urgent_collections > 0
        assert stats.gc_write_throttle_us > 0.0
        assert_gc_invariants(ssd)

    def test_urgent_reclaim_never_takes_the_in_flight_victim(self):
        """The one cross-path interaction: the hard watermark fires while
        the pipeline holds a victim between its stages.  The blocking batch
        must leave that block to the pipeline (no double collection)."""
        ssd, footprint = self._aged_ssd("background")
        collect, erase_block = ssd.gc.collect, ssd.flash.erase_block
        overlapped = []
        in_batch = [False]

        def watched_collect(victims, purpose, clock):
            held = ssd.gc.in_flight
            if held is not None:
                overlapped.append(held)
                assert held not in victims
            in_batch[0] = True
            try:
                return collect(victims, purpose, clock)
            finally:
                in_batch[0] = False
                assert ssd.gc.in_flight == held

        def watched_erase(block, now_us=0.0):
            # Inside a blocking batch the pipeline's victim is off limits.
            assert not (in_batch[0] and block == ssd.gc.in_flight)
            return erase_block(block, now_us=now_us)

        ssd.gc.collect = watched_collect
        ssd.flash.erase_block = watched_erase
        stats = ssd.run(steady_state_workload(footprint, 2500, seed=77, read_ratio=0.0))
        assert stats.gc_urgent_collections > 0
        assert overlapped, "no blocking batch ran while a victim was in flight"
        assert not ssd.gc.active and ssd.gc.backlog == 0
        assert_gc_invariants(ssd)

    def test_serial_path_falls_back_to_sync_gc(self):
        """Background mode without an event loop (direct writes, drain
        flushes) must still reclaim space synchronously."""
        config = replace(SSDConfig.tiny(), capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)
        ssd = make_ssd(config=config, options=SSDOptions(gc_mode="background"))
        footprint = int(ssd.config.logical_pages * 0.9)
        for lpa in range(0, footprint, 64):
            ssd.submit("W", lpa, 64)
        for lpa in range(0, footprint, 128):
            ssd.submit("W", lpa, 32)
        ssd.flush()
        assert ssd.stats.gc_invocations > 0
        assert ssd.stats.gc_background_runs == 0
        assert not ssd.gc.below_hard_watermark()


class TestGoldenAccounting:
    """Golden regression: pin the GC accounting of a fixed-seed workload.

    If a refactor of the policies, the allocator streams or the background
    pipeline changes these numbers, it changed the *accounting semantics*
    (or the default sync behaviour) and must be reviewed — update the pins
    deliberately, never incidentally.
    """

    def test_golden_gc_accounting(self):
        config = replace(SSDConfig.tiny(), capacity_bytes=24 * 1024 * 1024, overprovisioning=0.10)
        ssd = make_ssd(config=config)
        footprint = precondition(ssd, seed=11)
        stats = ssd.run(steady_state_workload(footprint, 2000, seed=23))
        assert stats.gc_page_reads == GOLDEN_GC_PAGE_READS
        assert stats.gc_page_writes == GOLDEN_GC_PAGE_WRITES
        assert stats.gc_block_erases == GOLDEN_GC_BLOCK_ERASES
        assert stats.write_amplification == pytest.approx(GOLDEN_WAF, abs=1e-9)


#: Pinned by running the fixed-seed workload above; see TestGoldenAccounting.
#: Re-pinned when the block allocator moved from hash-ordered sets to
#: insertion-ordered pools with an explicit (erase count, block id) tie-break
#: (simlint SIM003): victim cascades shifted slightly, WAF improved ~2%.
GOLDEN_GC_PAGE_READS = 35387
GOLDEN_GC_PAGE_WRITES = 35003
GOLDEN_GC_BLOCK_ERASES = 606
GOLDEN_WAF = 7.2907020164301715
