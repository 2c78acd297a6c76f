"""Carry vs relearn: reclaim re-bases whole learned segments in place.

When GC or a wear pass migrates a chunk, LeaFTL still walks the PLR cones
over it, but a candidate segment made only of *whole owners* (owner-index
segments every LPA of which moved in the chunk by one PPA shift) is carried:
each owner's intercept takes the shift, and it keeps its level and CRB
entries (``LPAGroup.carry``).  The reference is the relearning LeaFTL of
Section 3.6, kept here as a test-only subclass whose ``migrate_batch`` is
the contract's default, ``update_batch``.

Both replay the same generated histories (writes, reads, flushes, power
failures, forced GC and wear passes) on a tiny device aged like the
whole-device machine's (``aging``), with its data cache pinned to its
minimum, so the table's size cannot steer the cache.
Under sync GC, after every step, the flash layout is the reference's page
for page (at γ > 0 while the two devices' channel timelines agree: a
misprediction fix one side only reads can move where the cold stream opens
its next block), the two tables pass ``validate()``, and every live LPA is
predicted within ±γ.  While the layouts agree both tables learned the same
mappings and the carrying one fitted no more of them, nor more segments:
the cone walk closes the same candidates on both sides and carrying only
skips fitting some.  At γ = 0 the translations are equal.  After every
forced GC or wear pass no segment that owns no LPA is left in a level
unless it was already there before the pass (``unowned_segments``): a
refit drops each owner it empties.  The relearning reference migrates like
a host flush and keeps them, so on the history where they used to stay
behind at deeper levels the carrying table now holds no more segments
(``test_carrying_holds_no_more_segments_than_relearning``).  The oracles
are the whole-device machine's (``tests/test_device_machine.py``), which
also checks the carrying device on its own, under background GC as well.

A second property holds the layout against an exact FTL: at γ = 0 under
sync GC, LeaFTL and the page-level map make the same flash programs and
erases for the same history (ROADMAP item 2e, Fig. 25's "comparable WAF"
as an equality).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DRAMBudget, LeaFTLConfig
from repro.core.leaftl import LeaFTL
from repro.ftl.base import FTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ssd.recovery import recover
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from tests.test_device_machine import (
    DEEP, DEVICES, PINNED_CACHE, Step, aging, assert_gc_invariants, check_predictions,
    force_reclaim, unowned_segments,
)

KB = 1024
#: 512 logical pages on 44 blocks of 16 pages, an 8-page write buffer:
#: reclaim runs every few flushes.
CONFIG = DEVICES["512-lpa"]
#: Examples per property and γ: a few in tier-1; CI's explicit step loads
#: the ``deep`` profile (``tests/conftest.py``) and runs its count instead.
EXAMPLES = settings().max_examples if DEEP else 8


class RelearningLeaFTL(LeaFTL):
    """Section 3.6 as written: every migrated mapping is fitted again."""

    migrate_batch = FTL.migrate_batch


def device(ftl: FTL, gc_mode: str, dram: DRAMBudget = PINNED_CACHE) -> SimulatedSSD:
    return SimulatedSSD(CONFIG, ftl, dram_budget=dram, options=SSDOptions(gc_mode=gc_mode))


def leaftl(cls: type, gamma: int) -> LeaFTL:
    return cls(LeaFTLConfig(gamma=gamma, compaction_interval_writes=400))


def apply(ssd: SimulatedSSD, step: Step) -> None:
    """One history step: a host command, a flush, a power failure or a
    forced reclaim pass.

    ``P`` recovers by the OOB scan, whose relearned segments may span
    blocks, so a later migration can move part of an owner.  ``G`` collects
    the ``k``-th block holding valid data, ``L`` moves it as a wear-leveling
    pass; either is a no-op on a device with no such block.
    """
    op, a, b = step
    if op in ("R", "W"):
        ssd.run([(op, a, b)], drain=False, queue_depth=1)
    elif op == "F":
        ssd.flush()
    elif op == "P":
        ssd.power_fail()
        recover(ssd, "oob_scan")
    else:
        force_reclaim(ssd, "gc" if op == "G" else "wear", a)


def flash_state(ssd: SimulatedSSD) -> dict:
    """The layout: page states, reverse map, erase counts and counters."""
    flash = ssd.flash
    return {
        "states": bytes(flash._state),
        "lpas": flash._lpa.tolist(),
        "erases": flash.erase_counts(),
        "counters": asdict(flash.counters),
    }


def fitted(ssd: SimulatedSSD) -> Tuple[int, int]:
    """The mappings and segments the table fitted: learned minus carried."""
    stats = ssd.ftl.table.stats
    return (
        stats.mappings_learned - stats.mappings_carried,
        stats.segments_learned - stats.segments_carried,
    )


def timelines(ssd: SimulatedSSD) -> List[Tuple[float, float]]:
    """Every channel's busy-until and bus time."""
    scheduler = ssd.scheduler
    return [(scheduler.busy_until(ch), scheduler.bus_time_us(ch)) for ch in range(ssd.config.channels)]


lpas = st.integers(min_value=0, max_value=CONFIG.logical_pages - 1)
command = st.one_of(
    st.tuples(st.just("W"), lpas, st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("R"), lpas, st.integers(min_value=1, max_value=16)),
)
step = st.one_of(
    command,
    st.tuples(st.sampled_from(["F", "P"]), st.just(0), st.just(0)),
    st.tuples(st.sampled_from(["G", "L"]), st.integers(0, 63), st.just(0)),
)
history = st.lists(step, min_size=1, max_size=40)


@pytest.mark.parametrize("gamma", [0, 1, 4])
@given(steps=history, seed=st.integers(0, 3))
@settings(max_examples=EXAMPLES, deadline=None)
def test_carry_keeps_the_relearned_layout_and_answers(gamma, steps, seed):
    carrying = device(leaftl(LeaFTL, gamma), "sync")
    reference = device(leaftl(RelearningLeaFTL, gamma), "sync")
    for ssd in (carrying, reference):
        ssd.run(aging(CONFIG, seed), drain=False, queue_depth=1)
    lockstep = True
    for index, item in enumerate(steps):
        unowned = unowned_segments(carrying.ftl)
        for ssd in (carrying, reference):
            apply(ssd, item)
        if item[0] in ("G", "L"):
            assert unowned_segments(carrying.ftl) <= unowned, (index, item)
        # The cold stream opens its next block on the least busy channel.
        # At gamma > 0 the two tables mispredict different reads, and a fix
        # read on one side only can steer a later migration elsewhere: the
        # layouts must agree while the channel timelines do, and at gamma 0
        # they always do.
        lockstep = lockstep and timelines(carrying) == timelines(reference)
        assert lockstep or gamma > 0, (index, item)
        if lockstep:
            assert flash_state(carrying) == flash_state(reference), (index, item)
            assert carrying.live_mappings() == reference.live_mappings()
            learned = [ssd.ftl.table.stats.mappings_learned for ssd in (carrying, reference)]
            assert learned[0] == learned[1], (index, item)
            fits = [fitted(ssd) for ssd in (carrying, reference)]
            assert all(ours <= theirs for ours, theirs in zip(*fits)), (index, item, fits)
        else:
            assert carrying.live_mappings().keys() == reference.live_mappings().keys()
        carrying.ftl.table.validate()
        reference.ftl.table.validate()
        answers = [check_predictions(ssd, gamma) for ssd in (carrying, reference)]
        if gamma == 0:
            assert answers[0] == answers[1]
    assert_gc_invariants(carrying)


def gap_history() -> Tuple[SimulatedSSD, SimulatedSSD]:
    """The carrying and the relearning device at γ = 0 after the shared
    aging of seed 2 and a flush, where the two tables' sizes part."""
    carrying = device(leaftl(LeaFTL, 0), "sync")
    reference = device(leaftl(RelearningLeaFTL, 0), "sync")
    for ssd in (carrying, reference):
        ssd.run(aging(CONFIG, 2), drain=False, queue_depth=1)
        ssd.flush()
    return carrying, reference


def test_the_gap_history_keeps_the_layout_answers_and_fitting_bound():
    carrying, reference = gap_history()
    assert flash_state(carrying) == flash_state(reference)
    assert check_predictions(carrying, 0) == check_predictions(reference, 0)
    ours, theirs = fitted(carrying), fitted(reference)
    assert ours[0] < theirs[0] and ours[1] < theirs[1], (ours, theirs)


def test_carrying_holds_no_more_segments_than_relearning():
    """On the gap history carrying once held 146 segments against 138: the
    fourth compaction stopped at its first pass that did not shrink the
    table and left six levels under carry against five under relearn.  A
    refit now drops each owner it empties, and carrying holds 112."""
    carrying, reference = gap_history()
    segments = [ssd.ftl.table.segment_count() for ssd in (carrying, reference)]
    assert segments[0] <= segments[1], segments


def test_a_migration_carries_whole_owners_and_counts_them():
    """Two flushes share a block, one segment each: the block moves whole,
    so both segments are re-based in place, not fitted, and still count as
    learned."""
    ssd = device(leaftl(LeaFTL, 0), "sync")
    ssd.run([("W", 0, 8), ("W", 100, 8)], queue_depth=1)
    group = ssd.ftl.table.group_for(0)
    segments = group.segments()
    assert len(segments) == 2
    block = ssd.live_mappings()[0] // CONFIG.pages_per_block
    assert ssd.live_mappings()[107] // CONFIG.pages_per_block == block
    ssd.gc.collect([block], "gc", ssd.now_us)
    assert ssd.live_mappings()[0] // CONFIG.pages_per_block != block
    assert group.segments() == segments
    group.validate()
    live = ssd.live_mappings()
    for start in (0, 100):
        assert ssd.ftl.translate_range(start, 8) == [live[lpa] for lpa in range(start, start + 8)]
    stats = ssd.ftl.table.stats
    assert (stats.segments_carried, stats.mappings_carried) == (2, 16)
    assert (stats.segments_learned, stats.mappings_learned) == (4, 32)


@given(steps=history, seed=st.integers(0, 3))
@settings(max_examples=EXAMPLES, deadline=None)
def test_leaftl_programs_and_erases_like_the_page_map(steps, seed):
    """ROADMAP item 2e: at γ = 0, with the table inside its DRAM budget,
    the learned FTL leaves the layout to the write path and reclaim alone."""
    # Both tables fit in the first 4 KB of 64 (512 LPAs x 8 B for the page
    # map), so both data caches are 15 pages and the two devices read alike.
    dram = DRAMBudget(dram_bytes=64 * KB, min_cache_bytes=8 * KB)
    learned = device(leaftl(LeaFTL, 0), "sync", dram)
    exact = device(PageLevelFTL(), "sync", dram)
    for ssd in (learned, exact):
        ssd.run(aging(CONFIG, seed), drain=False, queue_depth=1)
        for item in steps:
            apply(ssd, item)
    assert learned.stats.peak_mapping_bytes <= dram.mapping_budget()
    assert learned.cache.capacity_pages == exact.cache.capacity_pages == 15
    assert flash_state(learned) == flash_state(exact)
