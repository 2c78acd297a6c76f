"""Unit tests for static wear leveling, driven through the reclaim controller.

The wear pass lives on :class:`repro.ssd.gc.BackgroundGCController` and is
checked once per flush (:meth:`after_flush`).  These tests pin its
contract: the check runs at most once per ``WEAR_CHECK_ERASES`` erases, a
check that finds wear balanced leaves the window open (the old bug: every
probe reset it, so a balanced check pushed the next one a full interval
out) and only a pass restarts it; a pass needs a spread strictly above
``WEAR_IMBALANCE``; the cold block is the least erased one holding valid
data, most valid pages first.  The module constants are monkeypatched to
small values so the histories stay short, and ``collect`` is replaced by a
recorder so each test sees exactly which block a pass would migrate.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.flash.flash_array import FlashArray
from repro.ssd import gc
from tests.conftest import make_ssd


@pytest.fixture
def ssd(monkeypatch):
    monkeypatch.setattr(gc, "WEAR_CHECK_ERASES", 4)
    monkeypatch.setattr(gc, "WEAR_IMBALANCE", 2)
    return make_ssd()


def record_passes(ssd):
    """Replace the controller's ``collect`` by a recorder of wear passes."""
    passes = []

    def collect(victims, purpose, clock):
        assert purpose == "wear"
        passes.append(list(victims))
        return clock

    ssd.gc.collect = collect
    return passes


def fill_block(flash: FlashArray, block: int, base_lpa: int) -> None:
    """Program a whole block with distinct LPAs (no prior copies)."""
    pages = flash.geometry.pages_per_block
    first = block * pages
    lpas = list(range(base_lpa, base_lpa + pages))
    flash.program_run(first, lpas, [None] * pages, 0, {}, 0.0)


def churn_block(flash: FlashArray, block: int, erases: int) -> None:
    """Run program/invalidate/erase cycles to raise a block's erase count."""
    pages = flash.geometry.pages_per_block
    first = block * pages
    for _ in range(erases):
        lpas = list(range(pages))
        flash.program_run(first, lpas, [None] * pages, 0, {}, 0.0)
        for ppa in range(first, first + pages):
            flash.invalidate_page(ppa)
        flash.erase_block(block, now_us=0.0)


def sealed_block(ssd, base_lpa: int, erases: int = 0) -> int:
    """Open a host-stream block, churn it ``erases`` times, fill and seal it."""
    flash, allocator = ssd.flash, ssd.allocator
    block, _, _ = allocator.frontier("hot")
    churn_block(flash, block, erases)
    fill_block(flash, block, base_lpa)
    allocator.seal_if_full(block)
    return block


def sealed_blocks(ssd, count: int) -> List[int]:
    """Fill and seal ``count`` host-stream blocks (cold candidates)."""
    return [sealed_block(ssd, index * 1000) for index in range(count)]


#: A block neither allocated nor filled: churning it skews wear only.
WORN = 40


class TestDueThrottle:
    def test_not_due_before_interval(self, ssd):
        sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        churn_block(ssd.flash, WORN, erases=3)
        ssd.gc.after_flush(0.0)
        assert passes == []

    def test_due_after_interval(self, ssd):
        (cold,) = sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        churn_block(ssd.flash, WORN, erases=4)
        ssd.gc.after_flush(0.0)
        assert passes == [[cold]]

    def test_balanced_check_keeps_the_window_open(self, ssd):
        """A check that finds wear balanced must not consume the window:
        two more erases (six since the start, two since the balanced check)
        are enough for the next check to run a pass."""
        (cold,) = sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        for block in range(WORN, WORN + 4):
            churn_block(ssd.flash, block, erases=1)
        ssd.gc.after_flush(0.0)
        ssd.gc.after_flush(0.0)
        assert passes == []  # four erases, spread 1: balanced
        churn_block(ssd.flash, WORN, erases=2)
        ssd.gc.after_flush(0.0)
        assert passes == [[cold]]

    def test_pass_restarts_window(self, ssd):
        (cold,) = sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        churn_block(ssd.flash, WORN, erases=4)
        ssd.gc.after_flush(0.0)
        ssd.gc.after_flush(0.0)  # still imbalanced, but the window restarted
        assert passes == [[cold]]
        churn_block(ssd.flash, WORN + 1, erases=4)
        ssd.gc.after_flush(0.0)
        assert passes == [[cold], [cold]]


class TestImbalance:
    def test_fresh_array_balanced(self, ssd, monkeypatch):
        monkeypatch.setattr(gc, "WEAR_CHECK_ERASES", 0)
        sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        ssd.gc.after_flush(0.0)
        assert passes == []

    def test_spread_over_threshold_triggers(self, ssd, monkeypatch):
        monkeypatch.setattr(gc, "WEAR_CHECK_ERASES", 1)
        (cold,) = sealed_blocks(ssd, 1)
        passes = record_passes(ssd)
        churn_block(ssd.flash, WORN, erases=2)
        ssd.gc.after_flush(0.0)
        assert passes == []  # spread == threshold: not yet
        churn_block(ssd.flash, WORN, erases=1)
        ssd.gc.after_flush(0.0)
        assert passes == [[cold]]


class TestColdBlockSelection:
    def test_prefers_least_erased_then_most_valid(self, ssd):
        # Three sealed blocks with valid data; the first is the most worn.
        worn = sealed_block(ssd, 0, erases=5)
        drained, full = sealed_block(ssd, 1000), sealed_block(ssd, 2000)
        assert worn not in (drained, full)
        # Drain one page: equal wear to ``full``, fewer valid pages.
        ssd.flash.invalidate_page(block_first_ppa(ssd.flash, drained))
        passes = record_passes(ssd)
        ssd.gc.after_flush(0.0)
        assert passes == [[full]]

    def test_skips_blocks_without_valid_data(self, ssd):
        flash = ssd.flash
        empty, cold = sealed_blocks(ssd, 2)
        for ppa in flash.programmed_ppas_of_block(empty):
            flash.invalidate_page(ppa)
        passes = record_passes(ssd)
        churn_block(flash, WORN, erases=4)
        ssd.gc.after_flush(0.0)
        assert passes == [[cold]]


def block_first_ppa(flash: FlashArray, block: int) -> int:
    return block * flash.geometry.pages_per_block
