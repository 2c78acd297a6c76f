"""Tests for the flash substrate: geometry, array state machine, allocator, OOB."""

from __future__ import annotations

import pytest

from repro.config import SSDConfig
from repro.flash.allocator import BlockAllocator, OutOfSpaceError
from repro.flash.flash_array import FlashArray, FlashError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.oob import (
    OOBArea,
    max_neighbor_entries,
    required_oob_bytes,
    validate_gamma_fits_oob,
)


@pytest.fixture
def config():
    return SSDConfig.tiny()


@pytest.fixture
def flash(config):
    return FlashArray(config)


class TestGeometry:
    def test_block_pages_are_contiguous(self, config):
        geo = FlashGeometry(config)
        assert geo.total_pages == geo.total_blocks * geo.pages_per_block
        per_channel = geo.total_blocks // geo.channels
        for block in (0, 3, per_channel - 1, per_channel, geo.total_blocks - 1):
            assert geo.first_ppa_of_block(block) == block * geo.pages_per_block
            assert geo.block_to_channel(block) == block // per_channel


class TestFlashArray:
    def test_program_then_read(self, flash):
        finish = flash.program_page(0, lpa=42, now_us=0.0)
        assert finish == pytest.approx(flash.config.write_latency_us / flash.config.dies_per_channel)
        assert flash.page_state(0) is PageState.VALID
        assert flash.lpa_of(0) == 42
        flash.read_page(0)
        assert flash.counters.page_reads == 1

    def test_read_of_unwritten_page_rejected(self, flash):
        with pytest.raises(FlashError):
            flash.read_page(0)

    def test_out_of_place_constraint(self, flash):
        flash.program_page(0, lpa=1)
        with pytest.raises(FlashError):
            flash.program_page(0, lpa=2)

    def test_in_order_programming_within_block(self, flash):
        flash.program_page(0, lpa=1)
        with pytest.raises(FlashError):
            flash.program_page(2, lpa=3)  # skips page offset 1

    def test_invalidate_and_erase(self, flash):
        for offset in range(4):
            flash.program_page(offset, lpa=offset)
        assert flash.valid_page_count(0) == 4
        with pytest.raises(FlashError):
            flash.erase_block(0)  # still has valid pages
        for offset in range(4):
            flash.invalidate_page(offset)
        flash.erase_block(0)
        assert flash.erase_count(0) == 1
        assert flash.page_state(0) is PageState.FREE
        # After erase the block can be programmed again from offset 0.
        flash.program_page(0, lpa=9)

    def test_double_invalidate_rejected(self, flash):
        flash.program_page(0, lpa=1)
        flash.invalidate_page(0)
        with pytest.raises(FlashError):
            flash.invalidate_page(0)

    def test_oob_round_trip(self, flash):
        oob = OOBArea(lpa=5, neighbor_lpas=[None, 5, 6])
        flash.program_page(0, lpa=5, oob=oob)
        stored = flash.oob_of(0)
        assert stored.lpa == 5
        assert stored.neighbor_lpas == [None, 5, 6]

    def test_channel_occupancy_serializes_reads(self, flash):
        flash.program_page(0, lpa=0)
        first = flash.read_page(0, now_us=0.0)
        second = flash.read_page(0, now_us=0.0)
        assert second > first  # the same channel cannot overlap two reads

    def test_valid_ppas_of_block(self, flash):
        for offset in range(6):
            flash.program_page(offset, lpa=offset)
        flash.invalidate_page(2)
        assert flash.valid_ppas_of_block(0) == [0, 1, 3, 4, 5]

    def test_read_runs_charge_one_burst_and_refuse_free_or_foreign_pages(self, flash):
        pages = flash.config.pages_per_block
        for offset in range(4):
            flash.program_page(offset, lpa=offset)
        flash.invalidate_page(1)  # INVALID pages stay readable
        single = FlashArray(flash.config)
        for offset in range(4):
            single.program_page(offset, lpa=offset)
        assert flash.read_page_run([0, 2, 3], now_us=5.0) == [
            single.read_page(ppa, now_us=5.0) for ppa in (0, 2, 3)
        ][-1]
        assert flash.read_oob_run(range(0, 4), now_us=0.0) == [
            single.read_oob(ppa, now_us=0.0) for ppa in range(4)
        ][-1]
        assert (flash.counters.page_reads, flash.counters.oob_reads) == (3, 4)
        assert flash.read_page_run([], now_us=7.0) == flash.read_oob_run(range(0), 7.0) == 7.0
        with pytest.raises(FlashError, match="unwritten page ppa=4"):
            flash.read_page_run([3, 4, 2])  # page 4 is past the write pointer
        with pytest.raises(FlashError, match="unwritten page ppa=5"):
            flash.read_oob_run(range(2, 6))
        flash.program_page(pages, lpa=9)  # first page of block 1
        with pytest.raises(FlashError, match="crosses a block boundary"):
            flash.read_page_run([3, pages])
        assert (flash.counters.page_reads, flash.counters.oob_reads) == (3, 4)

    #: Every public page / block operation, called with the index under test.
    PAGE_OPERATIONS = {
        "page_state": lambda flash, ppa: flash.page_state(ppa),
        "is_free": lambda flash, ppa: flash.is_free(ppa),
        "lpa_of": lambda flash, ppa: flash.lpa_of(ppa),
        "oob_of": lambda flash, ppa: flash.oob_of(ppa),
        "read_page": lambda flash, ppa: flash.read_page(ppa),
        "read_oob": lambda flash, ppa: flash.read_oob(ppa),
        "read_page_run": lambda flash, ppa: flash.read_page_run([ppa]),
        "read_oob_run": lambda flash, ppa: flash.read_oob_run([ppa]),
        "program_page": lambda flash, ppa: flash.program_page(ppa, lpa=1),
        "program_run": lambda flash, ppa: flash.program_run(ppa, [1], [None], 0, {}),
        "program_run(old copy)": lambda flash, ppa: flash.program_run(0, [1], [ppa], 0, {}),
        "invalidate_page": lambda flash, ppa: flash.invalidate_page(ppa),
    }
    BLOCK_OPERATIONS = {
        "erase_count": lambda flash, block: flash.erase_count(block),
        "block_age": lambda flash, block: flash.block_age(block),
        "valid_page_count": lambda flash, block: flash.valid_page_count(block),
        "write_pointer": lambda flash, block: flash.write_pointer(block),
        "block_is_full": lambda flash, block: flash.block_is_full(block),
        "block_is_free": lambda flash, block: flash.block_is_free(block),
        "valid_ppas_of_block": lambda flash, block: flash.valid_ppas_of_block(block),
        "programmed_ppas_of_block": lambda flash, block: flash.programmed_ppas_of_block(block),
        "erase_block": lambda flash, block: flash.erase_block(block),
    }

    @pytest.mark.parametrize("bad", ["-1", "total"])
    @pytest.mark.parametrize(
        "kind, name",
        [("PPA", name) for name in PAGE_OPERATIONS] + [("block", name) for name in BLOCK_OPERATIONS],
    )
    def test_out_of_range_index_is_a_flash_error_not_a_wrapped_read(self, config, kind, name, bad):
        """A negative index must not wrap onto the array's last page / block
        (programmed here, so a wrapped ``read_page(-1)`` would succeed) and
        an index past the end must not surface as a bare ``IndexError``."""
        flash = FlashArray(config)
        last_block = flash.geometry.total_blocks - 1
        first = flash.geometry.first_ppa_of_block(last_block)
        pages = flash.geometry.pages_per_block
        flash.program_run(first, list(range(pages)), [None] * pages, 0, {})
        if kind == "PPA":
            total, operation = flash.geometry.total_pages, self.PAGE_OPERATIONS[name]
        else:
            total, operation = flash.geometry.total_blocks, self.BLOCK_OPERATIONS[name]
        index = -1 if bad == "-1" else total
        with pytest.raises(FlashError, match=rf"{kind} {index} out of range \[0, {total}\)"):
            operation(flash, index)
        assert flash.valid_page_count(last_block) == pages
        assert (flash.counters.page_reads, flash.counters.oob_reads) == (0, 0)


class TestAllocator:
    def test_allocation_rotates_channels(self, flash):
        allocator = BlockAllocator(flash)
        channels = {
            flash.geometry.block_to_channel(allocator.allocate_block())
            for _ in range(flash.config.channels)
        }
        assert len(channels) == flash.config.channels

    def test_gc_candidates_exclude_active_and_free(self, flash):
        allocator = BlockAllocator(flash)
        block = allocator.allocate_block()
        first_ppa = flash.geometry.first_ppa_of_block(block)
        flash.program_page(first_ppa, lpa=0)
        assert block not in allocator.gc_candidates()  # still active
        allocator.seal_block(block)
        assert block in allocator.gc_candidates()

    def test_release_requires_erased_block(self, flash):
        allocator = BlockAllocator(flash)
        block = allocator.allocate_block()
        first_ppa = flash.geometry.first_ppa_of_block(block)
        flash.program_page(first_ppa, lpa=0)
        allocator.seal_block(block)
        with pytest.raises(ValueError):
            allocator.release_block(block)

    def test_exhaustion_raises(self, flash):
        allocator = BlockAllocator(flash)
        for _ in range(allocator.total_blocks):
            allocator.allocate_block()
        with pytest.raises(OutOfSpaceError):
            allocator.allocate_block()

    def test_free_ratio_accounting(self, flash):
        allocator = BlockAllocator(flash)
        assert allocator.free_ratio() == pytest.approx(1.0)
        allocator.allocate_block()
        assert allocator.free_ratio() < 1.0


class TestOOBHelpers:
    def test_required_bytes(self):
        # The page's own reverse mapping (1 entry) plus 2*gamma neighbours.
        assert required_oob_bytes(0) == 4
        assert required_oob_bytes(4) == 36
        assert required_oob_bytes(15) == 124
        assert required_oob_bytes(16) == 132

    def test_max_entries(self):
        assert max_neighbor_entries(128) == 32

    def test_gamma_must_fit(self):
        validate_gamma_fits_oob(4, 128)
        with pytest.raises(ValueError):
            validate_gamma_fits_oob(16, 64)

    def test_gamma_boundary_at_128_bytes(self):
        # gamma=15 needs exactly 124 bytes and fits a 128-byte spare area;
        # gamma=16 needs 132 bytes (33 entries) and requires 256 bytes.
        validate_gamma_fits_oob(15, 128)
        with pytest.raises(ValueError):
            validate_gamma_fits_oob(16, 128)
        validate_gamma_fits_oob(16, 256)


class TestOOBParity:
    """Lazy (gamma=0, synthesized) vs stored (gamma>0) OOB equivalence.

    The recovery scan reads each programmed page's own reverse mapping
    through ``oob_of()``; these tests pin that the synthesized and stored
    representations agree on that field through the page lifecycle.
    """

    def _program_pattern(self, flash, gamma):
        """Program a small overwrite-heavy pattern; returns lpa-by-ppa."""
        lpas = [3, 7, 7, 1, 5, 3]
        expected = {}
        for ppa, lpa in enumerate(lpas):
            old = None
            for prev_ppa, prev_lpa in expected.items():
                if prev_lpa == lpa and flash.page_state(prev_ppa) is PageState.VALID:
                    old = prev_ppa
            flash.program_run(ppa, [lpa], [old], gamma, {ppa: lpa}, 0.0)
            expected[ppa] = lpa
        return expected

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_own_lpa_after_program(self, config, gamma):
        flash = FlashArray(config)
        expected = self._program_pattern(flash, gamma)
        for ppa, lpa in expected.items():
            oob = flash.oob_of(ppa)
            assert oob is not None
            assert oob.lpa == lpa

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_own_lpa_survives_invalidate(self, config, gamma):
        # Invalidation marks the page dead but keeps the reverse mapping —
        # the recovery scan must still see who the page belonged to.
        flash = FlashArray(config)
        expected = self._program_pattern(flash, gamma)
        for ppa in expected:
            if flash.page_state(ppa) is PageState.VALID:
                flash.invalidate_page(ppa)
        for ppa, lpa in expected.items():
            oob = flash.oob_of(ppa)
            assert oob is not None
            assert oob.lpa == lpa

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_erase_clears_oob(self, config, gamma):
        # Erase is the one OOB-invalidation story: stored areas are popped
        # wholesale and the synthesized view returns None alike.
        flash = FlashArray(config)
        expected = self._program_pattern(flash, gamma)
        for ppa in expected:
            if flash.page_state(ppa) is PageState.VALID:
                flash.invalidate_page(ppa)
        flash.erase_block(0)
        for ppa in expected:
            assert flash.oob_of(ppa) is None
