"""Tests for the flash substrate: geometry, array state machine, allocator, OOB."""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.flash.allocator import BlockAllocator, OutOfSpaceError
from repro.flash.flash_array import FlashArray, FlashError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.oob import (
    oob_size_for_gamma,
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
        flash.program_page(0, lpa=5, window=[-1, 5, 6])
        assert flash.lpa_of(0) == 5
        assert flash.oob_window_of(0) == array("q", [-1, 5, 6])

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

    def test_read_chunk_senses_each_page_then_its_fixes(self, flash):
        for offset in range(4):
            flash.program_page(offset, lpa=10 + offset)
        single = FlashArray(flash.config)
        for offset in range(4):
            single.program_page(offset, lpa=10 + offset)
        asked = []

        def fixes(lpa, ppa):
            asked.append((lpa, ppa))
            return ppa, [2]

        # LPA 12 is predicted at page 3, which holds 13: sense 3, then fix at 2.
        first = single.read_page(0, now_us=5.0)
        mispredicted = single.read_page(3, now_us=5.0)
        fixed = single.read_page(2, now_us=mispredicted)
        last = single.read_page(3, now_us=5.0)
        assert flash.read_chunk([10, 12, 13], [0, 3, 3], 5.0, fixes) == (
            [first, mispredicted, last],
            [first, fixed, last],
        )
        assert asked == [(12, 3)]
        assert flash.counters.page_reads == single.counters.page_reads == 4
        assert flash.channel_busy_until(0) == single.channel_busy_until(0)
        # A superseded copy still holds its LPA but no longer answers for it.
        flash.invalidate_page(0)
        flash.read_chunk([10], [0], 5.0, fixes)
        assert asked == [(12, 3), (10, 0)]
        with pytest.raises(FlashError, match="unwritten page ppa=4"):
            flash.read_chunk([12], [3], 0.0, lambda lpa, ppa: (ppa, [4]))

    #: Every public page / block operation, called with the index under test.
    PAGE_OPERATIONS = {
        "page_state": lambda flash, ppa: flash.page_state(ppa),
        "is_free": lambda flash, ppa: flash.is_free(ppa),
        "is_live_copy": lambda flash, ppa: flash.is_live_copy(ppa, 1),
        "lpa_of": lambda flash, ppa: flash.lpa_of(ppa),
        "oob_window_of": lambda flash, ppa: flash.oob_window_of(ppa),
        "read_chunk": lambda flash, ppa: flash.read_chunk(
            [1], [ppa], 0.0, lambda lpa, at: (at, ())
        ),
        "read_chunk(fix)": lambda flash, ppa: flash.read_chunk(
            [99], [flash.geometry.total_pages - 1], 0.0, lambda lpa, at: (at, [ppa])
        ),
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

    def test_spare_size_for_gamma(self):
        # The smallest standard spare area (128, 256, ... bytes) that fits.
        assert [oob_size_for_gamma(gamma) for gamma in (0, 15, 16, 31, 32)] == [
            128, 128, 256, 256, 512
        ]

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
    """The OOB's own reverse mapping through the page lifecycle, at gamma 0 and 2.

    At gamma 2 the first two pages of the block hold stored edge windows
    and the rest are derived from the page array; both must name the
    page's own LPA until the block's erase.
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
            assert flash.oob_window_of(ppa)[gamma] == lpa

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
            assert flash.oob_window_of(ppa)[gamma] == lpa

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_erase_clears_oob(self, config, gamma):
        # Erase is the one OOB-invalidation story: stored windows are popped
        # wholesale and the derived view returns None alike.
        flash = FlashArray(config)
        expected = self._program_pattern(flash, gamma)
        for ppa in expected:
            if flash.page_state(ppa) is PageState.VALID:
                flash.invalidate_page(ppa)
        flash.erase_block(0)
        for ppa in expected:
            assert flash.oob_window_of(ppa) is None


#: Four blocks of eight pages on two channels: every window of gamma <= 3
#: either stays in its block or reaches exactly one neighbour.
TINY_FLASH = SSDConfig(
    capacity_bytes=32 * 4096, page_size=4096, pages_per_block=8, channels=2, overprovisioning=0.0
)


class TestOOBView:
    """The OOB is derived from the page array except where a window leaves its block."""

    def test_edge_window_keeps_the_neighbour_block_as_it_was_at_program_time(self):
        """A window reaching into the adjacent block is a snapshot, not a view.

        Block 1's first page sees block 0's last two LPAs; after block 0 is
        erased and reprogrammed it still names the old ones — this is how
        an OOB correction fails over to the error-window scan on an aged
        device.  Block 0's last page saw block 1 FREE, and keeps ``-1`` (no
        LPA) after block 1 is programmed.
        """
        flash = FlashArray(TINY_FLASH)
        flash.program_run(0, list(range(8)), [None] * 8, 2, {})
        flash.program_run(8, [20, 21], [None] * 2, 2, {})
        assert flash.oob_window_of(7).tolist() == [5, 6, 7, -1, -1]
        assert flash.oob_window_of(8).tolist() == [6, 7, 20, 21, -1]
        for ppa in range(8):
            flash.invalidate_page(ppa)
        flash.erase_block(0)
        flash.program_run(0, list(range(100, 108)), [None] * 8, 2, {})
        assert flash.oob_window_of(8).tolist() == [6, 7, 20, 21, -1]
        assert flash.oob_window_of(7).tolist() == [105, 106, 107, 20, 21]
        assert flash.oob_window_of(9).tolist() == [7, 20, 21, -1, -1]

    def test_only_edge_windows_are_stored(self):
        """An edge window is the LPA array's slice, ``-1`` where FREE or off it."""
        flash = FlashArray(TINY_FLASH)
        flash.program_run(0, list(range(8)), [None] * 8, 2, {})
        assert sorted(flash._windows) == [0, 1, 6, 7]
        assert flash._windows[0] == array("q", [-1, -1, 0, 1, 2])
        assert flash._windows[7] == array("q", [5, 6, 7, -1, -1])
        flash.program_run(8, list(range(8)), [None] * 8, 0, {})
        assert sorted(flash._windows) == [0, 1, 6, 7]

    def test_erase_forgets_the_window_gamma(self):
        flash = FlashArray(TINY_FLASH)
        flash.program_run(0, list(range(8)), [None] * 8, 2, {})
        for ppa in range(8):
            flash.invalidate_page(ppa)
        flash.erase_block(0)
        flash.program_run(0, list(range(10, 18)), [None] * 8, 0, {})
        assert [flash.oob_window_of(ppa).tolist() for ppa in range(8)] == [
            [lpa] for lpa in range(10, 18)
        ]


def _eager_window(
    ppa: int, lpa: int, gamma: int, batch_lpas: Dict[int, int], lpa_at: Dict[int, int], total: int
) -> List[Optional[int]]:
    """The window ``program_run`` used to build and store for every page.

    Pages of the current batch take precedence, then whatever flash holds
    (``lpa_at``: LPA by programmed PPA), ``None`` for a FREE page or one
    off the array.
    """
    neighbors: List[Optional[int]] = []
    for neighbor_ppa in range(ppa - gamma, ppa + gamma + 1):
        if neighbor_ppa == ppa:
            neighbors.append(lpa)
            continue
        value = batch_lpas.get(neighbor_ppa)
        if value is None and 0 <= neighbor_ppa < total:
            value = lpa_at.get(neighbor_ppa)
        neighbors.append(value)
    return neighbors


@given(gamma=st.sampled_from([0, 1, 2, 3]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_oob_view_equals_the_eager_snapshot(gamma, data):
    """``oob_window_of`` and ``lpa_of`` against an eager model, after every step.

    Steps are ``program_run`` (any length the block still has room for,
    invalidating the LPAs' old copies), ``invalidate_page``, drain-and-erase
    of a block (often the neighbour of an edge page) and ``program_page``.
    The model stores each page's OOB at program time, as the device did
    before windows became a view of the page array.
    """
    flash = FlashArray(TINY_FLASH)
    pages, total = TINY_FLASH.pages_per_block, TINY_FLASH.physical_pages
    blocks = total // pages
    lpa_at: Dict[int, int] = {}
    model: Dict[int, List[Optional[int]]] = {}  # ppa -> its window
    live: Dict[int, int] = {}  # lpa -> its VALID ppa
    lpa_values = st.integers(0, 23)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        open_blocks = [b for b in range(blocks) if flash.write_pointer(b) < pages]
        written = [b for b in range(blocks) if flash.write_pointer(b)]
        kinds = (["run", "page"] if open_blocks else []) + (["invalidate", "erase"] if written else [])
        kind = data.draw(st.sampled_from(kinds), label="step")
        if kind in ("run", "page"):
            block = data.draw(st.sampled_from(open_blocks), label="block")
            first = block * pages + flash.write_pointer(block)
            room = (block + 1) * pages - first
            if kind == "run":
                count = data.draw(st.integers(1, room), label="count")
                lpas = data.draw(st.lists(lpa_values, min_size=count, max_size=count, unique=True))
                old_ppas = [live.get(lpa) for lpa in lpas]
                batch = {first + index: lpa for index, lpa in enumerate(lpas)}
                for ppa, lpa in batch.items():
                    model[ppa] = _eager_window(ppa, lpa, gamma, batch, lpa_at, total)
                flash.program_run(first, lpas, old_ppas, gamma, {})
            else:
                lpas = [data.draw(lpa_values, label="lpa")]
                old_ppas = [live.get(lpas[0])]
                model[first] = []
                flash.program_page(first, lpas[0])
                if old_ppas[0] is not None:
                    flash.invalidate_page(old_ppas[0])
            # An old copy keeps its reverse mapping until its block's erase.
            for offset, lpa in enumerate(lpas):
                lpa_at[first + offset] = lpa
                live[lpa] = first + offset
        elif kind == "invalidate":
            valid = [ppa for b in written for ppa in flash.valid_ppas_of_block(b)]
            if not valid:
                continue
            ppa = data.draw(st.sampled_from(valid), label="ppa")
            flash.invalidate_page(ppa)
            del live[lpa_at[ppa]]
        else:
            block = data.draw(st.sampled_from(written), label="erase")
            for ppa in flash.valid_ppas_of_block(block):
                flash.invalidate_page(ppa)
                del live[lpa_at[ppa]]
            flash.erase_block(block)
            for ppa in range(block * pages, (block + 1) * pages):
                lpa_at.pop(ppa, None)
                model.pop(ppa, None)
        for ppa in range(total):
            assert flash.lpa_of(ppa) == lpa_at.get(ppa), (kind, ppa)
            expected = model.get(ppa)
            window = flash.oob_window_of(ppa)
            if expected is None:
                assert window is None, (kind, ppa)
                continue
            # The accessor's window: -1 for None, maybe cut where only None follows.
            entries = [None if lpa == -1 else lpa for lpa in window]
            tail = expected[len(entries) :]
            assert (window.typecode, entries + tail) == ("q", expected), (kind, ppa)
            assert tail == [None] * len(tail), (kind, ppa)
