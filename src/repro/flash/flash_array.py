"""The NAND flash array: page state machine, OOB storage and access counters.

The array models the FTL-visible behaviour of NAND flash:

* pages are written out-of-place — a page must be FREE to be programmed and
  must be erased (at block granularity) before it can be programmed again;
* each block has an erase counter (used for wear-leveling studies and the
  write-amplification figure);
* each page has an OOB area storing reverse mappings (sized by
  :mod:`repro.flash.oob`) — a view of the page array, not a stored copy
  (below);
* every read/program/erase is accounted per channel so the SSD model can
  compute request latencies under channel parallelism.

The array does not store page payloads — the simulator is trace-driven and
only address translation correctness matters.  Each valid page remembers the
LPA it holds, which doubles as its "content" for verification purposes.

Hot-state layout
----------------

Page and block state live in flat parallel arrays rather than per-page enum
objects: page lifecycle codes in a ``bytearray`` (0 = FREE, 1 = VALID,
2 = INVALID), reverse LPAs in an ``array('q')`` with ``-1`` as the
no-mapping sentinel, and per-block counters in plain integer lists.  One
flash block occupies a contiguous PPA range (see
:mod:`repro.flash.geometry`), so block-granular operations are slice
operations, ``valid_page_count`` is an O(1) counter read, and
``valid_ppas_of_block`` is one scan over the block's state slice.  The
per-page OOB state is a window gamma (``bytearray``) and a run end
(``array('H')``); the few stored edge windows are ``array('q')`` slices of
the LPA array, not lists of integer objects.
The :class:`PageState` enum remains the public vocabulary of the API.

The OOB is written once, when a page is programmed, and is derived on
demand from the LPA array wherever that gives the same contents.  A page
``program_run`` wrote keeps only its window ``gamma`` and the block offset
its run ended at: every window entry below that offset names a page
programmed no later than the run, whose LPA survives until the block's
erase (which frees the page too), and every entry at or above it was FREE,
hence ``None``.  Only windows that reach into a neighbouring block — which
can be erased and reprogrammed while this page lives — are captured, at
most ``2 * gamma`` per block: each as the ``array('q')`` slice of the LPA
array it covered at program time (``-1`` for a FREE page or one off the
array).  The window a ``program_page`` call was given is stored the same
way.  One accessor, :meth:`FlashArray.oob_window_of`, serves every page:
the stored window, else the in-block slice of the LPA array cut at the
page's run end; the read path's misprediction fix reads that window.

Host reads
----------

A host read senses a *channel chunk* in one call
(:meth:`FlashArray.read_chunk`): per page it checks the reverse mapping of
the predicted page straight from the LPA array and, only when that check
fails, asks its caller which page to sense instead and which correction
reads follow it.  Every read is timed inline on the scheduler's
timelines, float for float the chain of one :meth:`NANDScheduler.reserve`
per read: a page's sense at the chunk's issue time, each correction read
at the previous read's finish.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.sim.nand import NANDScheduler


class PageState(enum.Enum):
    """Lifecycle of a flash page."""

    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


#: Page-state byte codes used in the flat state array.
_FREE, _VALID, _INVALID = 0, 1, 2
_CODE_TO_STATE = (PageState.FREE, PageState.VALID, PageState.INVALID)

#: Reverse-LPA sentinel meaning "page holds no mapping".
_NO_LPA = -1


class FlashError(RuntimeError):
    """Raised when an operation violates NAND flash constraints."""


@dataclass
class FlashCounters:
    """Aggregate operation counters for the whole array."""

    page_reads: int = 0
    page_writes: int = 0
    block_erases: int = 0
    oob_reads: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.block_erases = 0
        self.oob_reads = 0


class FlashArray:
    """A multi-channel NAND flash array with per-channel time accounting."""

    def __init__(
        self, config: SSDConfig, scheduler: Optional[NANDScheduler] = None
    ) -> None:
        self._config = config
        self._geometry = FlashGeometry(config)
        self._total_pages = total_pages = self._geometry.total_pages
        self._total_blocks = total_blocks = self._geometry.total_blocks

        self._state = bytearray(total_pages)  # all _FREE
        self._lpa = array("q", [_NO_LPA]) * total_pages
        #: Stored windows (``-1`` = ``None``): per page whose window reaches
        #: a neighbouring block, that window as it was at program time, and
        #: the window each ``program_page`` call was given.
        self._windows: Dict[int, array[int]] = {}
        #: Per page, the window gamma ``program_run`` wrote it with and the
        #: block offset that run ended at (read only while gamma > 0).
        self._gamma = bytearray(total_pages)
        self._run_end = array("H", [0]) * total_pages
        # Per-block parallel counters (indexed by global block id).
        self._erase_count: List[int] = [0] * total_blocks
        self._valid_pages: List[int] = [0] * total_blocks
        #: Next page offset to program (NAND requires in-order programming).
        self._write_pointer: List[int] = [0] * total_blocks
        #: Array-wide logical op-clock value of the last state change.
        self._last_modified_op: List[int] = [0] * total_blocks

        # Cached geometry scalars (block PPA ranges are contiguous).
        self._pages_per_block = config.pages_per_block
        self._pages_per_channel = config.pages_per_channel
        self._blocks_per_channel = config.blocks_per_channel
        #: A program or erase proceeds inside its die after the transfer, so
        #: operations on the dies of a channel overlap and each occupies the
        #: bus for ``cell time / dies_per_channel`` (see :mod:`repro.sim.nand`).
        self._dies_per_channel = config.dies_per_channel
        # Erase resets a block's slice wholesale; programming a run marks
        # its slice valid wholesale.
        self._free_states = bytes(self._pages_per_block)
        self._valid_states = bytes([_VALID]) * self._pages_per_block
        self._free_lpas = array("q", [_NO_LPA]) * self._pages_per_block

        self._scheduler = scheduler or NANDScheduler(
            config.channels, config.dies_per_channel
        )
        self.counters = FlashCounters()
        #: Logical clock: increments on every program/invalidate/erase.  It
        #: orders block modifications without depending on simulated time,
        #: so block ages are identical across replay engines.
        self._op_clock = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def geometry(self) -> FlashGeometry:
        return self._geometry

    @property
    def config(self) -> SSDConfig:
        return self._config

    def _out_of_range(self, kind: str, index: int, limit: int) -> FlashError:
        """The error every public operation raises for a bad PPA / block id.

        The flat arrays are indexed with caller-supplied integers, and a
        Python list wraps a negative index silently: each public method
        range-checks before it indexes.
        """
        return FlashError(f"{kind} {index} out of range [0, {limit})")

    def page_state(self, ppa: int) -> PageState:
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        return _CODE_TO_STATE[self._state[ppa]]

    def is_free(self, ppa: int) -> bool:
        """Cheap FREE test for the hot read path (no enum construction)."""
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        return self._state[ppa] == _FREE

    def is_live_copy(self, ppa: int, lpa: int) -> bool:
        """Whether ``ppa`` is a VALID page holding ``lpa`` (cheap hot-path test).

        Only such a page answers for ``lpa``: a superseded INVALID copy
        keeps its reverse mapping, and OOB windows keep naming it, until
        its block is erased.
        """
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        return self._lpa[ppa] == lpa and self._state[ppa] == _VALID

    def lpa_of(self, ppa: int) -> Optional[int]:
        """Reverse mapping stored in the page (None if FREE/never written)."""
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        lpa = self._lpa[ppa]
        return None if lpa == _NO_LPA else lpa

    def oob_window_of(self, ppa: int) -> Optional[array[int]]:
        """The reverse-mapping window in ``ppa``'s OOB (None if never written).

        Entry ``i`` is the LPA page ``ppa - gamma + i`` held, ``-1`` for
        none.  A stored window (an edge page's or a ``program_page``
        call's; see the module docstring) is returned as is and must not
        be mutated.  Otherwise it is a slice of the LPA array, which like
        the OOB survives invalidation and is cleared by erase: ``[lpa]`` at
        gamma 0, else ``[ppa - gamma, ppa + gamma]`` cut at the page's run
        end, past which every entry is ``None``.
        """
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        window = self._windows.get(ppa)
        if window is not None:
            return window
        lpas = self._lpa
        if lpas[ppa] == _NO_LPA:
            return None
        gamma = self._gamma[ppa]
        if not gamma:
            return lpas[ppa : ppa + 1]
        stop = ppa - ppa % self._pages_per_block + self._run_end[ppa]
        return lpas[ppa - gamma : stop if stop <= ppa + gamma else ppa + gamma + 1]

    def erase_count(self, block: int) -> int:
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._erase_count[block]

    def block_age(self, block: int) -> int:
        """Logical age: array-wide operations since the block last changed.

        A block that has not been programmed, invalidated or erased for many
        operations holds cold data; cost-benefit GC weighs this age against
        the migration cost of the block's valid pages.
        """
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._op_clock - self._last_modified_op[block]

    def valid_page_count(self, block: int) -> int:
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._valid_pages[block]

    def write_pointer(self, block: int) -> int:
        """Next programmable page offset within ``block``."""
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._write_pointer[block]

    def block_is_full(self, block: int) -> bool:
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._write_pointer[block] >= self._pages_per_block

    def block_is_free(self, block: int) -> bool:
        """True when every page of the block is FREE (freshly erased)."""
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        return self._write_pointer[block] == 0 and self._valid_pages[block] == 0

    def valid_ppas_of_block(self, block: int) -> List[int]:
        """All VALID PPAs in ``block`` (ascending order)."""
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        start = block * self._pages_per_block
        stop = start + self._pages_per_block
        block_states = self._state[start:stop]
        return [start + offset for offset, code in enumerate(block_states) if code == _VALID]

    # ------------------------------------------------------------------ #
    # Durable-state scan API (power-fail recovery)
    # ------------------------------------------------------------------ #
    def programmed_ppas_of_block(self, block: int) -> range:
        """All PPAs of ``block`` that have been programmed since its erase.

        Invalidation never frees a page, so the programmed region of a block
        is exactly the pages below its write pointer — an O(1) durable fact a
        recovery scan can enumerate without probing page states one by one.
        Both VALID and INVALID pages are included (their OOB reverse
        mappings survive until erase).
        """
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        start = block * self._pages_per_block
        return range(start, start + self._write_pointer[block])

    def block_generations(self) -> List[Tuple[int, int]]:
        """Per-block ``(erase_count, write_pointer)`` snapshot.

        Both components are durable (they are properties of the flash
        substrate itself), and together they order a block's history: a
        changed erase count means the block was recycled since the snapshot,
        while a grown write pointer under the same erase count means pages
        were appended.  Checkpoint-based recovery diffs two snapshots to
        find exactly the pages programmed since the checkpoint.
        """
        return list(zip(self._erase_count, self._write_pointer))

    @property
    def scheduler(self) -> NANDScheduler:
        """The NAND scheduler arbitrating channel-bus occupancy."""
        return self._scheduler

    def channel_busy_until(self, channel: int) -> float:
        """Simulated time (us) until which ``channel``'s bus is occupied."""
        return self._scheduler.busy_until(channel)

    # ------------------------------------------------------------------ #
    # Time accounting
    # ------------------------------------------------------------------ #
    def occupy_channel(self, channel: int, now_us: float, duration_us: float) -> float:
        """Schedule an operation on ``channel`` and return its finish time.

        Exposed so the SSD model can charge channel time for logically
        modelled traffic (e.g. DFTL translation-page I/O) that does not go
        through a specific data page.
        """
        return self._scheduler.reserve(channel, now_us, duration_us)

    # ------------------------------------------------------------------ #
    # Flash operations
    # ------------------------------------------------------------------ #
    def _sense(self, low: int, high: int, count: int, now_us: float, oob: bool) -> float:
        """Sense ``count`` pages of ONE block back to back; returns last finish.

        ``low`` / ``high`` are the burst's lowest and highest PPA.  The one
        read primitive behind the four public entries, which differ only in
        the counter they bump (``oob``: ``oob_reads``, else ``page_reads``).
        The pages share a channel, so the whole burst is one scheduler
        reservation — float for float the chain of one reservation per page
        at the same ``now_us``.  An OOB read costs a full page read: the
        spare area cannot be sensed without activating the page.

        Reading a FREE page is allowed by hardware but flagged here because
        it always indicates an FTL bug in the simulator (INVALID pages are
        readable).  A block is programmed in ascending order and only an
        erase frees a page, so its FREE pages are a suffix: the burst
        touches one exactly when ``high`` is FREE.
        """
        pages_per_block = self._pages_per_block
        if (
            not 0 <= low <= high < self._total_pages
            or low // pages_per_block != high // pages_per_block
            or self._state[high] == _FREE
        ):
            raise self._unreadable(low, high, "OOB read" if oob else "read")
        if oob:
            self.counters.oob_reads += count
        else:
            self.counters.page_reads += count
        return self._scheduler.reserve_run(
            low // self._pages_per_channel, now_us, self._config.read_latency_us, count
        )

    def _unreadable(self, low: int, high: int, what: str) -> FlashError:
        """Why :meth:`_sense` refused ``[low, high]`` (the cold path)."""
        if not 0 <= low <= high < self._total_pages:
            return self._out_of_range("PPA", low if low < 0 else high, self._total_pages)
        if low // self._pages_per_block != high // self._pages_per_block:
            return FlashError(f"{what} run ppa={low}..{high} crosses a block boundary")
        return FlashError(f"{what} of unwritten page ppa={high}")

    def read_page(self, ppa: int, now_us: float = 0.0) -> float:
        """Read a flash page; returns the completion time in microseconds."""
        return self._sense(ppa, ppa, 1, now_us, False)

    def read_page_run(self, ppas: Sequence[int], now_us: float = 0.0) -> float:
        """Read several pages of ONE block back to back; returns last finish.

        The GC migration read path: a victim's valid pages in one call.
        """
        if not ppas:
            return now_us
        return self._sense(min(ppas), max(ppas), len(ppas), now_us, False)

    def read_oob(self, ppa: int, now_us: float = 0.0) -> float:
        """Read only the OOB of a page (modelled with full page-read latency).

        The separate counter lets the benchmarks attribute the cost to
        misprediction handling.
        """
        return self._sense(ppa, ppa, 1, now_us, True)

    def read_oob_run(self, ppas: Sequence[int], now_us: float = 0.0) -> float:
        """Read the OOB of several pages of ONE block; returns last finish.

        The recovery scan's bulk primitive; the reverse mappings of INVALID
        pages are exactly what a scan must see to distinguish stale copies.
        """
        if not ppas:
            return now_us
        return self._sense(min(ppas), max(ppas), len(ppas), now_us, True)

    def read_chunk(
        self,
        lpas: Sequence[int],
        ppas: Sequence[int],
        now_us: float,
        misprediction_reads: Callable[[int, int], Tuple[int, Sequence[int]]],
    ) -> Tuple[List[float], List[float]]:
        """Sense host pages, predicted at ``ppas``, all issued at ``now_us``.

        The host read path's one flash call per channel chunk.  Page ``i``
        is done with one read when ``ppas[i]`` is the live copy of
        ``lpas[i]``: a VALID page whose reverse mapping, read from the LPA
        array, is that LPA.  Otherwise ``misprediction_reads(lpa, ppa)``
        names the page to sense in its place (``ppa`` itself when it is
        programmed) and the correction reads that follow it (Section 3.5),
        or raises.  Every sensed page passes :meth:`_sense`'s range and
        not-FREE checks.

        Reads are timed float for float like one :meth:`NANDScheduler.reserve`
        per read, in order, on the sensed page's channel: a page's sense
        starts at ``now_us``, each correction read at the previous read's
        finish.  Returns per page the finish of its sense and of its last
        read.
        """
        total_pages = self._total_pages
        state = self._state
        lpa_array = self._lpa
        pages_per_channel = self._pages_per_channel
        latency = self._config.read_latency_us
        busy_until, bus_time = self._scheduler.timelines()
        probe = self._scheduler.probe
        sensed: List[float] = []
        finished: List[float] = []
        reads = len(ppas)
        for lpa, ppa in zip(lpas, ppas):
            corrections: Sequence[int] = ()
            # :meth:`is_live_copy`, inline.
            if not (0 <= ppa < total_pages and lpa_array[ppa] == lpa and state[ppa] == _VALID):
                ppa, corrections = misprediction_reads(lpa, ppa)
                if not 0 <= ppa < total_pages or state[ppa] == _FREE:
                    raise self._unreadable(ppa, ppa, "read")
                reads += len(corrections)
            channel = ppa // pages_per_channel
            busy = busy_until[channel]
            start = now_us if now_us > busy else busy
            finish = start + latency
            busy_until[channel] = finish
            bus_time[channel] += latency
            if probe is not None:
                probe(channel, start, finish)
            sensed.append(finish)
            for ppa in corrections:
                if not 0 <= ppa < total_pages or state[ppa] == _FREE:
                    raise self._unreadable(ppa, ppa, "read")
                channel = ppa // pages_per_channel
                busy = busy_until[channel]
                start = finish if finish > busy else busy
                finish = start + latency
                busy_until[channel] = finish
                bus_time[channel] += latency
                if probe is not None:
                    probe(channel, start, finish)
            finished.append(finish)
        self.counters.page_reads += reads
        return sensed, finished

    def program_page(
        self,
        ppa: int,
        lpa: int,
        window: Sequence[int] = (),
        now_us: float = 0.0,
    ) -> float:
        """Program a FREE page with the data of ``lpa``.

        Its own reverse mapping is ``lpa``, and its OOB stores ``window``
        as given, in the format :meth:`oob_window_of` returns: entry ``i``
        the LPA of page ``ppa - gamma + i``, ``-1`` for none.  NAND
        constraints enforced:

        * the page must be FREE;
        * pages within a block must be programmed in ascending order.
        """
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        if self._state[ppa] != _FREE:
            raise FlashError(
                f"program of non-free page ppa={ppa} ({_CODE_TO_STATE[self._state[ppa]]})"
            )
        pages_per_block = self._pages_per_block
        block = ppa // pages_per_block
        offset = ppa - block * pages_per_block
        if offset != self._write_pointer[block]:
            raise FlashError(
                f"out-of-order program in block {block}: offset {offset}, "
                f"expected {self._write_pointer[block]}"
            )

        self._state[ppa] = _VALID
        self._lpa[ppa] = lpa
        self._windows[ppa] = array("q", window)
        self._valid_pages[block] += 1
        self._write_pointer[block] = offset + 1
        self._op_clock += 1
        self._last_modified_op[block] = self._op_clock
        self.counters.page_writes += 1
        # Programs proceed inside a die; the channel bus is only occupied for
        # the data transfer share, so concurrent programs on other dies
        # overlap.
        occupancy = self._config.write_latency_us / self._dies_per_channel
        return self._scheduler.reserve(ppa // self._pages_per_channel, now_us, occupancy)

    def program_run(
        self,
        first_ppa: int,
        lpas: List[int],
        old_ppas: List[Optional[int]],
        gamma: int,
        batch_lpas: Dict[int, int],
        now_us: float = 0.0,
    ) -> float:
        """Program a run of consecutive FREE pages of one block in one call.

        Behaves exactly like the per-page sequence the write path used to
        issue — for each run page, ``program_page`` with its OOB neighbour
        window followed by ``invalidate_page`` of the LPA's old copy
        (``old_ppas[i]``, ``None`` when the LPA had no live page) — with the
        op-clock interleave, the OOB contents and the scheduler's float
        timing chain preserved bit for bit.  A window holds, per PPA of
        ``[ppa - gamma, ppa + gamma]``, the LPA flash held there once the
        whole run was programmed (``None`` for a FREE page or one off the
        array).  ``batch_lpas`` is accepted and unused: the run's own LPAs
        are in the LPA array before any window is read.  Returns the bus
        completion time of the last program.
        """
        count = len(lpas)
        if count == 0:
            return now_us
        total_pages = self._total_pages
        # The run's first page here; its last by the block-boundary test.
        if not 0 <= first_ppa < total_pages:
            raise self._out_of_range("PPA", first_ppa, total_pages)
        for old_ppa in old_ppas:
            if old_ppa is not None and not 0 <= old_ppa < total_pages:
                raise self._out_of_range("PPA", old_ppa, total_pages)
        pages_per_block = self._pages_per_block
        block = first_ppa // pages_per_block
        base = block * pages_per_block
        offset = first_ppa - base
        stop = first_ppa + count
        state = self._state
        if stop > base + pages_per_block:
            raise FlashError(
                f"program run of {count} pages at ppa={first_ppa} crosses "
                f"the boundary of block {block}"
            )
        if offset != self._write_pointer[block]:
            raise FlashError(
                f"out-of-order program in block {block}: offset {offset}, "
                f"expected {self._write_pointer[block]}"
            )
        for ppa in range(first_ppa, stop):
            if state[ppa] != _FREE:
                raise FlashError(
                    f"program of non-free page ppa={ppa} ({_CODE_TO_STATE[state[ppa]]})"
                )

        end = offset + count
        state[first_ppa:stop] = self._valid_states[:count]
        self._lpa[first_ppa:stop] = array("q", lpas)
        if gamma:
            self._gamma[first_ppa:stop] = bytes([gamma]) * count
            self._run_end[first_ppa:stop] = array("H", [end]) * count
        self._valid_pages[block] += count
        self._write_pointer[block] = end
        self.counters.page_writes += count

        valid_pages = self._valid_pages
        last_modified = self._last_modified_op
        op = self._op_clock
        for index in range(count):
            op += 1
            last_modified[block] = op
            old_ppa = old_ppas[index]
            if old_ppa is not None:
                if state[old_ppa] != _VALID:
                    raise FlashError(f"invalidate of non-valid page ppa={old_ppa}")
                state[old_ppa] = _INVALID
                old_block = old_ppa // pages_per_block
                valid_pages[old_block] -= 1
                op += 1
                last_modified[old_block] = op
        self._op_clock = op

        if gamma:
            # Edge pages' windows reach into a neighbouring block, which may
            # be erased and reprogrammed while they live: capture those now,
            # padded with the sentinel where they run off the array.
            low_stop = base + min(end, gamma)
            high_start = max(first_ppa, low_stop, base + pages_per_block - gamma)
            lpa_arr = self._lpa
            pad = array("q", [_NO_LPA])
            windows = self._windows
            for ppa in chain(range(first_ppa, low_stop), range(high_start, stop)):
                low, high = ppa - gamma, ppa + gamma + 1
                # A sequence times a negative count is empty: no pad inside.
                windows[ppa] = pad * -low + lpa_arr[max(low, 0) : high] + pad * (high - total_pages)

        occupancy = self._config.write_latency_us / self._dies_per_channel
        return self._scheduler.reserve_run(
            first_ppa // self._pages_per_channel, now_us, occupancy, count
        )

    def invalidate_page(self, ppa: int) -> None:
        """Mark a VALID page as INVALID (its LPA was overwritten)."""
        if not 0 <= ppa < self._total_pages:
            raise self._out_of_range("PPA", ppa, self._total_pages)
        if self._state[ppa] != _VALID:
            raise FlashError(f"invalidate of non-valid page ppa={ppa}")
        self._state[ppa] = _INVALID
        block = ppa // self._pages_per_block
        self._valid_pages[block] -= 1
        self._op_clock += 1
        self._last_modified_op[block] = self._op_clock

    def erase_block(self, block: int, now_us: float = 0.0) -> float:
        """Erase a whole block; all its pages become FREE again."""
        if not 0 <= block < self._total_blocks:
            raise self._out_of_range("block", block, self._total_blocks)
        remaining_valid = self._valid_pages[block]
        if remaining_valid:
            raise FlashError(
                f"erase of block {block} with {remaining_valid} valid pages; "
                "GC must migrate valid pages first"
            )
        start = block * self._pages_per_block
        stop = start + self._pages_per_block
        self._state[start:stop] = self._free_states
        self._lpa[start:stop] = self._free_lpas
        self._gamma[start:stop] = self._free_states
        windows = self._windows
        if windows:
            for ppa in range(start, stop):
                windows.pop(ppa, None)
        self._erase_count[block] += 1
        self._write_pointer[block] = 0
        self._op_clock += 1
        self._last_modified_op[block] = self._op_clock
        self.counters.block_erases += 1
        occupancy = self._config.erase_latency_us / self._dies_per_channel
        return self._scheduler.reserve(block // self._blocks_per_channel, now_us, occupancy)

    # ------------------------------------------------------------------ #
    # Bulk helpers
    # ------------------------------------------------------------------ #
    def erase_counts(self) -> List[int]:
        """Erase counter of every block (for wear-leveling analysis)."""
        return list(self._erase_count)

    def blocks_by_valid_pages(self, candidates: Iterable[int]) -> List[int]:
        """Sort candidate blocks by ascending valid-page count (greedy GC)."""
        return sorted(candidates, key=self._valid_pages.__getitem__)
