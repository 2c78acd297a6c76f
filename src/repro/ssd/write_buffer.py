"""Controller write buffer.

Modern SSD controllers buffer incoming writes and program them to flash a
whole block at a time, both to exploit internal parallelism and to avoid the
open-block problem.  LeaFTL piggybacks on this buffer (Section 3.3): before a
flush, the buffered pages are **sorted by LPA** so that ascending LPAs are
mapped to the ascending PPAs of the freshly allocated block, which produces
monotonic, easily-learnable LPA→PPA patterns.

The ``sort_on_flush`` switch exists so the ablation benchmark can measure how
much of LeaFTL's memory saving comes from this co-design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class WriteBufferStats:
    """Counters describing buffer behaviour."""

    writes: int = 0
    overwrites: int = 0
    flushes: int = 0
    pages_flushed: int = 0
    #: Buffered pages lost to power failure (never reached flash).
    discarded: int = 0


class WriteBuffer:
    """Accumulates dirty LPAs until a flash block worth of pages is ready."""

    def __init__(self, capacity_pages: int, sort_on_flush: bool = True) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self._capacity = capacity_pages
        self._sort_on_flush = sort_on_flush
        #: Insertion-ordered map of buffered LPAs (value unused, kept for order).
        self._pages: Dict[int, None] = {}
        self.stats = WriteBufferStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def sort_on_flush(self) -> bool:
        return self._sort_on_flush

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._pages

    @property
    def is_full(self) -> bool:
        return len(self._pages) >= self._capacity

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def add(self, lpa: int) -> None:
        """Buffer a host write to ``lpa`` (the one-page :meth:`add_run`)."""
        self.add_run(lpa, lpa + 1)

    def add_run(self, start_lpa: int, stop_lpa: int) -> int:
        """Buffer host writes to ``[start_lpa, stop_lpa)`` until the buffer fills.

        Takes pages in order up to and including the one that fills the
        buffer and returns how many it took (at least one of a non-empty
        run); the caller flushes and offers the rest again.  Rewriting an
        LPA that is already buffered is absorbed in place (it keeps its
        arrival position and takes no room) — no flash write will ever be
        issued for the earlier version.
        """
        pages = self._pages
        capacity = self._capacity
        before = len(pages)
        taken = 0
        for lpa in range(start_lpa, stop_lpa):
            pages[lpa] = None
            taken += 1
            if len(pages) >= capacity:
                break
        self.stats.writes += taken
        self.stats.overwrites += taken - (len(pages) - before)
        return taken

    def drain(self) -> List[int]:
        """Remove and return every buffered LPA for a flush.

        The LPAs come in flush order: ascending LPA order when
        ``sort_on_flush`` is enabled, otherwise the original arrival order.
        Draining an empty buffer is not a flush.
        """
        if not self._pages:
            return []
        lpas = list(self._pages)
        if self._sort_on_flush:
            lpas.sort()
        self._pages.clear()
        self.stats.flushes += 1
        self.stats.pages_flushed += len(lpas)
        return lpas

    def discard(self) -> int:
        """Drop all buffered pages (power failure); returns how many were lost.

        The buffer is DRAM — a crash destroys it.  The count feeds the
        device's ``buffered_pages_lost`` statistic so the crash contract
        ("unflushed writes may be lost, never torn") stays observable.
        """
        lost = len(self._pages)
        self._pages.clear()
        self.stats.discarded += lost
        return lost
