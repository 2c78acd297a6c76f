"""LRU read/write data cache for the SSD controller DRAM.

The paper extends WiscSim with "an LRU-based read-write cache" (Section 3.9).
The cache holds flash-page-sized entries keyed by LPA.  Its capacity is
whatever DRAM is left after the mapping table has taken its share, so the
central claim of LeaFTL — a smaller mapping table leaves more room for data
caching — shows up here as a larger ``capacity_pages``.

The cache capacity can be resized at runtime (the learned mapping table grows
and shrinks as the workload evolves); shrinking evicts the least recently
used entries immediately.

There is no dirty state.  A page the host writes enters this cache and the
write buffer together, and the buffer — not the cache — is what the flush
programs to flash: dirty data always also lives in the write buffer, so an
eviction never owes a write-back and no decision, counter or artifact would
read a per-page dirty flag.  The cache therefore holds keys only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass
class CacheStats:
    """Hit/miss counters of the data cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0


class LRUDataCache:
    """An LRU set of resident LPAs (keys only; see the module docstring)."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        #: Resident LPAs in recency order, LRU first (values unused).
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity_pages(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._entries

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    # ------------------------------------------------------------------ #
    # Cache operations
    # ------------------------------------------------------------------ #
    def lookup(self, lpa: int) -> bool:
        """Return True on a hit; refreshes recency and updates stats."""
        if lpa in self._entries:
            self._entries.move_to_end(lpa)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, lpa: int) -> None:
        """Insert (or refresh) ``lpa``: the one-page :meth:`insert_many`.

        The device calls only ``insert_many``; the frozen ledger times and
        wraps this name (ROADMAP item 11c).
        """
        self.insert_many((lpa,))

    def insert_many(self, lpas: Iterable[int]) -> None:
        """Insert (or refresh) ``lpas`` in order, evicting LRU pages to fit.

        Each page is inserted and the cache trimmed to capacity before the
        next one, so a batch larger than the cache evicts its own head.
        """
        capacity = self._capacity
        if capacity == 0:
            return
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        insertions = evictions = 0
        for lpa in lpas:
            if lpa in entries:
                move_to_end(lpa)
                continue
            entries[lpa] = None
            insertions += 1
            while len(entries) > capacity:
                popitem(last=False)
                evictions += 1
        self.stats.insertions += insertions
        self.stats.evictions += evictions

    def mark_clean(self, lpa: int) -> None:
        """No-op: there is no dirty state to clear.

        Bodiless, and kept only because the frozen ledger wraps the name
        (ROADMAP item 11c).
        """

    def invalidate(self, lpa: int) -> bool:
        """Drop ``lpa`` from the cache; True if it was present."""
        if lpa in self._entries:
            del self._entries[lpa]
            return True
        return False

    def resize(self, capacity_pages: int) -> None:
        """Change the capacity; evicts LRU entries when shrinking."""
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        while len(self._entries) > capacity_pages:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
