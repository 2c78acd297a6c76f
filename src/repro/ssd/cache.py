"""LRU read/write data cache for the SSD controller DRAM.

The paper extends WiscSim with "an LRU-based read-write cache" (Section 3.9).
The cache holds flash-page-sized entries keyed by LPA.  Its capacity is
whatever DRAM is left after the mapping table has taken its share, so the
central claim of LeaFTL — a smaller mapping table leaves more room for data
caching — shows up here as a larger ``capacity_pages``.

The cache capacity can be resized at runtime (the learned mapping table grows
and shrinks as the workload evolves); shrinking evicts the least recently
used entries immediately.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple


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
    """An LRU cache of flash pages, keyed by LPA.

    Entries can be *clean* (populated on read) or *dirty* (populated on
    write before the data reaches flash).  Eviction returns the evicted
    (lpa, dirty) pairs so the caller can schedule write-back if needed; in
    this simulator dirty data always also lives in the write buffer, so the
    returned list is informational.
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
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

    def insert(self, lpa: int, dirty: bool = False) -> List[Tuple[int, bool]]:
        """Insert (or refresh) ``lpa``; return the entries evicted to make room."""
        return self.insert_many((lpa,), dirty)

    def insert_many(self, lpas: Iterable[int], dirty: bool = False) -> List[Tuple[int, bool]]:
        """Insert (or refresh) ``lpas`` in order; return every entry evicted.

        Each page is inserted and the cache trimmed to capacity before the
        next one, so a batch larger than the cache evicts its own head.
        """
        capacity = self._capacity
        evicted: List[Tuple[int, bool]] = []
        if capacity == 0:
            return evicted
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        insertions = 0
        for lpa in lpas:
            if lpa in entries:
                # Refresh; a dirty insert over a clean entry upgrades it.
                if dirty and not entries[lpa]:
                    entries[lpa] = True
                move_to_end(lpa)
                continue
            entries[lpa] = dirty
            insertions += 1
            while len(entries) > capacity:
                evicted.append(popitem(last=False))
        self.stats.insertions += insertions
        self.stats.evictions += len(evicted)
        return evicted

    def mark_clean(self, lpa: int) -> None:
        """Clear the dirty flag after the page has been persisted to flash."""
        self.mark_clean_many((lpa,))

    def mark_clean_many(self, lpas: Iterable[int]) -> None:
        """Clear the dirty flag of every cached page of ``lpas``."""
        entries = self._entries
        for lpa in lpas:
            if lpa in entries:
                entries[lpa] = False

    def invalidate(self, lpa: int) -> bool:
        """Drop ``lpa`` from the cache (e.g. after TRIM); True if present."""
        return self._entries.pop(lpa, None) is not None

    def resize(self, capacity_pages: int) -> List[Tuple[int, bool]]:
        """Change the capacity; evicts LRU entries when shrinking."""
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        evicted: List[Tuple[int, bool]] = []
        while len(self._entries) > self._capacity:
            lpa, dirty = self._entries.popitem(last=False)
            self.stats.evictions += 1
            evicted.append((lpa, dirty))
        return evicted

    def clear(self) -> None:
        self._entries.clear()
