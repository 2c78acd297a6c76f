"""SFTL: spatial-locality-aware FTL (Jiang et al., MSST 2011).

SFTL observes that workloads contain long strictly-sequential runs, so inside
each translation page the mapping can be condensed into *runs*: a run is a
maximal set of consecutive LPAs mapped to consecutive PPAs and is stored as a
single ``(start_lpa, start_ppa, length)`` descriptor instead of one entry per
page.  Translation pages are cached in DRAM in condensed form with LRU
replacement under the DRAM budget.

Compared with DFTL, SFTL shrinks the table for sequential workloads but —
unlike LeaFTL — it cannot condense strided or approximately-linear patterns,
which is exactly the gap Figure 15 of the paper quantifies (LeaFTL is another
2.9x smaller on average).

Implementation notes
---------------------
Run counts are maintained incrementally: each translation page tracks its
number of entries and the number of "continuities" (pairs of adjacent LPAs
whose PPAs are also adjacent); the run count is ``entries - continuities``.
This keeps updates O(1) and memory accounting exact without rescanning.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ftl.base import FTL

#: Bytes per condensed run descriptor.
RUN_BYTES = 8
#: Fixed per-translation-page header (run index / bitmap) in bytes.
PAGE_HEADER_BYTES = 16


@dataclass
class _TranslationPage:
    """Condensed state of one translation page."""

    entries: Dict[int, int] = field(default_factory=dict)
    continuities: int = 0

    @property
    def run_count(self) -> int:
        return len(self.entries) - self.continuities


class SFTL(FTL):
    """Spatial-locality-aware FTL with run-condensed translation pages."""

    name = "SFTL"

    def __init__(
        self,
        mapping_budget_bytes: Optional[int] = None,
        entries_per_translation_page: int = 512,
    ) -> None:
        super().__init__(mapping_budget_bytes=mapping_budget_bytes)
        self._entries_per_tp = entries_per_translation_page
        self._pages: Dict[int, _TranslationPage] = {}
        #: LRU of cached translation pages: tp_id -> dirty flag.
        self._cached: "OrderedDict[int, bool]" = OrderedDict()
        #: Sum of run counts over cached translation pages (for budgeting).
        self._cached_runs = 0
        #: Sum of run counts over all translation pages.
        self._total_runs = 0

    # ------------------------------------------------------------------ #
    # Translation-page helpers
    # ------------------------------------------------------------------ #
    def _tp_of(self, lpa: int) -> int:
        return lpa // self._entries_per_tp

    def _is_continuous(self, page: _TranslationPage, left: int, right: int) -> bool:
        return (
            left in page.entries
            and right in page.entries
            and page.entries[left] + 1 == page.entries[right]
        )

    def _set_entry(self, lpa: int, ppa: int) -> None:
        """Install ``lpa -> ppa`` keeping run counters exact."""
        tp_id = self._tp_of(lpa)
        page = self._pages.setdefault(tp_id, _TranslationPage())
        runs_before = page.run_count

        # Remove the continuity contributions around the old value.
        if lpa in page.entries:
            if self._is_continuous(page, lpa - 1, lpa):
                page.continuities -= 1
            if self._is_continuous(page, lpa, lpa + 1):
                page.continuities -= 1
        page.entries[lpa] = ppa
        if self._is_continuous(page, lpa - 1, lpa):
            page.continuities += 1
        if self._is_continuous(page, lpa, lpa + 1):
            page.continuities += 1

        delta = page.run_count - runs_before
        self._total_runs += delta
        if tp_id in self._cached:
            self._cached_runs += delta

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def _budget_runs(self) -> Optional[int]:
        if self.mapping_budget_bytes is None:
            return None
        return max(1, self.mapping_budget_bytes // RUN_BYTES)

    def _admit(self, tp_id: int, dirty: bool) -> None:
        """Bring ``tp_id`` into the cache, writing back dirty victims."""
        if tp_id in self._cached:
            self._cached[tp_id] = self._cached[tp_id] or dirty
            self._cached.move_to_end(tp_id)
        else:
            self._cached[tp_id] = dirty
            self._cached.move_to_end(tp_id)
            self._cached_runs += self._pages[tp_id].run_count
        limit = self._budget_runs()
        if limit is None:
            return
        while self._cached_runs > limit and len(self._cached) > 1:
            victim, victim_dirty = self._cached.popitem(last=False)
            self._cached_runs -= self._pages[victim].run_count
            if victim_dirty:
                self.stats.translation_page_writes += 1

    # ------------------------------------------------------------------ #
    # FTL interface
    # ------------------------------------------------------------------ #
    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve a contiguous run, one condensed-page admission per chunk.

        The run is split at translation-page boundaries; the first mapped
        entry of a chunk admits its condensed translation page (one flash
        read on a cache miss) and that page then serves every other entry of
        the chunk for free.  ``stats.lookups`` is charged once per chunk.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        results: List[Optional[int]] = []
        start = lpa
        end = lpa + npages
        while start < end:
            tp_id = self._tp_of(start)
            chunk_end = min(end, (tp_id + 1) * self._entries_per_tp)
            self.stats.lookups += 1
            page = self._pages.get(tp_id)
            admitted = False
            for entry in range(start, chunk_end):
                if page is None or entry not in page.entries:
                    results.append(None)
                    continue
                if not admitted:
                    admitted = True
                    if tp_id not in self._cached:
                        self.stats.translation_page_reads += 1
                        self._admit(tp_id, dirty=False)
                    else:
                        self._cached.move_to_end(tp_id)
                results.append(page.entries[entry])
            start = chunk_end
        return results

    def update_batch(self, mappings: Sequence[Tuple[int, int]]) -> None:
        touched: Set[int] = set()
        for lpa, ppa in mappings:
            self._set_entry(lpa, ppa)
            touched.add(self._tp_of(lpa))
            self.stats.updates += 1
        for tp_id in touched:
            self._admit(tp_id, dirty=True)

    def rebuild_from_oob(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Rebuild the condensed translation pages from an OOB scan.

        All DRAM state (the cached-page LRU and its run accounting) is
        dropped; the condensed pages are reconstructed entry by entry so the
        incremental run counters come out exact.  Like the other rebuilds
        this is charge-free — the recovery driver models the scan cost.
        """
        self._pages = {}
        self._cached = OrderedDict()
        self._cached_runs = 0
        self._total_runs = 0
        for lpa, ppa in mappings:
            self._set_entry(lpa, ppa)

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def resident_bytes(self) -> int:
        return self._cached_runs * RUN_BYTES + len(self._cached) * PAGE_HEADER_BYTES

    def full_mapping_bytes(self) -> int:
        return self._total_runs * RUN_BYTES + len(self._pages) * PAGE_HEADER_BYTES

    def run_count(self) -> int:
        """Total condensed runs across all translation pages."""
        return self._total_runs
