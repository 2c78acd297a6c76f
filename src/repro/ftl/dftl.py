"""DFTL: demand-based page-level FTL (Gupta et al., ASPLOS 2009).

DFTL keeps the complete page-level mapping table in dedicated *translation
pages* on flash and caches only the recently used entries in the in-device
DRAM:

* the **Cached Mapping Table (CMT)** holds individual ``LPA → PPA`` entries
  with LRU replacement, bounded by the DRAM budget;
* the **Global Translation Directory (GTD)** locates the flash-resident
  translation page of any LPA (modelled implicitly — its footprint is tiny
  and identical across schemes);
* a CMT miss costs one flash read (fetch the translation page); evicting a
  dirty entry costs a read-modify-write of its translation page, amortized by
  writing back every dirty CMT entry that belongs to the same translation
  page (the "batch update" optimization of the original paper).

This is the primary memory-footprint baseline of the LeaFTL evaluation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ftl.base import FTL
from repro.ftl.pagemap import ENTRY_BYTES


class DFTL(FTL):
    """Demand-based FTL with an LRU cached mapping table."""

    name = "DFTL"

    def __init__(
        self,
        mapping_budget_bytes: Optional[int] = None,
        entries_per_translation_page: int = 512,
    ) -> None:
        super().__init__(mapping_budget_bytes=mapping_budget_bytes)
        self._entries_per_tp = entries_per_translation_page
        #: CMT: lpa -> (ppa, dirty flag); ordered by recency (LRU first).
        self._cmt: "OrderedDict[int, Tuple[int, bool]]" = OrderedDict()
        #: The flash-resident translation pages, flattened to lpa -> ppa.
        self._flash_table: Dict[int, int] = {}
        #: Dirty CMT entries grouped by translation page (for batched write-back).
        self._dirty_by_tp: Dict[int, set] = {}

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def _translation_page_of(self, lpa: int) -> int:
        return lpa // self._entries_per_tp

    def _max_cached_entries(self) -> Optional[int]:
        if self.mapping_budget_bytes is None:
            return None
        return max(1, self.mapping_budget_bytes // ENTRY_BYTES)

    # ------------------------------------------------------------------ #
    # CMT management
    # ------------------------------------------------------------------ #
    def _touch(self, lpa: int) -> None:
        self._cmt.move_to_end(lpa)

    def _mark_dirty(self, lpa: int) -> None:
        self._dirty_by_tp.setdefault(self._translation_page_of(lpa), set()).add(lpa)

    def _mark_clean(self, lpa: int) -> None:
        tp = self._translation_page_of(lpa)
        dirty = self._dirty_by_tp.get(tp)
        if dirty is not None:
            dirty.discard(lpa)
            if not dirty:
                del self._dirty_by_tp[tp]

    def _evict_if_needed(self) -> None:
        """Evict LRU entries until the CMT fits its budget.

        A dirty eviction charges one translation-page read and one write.
        """
        limit = self._max_cached_entries()
        if limit is None:
            return
        while len(self._cmt) > limit:
            victim_lpa, (victim_ppa, dirty) = self._cmt.popitem(last=False)
            if not dirty:
                continue
            # Read-modify-write of the victim's translation page; batch every
            # dirty CMT entry that belongs to the same translation page.
            tp = self._translation_page_of(victim_lpa)
            self._flash_table[victim_lpa] = victim_ppa
            self._mark_clean(victim_lpa)
            for lpa in list(self._dirty_by_tp.get(tp, ())):
                ppa, _entry_dirty = self._cmt[lpa]
                self._flash_table[lpa] = ppa
                self._cmt[lpa] = (ppa, False)
            self._dirty_by_tp.pop(tp, None)
            self.stats.translation_page_reads += 1
            self.stats.translation_page_writes += 1

    # ------------------------------------------------------------------ #
    # FTL interface
    # ------------------------------------------------------------------ #
    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve a contiguous run, one translation-page visit per chunk.

        The run is split at translation-page boundaries; within a chunk a
        single CMT miss fetches the translation page once and that fetch
        serves *every* missing entry of the chunk (they live on the same
        flash page), so an N-page run on one translation page costs at most
        one ``translation_page_reads`` instead of N.  ``stats.lookups`` is
        charged once per chunk.  Evictions run once per chunk, after the
        fetched entries are installed.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        results: List[Optional[int]] = []
        per_tp = self._entries_per_tp
        start = lpa
        end = lpa + npages
        while start < end:
            tp = self._translation_page_of(start)
            chunk_end = min(end, (tp + 1) * per_tp)
            self.stats.lookups += 1
            fetched = False
            for page in range(start, chunk_end):
                if page in self._cmt:
                    ppa, _dirty = self._cmt[page]
                    self._touch(page)
                    results.append(ppa)
                elif page not in self._flash_table:
                    results.append(None)
                else:
                    ppa = self._flash_table[page]
                    if not fetched:
                        fetched = True
                        self.stats.translation_page_reads += 1
                    self._cmt[page] = (ppa, False)
                    self._touch(page)
                    results.append(ppa)
            if fetched:
                self._evict_if_needed()
            start = chunk_end
        return results

    def update_batch(self, mappings: Sequence[Tuple[int, int]]) -> None:
        for lpa, ppa in mappings:
            self._cmt[lpa] = (ppa, True)
            self._mark_dirty(lpa)
            self._touch(lpa)
            self.stats.updates += 1
        self._evict_if_needed()

    def rebuild_from_oob(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Rebuild the flash-resident table from an OOB scan.

        The CMT and its dirty-tracking are DRAM casualties of the crash;
        the rebuilt table starts fully flash-resident and clean (the scan
        re-wrote the translation pages), so the first post-recovery lookups
        repopulate the CMT through the ordinary demand-miss path.  The scan
        driver charges the flash traffic; nothing is charged here.
        """
        self._cmt.clear()
        self._dirty_by_tp.clear()
        self._flash_table = dict(mappings)

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def resident_bytes(self) -> int:
        return len(self._cmt) * ENTRY_BYTES

    def full_mapping_bytes(self) -> int:
        """Size of the complete page-level table for all live mappings."""
        live = set(self._flash_table)
        live.update(self._cmt)
        return len(live) * ENTRY_BYTES
