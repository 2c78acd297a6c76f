"""Ideal page-level mapping: the textbook one-entry-per-page FTL.

This is the upper bound used throughout the paper as the reference point for
memory footprint: every mapped LPA costs :data:`ENTRY_BYTES` (8 bytes: 4-byte
LPA + 4-byte PPA) of DRAM, and every lookup is an O(1) dictionary access with no
extra flash traffic.  It is unconstrained by any DRAM budget, so it is useful
as ground truth in tests and as the denominator in memory-reduction figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ftl.base import FTL

#: Bytes per page-level mapping entry (4 B LPA + 4 B PPA), here and in DFTL.
ENTRY_BYTES = 8


class PageLevelFTL(FTL):
    """A fully-resident page-level mapping table."""

    name = "PageMap"

    def __init__(self) -> None:
        super().__init__(mapping_budget_bytes=None)
        self._table: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # FTL interface
    # ------------------------------------------------------------------ #
    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve a contiguous run with one probe of the flat table.

        The fully-resident table needs no per-page structure walks, so the
        whole run counts as a single lookup — the batched lower bound every
        other scheme is compared against.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self.stats.lookups += 1
        return [self._table.get(page) for page in range(lpa, lpa + npages)]

    def update_batch(self, mappings: Sequence[Tuple[int, int]]) -> None:
        for lpa, ppa in mappings:
            self._table[lpa] = ppa
            self.stats.updates += 1

    def resident_bytes(self) -> int:
        return len(self._table) * ENTRY_BYTES

    def full_mapping_bytes(self) -> int:
        return len(self._table) * ENTRY_BYTES

    def rebuild_from_oob(self, mappings: Sequence[Tuple[int, int]]) -> None:
        self._table = dict(mappings)
