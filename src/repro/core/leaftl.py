"""LeaFTL: the learning-based flash translation layer (the paper's system).

LeaFTL plugs the log-structured learned mapping table into the generic FTL
interface used by the SSD model:

* ``update_batch`` learns new segments from every write-buffer flush and
  ``migrate_batch`` from every reclaim batch, carrying the segments a
  migration moved whole instead of fitting them again; both trigger
  periodic segment compaction;
* ``translate_range`` resolves a read run through the learned table to one
  (possibly approximate) PPA per page; the table charges the levels
  searched (Figure 23a) once per resolution run.  ``translate`` is the
  paper's per-LPA Algorithm-1 walk, the reference the range is tested
  against;
* ``resolve_misprediction`` implements the OOB-based correction of
  Section 3.5: given the OOB window of the mispredicted page (which the
  read path already fetched), it names the pages of the
  ``[-gamma, +gamma]`` neighbourhood whose stored reverse mapping is the
  LPA, so a misprediction costs exactly one extra flash read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import LeaFTLConfig
from repro.core.mapping_table import (
    LogStructuredMappingTable,
    LookupResult,
    MappingTableStats,
)
from repro.core.plr import LearnedSegment
from repro.ftl.base import FTL


@dataclass
class LeaFTLStats:
    """LeaFTL-specific counters (lookups are charged by the table's stats)."""

    oob_corrections: int = 0
    oob_correction_failures: int = 0
    compactions: int = 0

    @property
    def mispredictions(self) -> int:
        """Every misprediction the OOB window was asked to resolve (Figure 24)."""
        return self.oob_corrections + self.oob_correction_failures


class LeaFTL(FTL):
    """Learning-based FTL built on piecewise linear regression."""

    name = "LeaFTL"

    def __init__(
        self,
        config: Optional[LeaFTLConfig] = None,
        mapping_budget_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(mapping_budget_bytes=mapping_budget_bytes)
        self.config = config or LeaFTLConfig()
        self.table = LogStructuredMappingTable(self.config)
        self.lea_stats = LeaFTLStats()
        self._writes_since_compaction = 0

    def oob_window(self) -> int:
        """Reverse-mapping window the write path must store in each OOB."""
        return self.config.gamma

    # ------------------------------------------------------------------ #
    # FTL interface: translation
    # ------------------------------------------------------------------ #
    def translate(self, lpa: int) -> LookupResult:
        """Resolve one LPA by the Algorithm-1 level walk (the reference).

        The device never calls it: it translates through
        :meth:`translate_range`, whose owner index must agree with this
        walk page for page.
        """
        self.stats.lookups += 1
        return self.table.lookup(lpa)

    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve a contiguous run of LPAs, charged once per resolution run.

        This is where the learned table's batching advantage materialises:
        a multi-page host command whose span is covered by one learned
        segment costs a *single* lookup charge at that segment's level, not
        one per page.  The table charges its own statistics
        (:meth:`LogStructuredMappingTable.lookup_range`); ``stats.lookups``
        grows by as many resolutions as the table's did.
        """
        table_stats = self.table.stats
        before = table_stats.lookups
        ppas = self.table.lookup_range(lpa, npages)
        self.stats.lookups += table_stats.lookups - before
        return ppas

    def resolve_misprediction(
        self, lpa: int, predicted_ppa: int, window: Sequence[int]
    ) -> List[int]:
        """The pages the OOB window of the mispredicted page names for ``lpa``.

        ``window`` is the reverse-mapping window the read of
        ``predicted_ppa`` fetched with the page
        (:meth:`repro.flash.flash_array.FlashArray.oob_window_of`): entry
        ``i`` is the LPA of page ``predicted_ppa - gamma + i``, ``-1`` where
        it held none.  The error bound of approximate segments puts the
        true PPA in ``[predicted_ppa - gamma, predicted_ppa + gamma]``, so
        scanning the (at most ``2 * gamma + 1``) entries yields the answer
        without any flash access beyond the read that fetched the OOB.
        Every page other than ``predicted_ppa`` whose entry is ``lpa`` is
        returned, in PPA order: the window also names superseded copies,
        and the device reads the one its page-validity table says is live.
        """
        gamma = self.config.gamma
        first = predicted_ppa - gamma
        copies = window.count(lpa)
        if copies == 1:  # the usual case, found by C-level scans alone
            index = window.index(lpa)
            named = [] if index == gamma else [first + index]
        elif copies:
            named = [first + i for i, entry in enumerate(window) if entry == lpa and i != gamma]
        else:
            named = []
        if named:
            self.lea_stats.oob_corrections += 1
        else:
            self.lea_stats.oob_correction_failures += 1
        return named

    # ------------------------------------------------------------------ #
    # FTL interface: updates
    # ------------------------------------------------------------------ #
    def update_batch(self, mappings: Sequence[Tuple[int, int]]) -> List[LearnedSegment]:
        return self._learn(mappings, None)

    def migrate_batch(
        self, mappings: Sequence[Tuple[int, int]], old_ppas: Sequence[int]
    ) -> List[LearnedSegment]:
        """Relearn a reclaim batch, carrying what moved as whole segments.

        Section 3.6 relearns migrated pages like a flush.  A candidate
        segment of that relearn made only of whole owners is carried
        instead: re-based to its new PPAs in place.  A fitted one first
        drops every segment it leaves owning no LPA.  Either way the table
        gets the same answers, and no segment the migration empties waits
        for a compaction (:meth:`LogStructuredMappingTable.update`).
        """
        return self._learn(mappings, old_ppas)

    def _learn(
        self, mappings: Sequence[Tuple[int, int]], old_ppas: Optional[Sequence[int]]
    ) -> List[LearnedSegment]:
        learned = self.table.update(mappings, old_ppas)
        self.stats.updates += len(mappings)
        self._writes_since_compaction += len(mappings)
        if self._writes_since_compaction >= self.config.compaction_interval_writes:
            self.maintenance()
        return learned

    def maintenance(self) -> None:
        """Compact the learned table (Section 3.7, once per ~1M writes).

        Drops every segment that owns no LPA (what host flushes leave
        below level 0) and flattens each group's levels; the device's data
        cache takes the freed DRAM when it next resizes, after a flush.
        """
        self.table.compact()
        self.lea_stats.compactions += 1
        self._writes_since_compaction = 0

    def reset_stats(self) -> None:
        """Also restart the LeaFTL and mapping-table counters."""
        super().reset_stats()
        self.lea_stats = LeaFTLStats()
        self.table.stats = MappingTableStats()

    # ------------------------------------------------------------------ #
    # Power-fail recovery
    # ------------------------------------------------------------------ #
    def rebuild_from_oob(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Relearn the whole table from an OOB scan of valid flash pages.

        The old table is DRAM and died with the power; the scan's
        ``(lpa, ppa)`` pairs are re-learned batch-by-batch exactly like the
        original flushes were, producing a table that resolves every live
        LPA (possibly through different segments than before the crash —
        only translation *results* must match).  Charge-free by the
        recovery contract: the driver accounts the scan reads.
        """
        self.table = LogStructuredMappingTable(self.config)
        self._writes_since_compaction = 0
        if mappings:
            self.table.update(mappings)

    def serialize_checkpoint(self) -> bytes:
        """The learned table's checkpoint image: the table, pickled.

        Flash is charged for the image at the device encoding
        (:meth:`resident_bytes`); the payload only has to restore the exact
        table.  It is made and read in one process, so :mod:`pickle` only
        ever sees bytes the simulator produced itself.  Imported here so a
        device that never checkpoints does not load the module.
        """
        import pickle

        return pickle.dumps(self.table)

    def restore_checkpoint(self, payload: bytes) -> None:
        """Replace the table with the checkpointed one (bit-exact lookups).

        Statistics start fresh: they are DRAM counters a crash destroys
        along with everything else.
        """
        import pickle

        self.table = pickle.loads(payload)
        self.table.stats = MappingTableStats()
        self._writes_since_compaction = 0

    def replay_mappings(self, mappings: Sequence[Tuple[int, int]]) -> None:
        """Re-learn mappings programmed after the checkpoint was taken.

        Replayed batches insert at level 0 and therefore shadow whatever
        stale mappings the checkpoint still holds for those LPAs — the same
        shadowing the live update path relies on.  Charge-free like
        :meth:`rebuild_from_oob`.
        """
        if mappings:
            self.table.update(mappings)

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def resident_bytes(self) -> int:
        return self.table.memory_bytes()

    def full_mapping_bytes(self) -> int:
        return self.table.memory_bytes()
