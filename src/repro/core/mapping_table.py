"""The log-structured learned mapping table (Figure 14 of the paper).

This is the DRAM-resident data structure that replaces the page-level
address mapping cache: a dictionary of :class:`repro.core.group.LPAGroup`
objects (one per 256-LPA group that has ever been written), each holding its
own multi-level segment log and Conflict Resolution Buffer.

Responsibilities:

* partition incoming mapping batches by group, learn segments per group with
  the PLR learner, and insert them (Section 3.7, creation + insert/update);
* answer LPA lookups, charging the levels searched (Figure 23a);
* periodic compaction (Section 3.7);
* exact DRAM footprint accounting (Figures 15 and 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import LeaFTLConfig
from repro.core.group import LookupResult, LPAGroup
from repro.core.plr import LearnedSegment, PLRLearner
from repro.core.segment import Segment, group_base_of


@dataclass
class MappingTableStats:
    """Counters describing learning and lookup activity."""

    lookups: int = 0
    lookup_levels_total: int = 0
    batches_learned: int = 0
    segments_learned: int = 0
    accurate_segments_learned: int = 0
    approximate_segments_learned: int = 0
    mappings_learned: int = 0
    #: Of those learned, the segments and mappings a reclaim migration
    #: carried forward re-based instead of fitting them again.
    segments_carried: int = 0
    mappings_carried: int = 0
    #: Resolved lookups by levels searched (Figure 23a); misses count in
    #: ``lookups`` and ``lookup_levels_total`` only.
    levels_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def mean_levels_per_lookup(self) -> float:
        return self.lookup_levels_total / self.lookups if self.lookups else 0.0

    @property
    def mean_segment_length(self) -> float:
        if self.segments_learned == 0:
            return 0.0
        return self.mappings_learned / self.segments_learned


class LogStructuredMappingTable:
    """LeaFTL's learned LPA→PPA mapping table."""

    def __init__(self, config: Optional[LeaFTLConfig] = None) -> None:
        self.config = config or LeaFTLConfig()
        self._learner = PLRLearner(
            gamma=self.config.gamma, group_size=self.config.group_size
        )
        self._groups: Dict[int, LPAGroup] = {}
        self.stats = MappingTableStats()
        #: Running DRAM footprint (:meth:`memory_bytes`): the bytes counted
        #: for each group, their total, and the bases of the groups mutated
        #: since — the only ones the next call re-sums.
        self._memory_total = 0
        self._memory_of: Dict[int, int] = {}
        self._memory_stale: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Group access
    # ------------------------------------------------------------------ #
    @property
    def gamma(self) -> int:
        return self.config.gamma

    def group_for(self, lpa: int) -> Optional[LPAGroup]:
        return self._groups.get(group_base_of(lpa, self.config.group_size))

    def _group_for_base(self, group_base: int) -> LPAGroup:
        group = self._groups.get(group_base)
        if group is None:
            group = LPAGroup(group_base, self.config.group_size)
            self._groups[group_base] = group
        return group

    def groups(self) -> List[LPAGroup]:
        return list(self._groups.values())

    def group_count(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        mappings: Sequence[Tuple[int, int]],
        old_ppas: Optional[Sequence[int]] = None,
    ) -> List[LearnedSegment]:
        """Learn segments from a flush batch and insert them into the log.

        ``old_ppas``, given for a reclaim migration, names the page each
        pair moved from.  The cone walk then offers every candidate segment
        to its group's :meth:`repro.core.group.LPAGroup.carry`: one made of
        whole owners is carried (re-based in place) instead of fitted and
        inserted.  Every other candidate is fitted, and each segment its
        insert leaves owning no LPA is dropped first
        (:meth:`repro.core.group.LPAGroup.update` with ``relearn``): no
        segment a migration empties waits below level 0 for a compaction.
        Carried mappings and segments count as learned, and in
        ``*_carried``.

        Returns the fitted segments (used by tests and by the segment
        distribution experiments).
        """
        if not mappings:
            return []
        stats = self.stats
        carried: List[Segment] = []
        carry: Optional[Callable[[Sequence[Tuple[int, int]]], bool]] = None
        if old_ppas is not None:
            old_ppa = dict(zip([lpa for lpa, _ in mappings], old_ppas))
            groups, group_size, gamma = self._groups, self.config.group_size, self.gamma

            def carry_whole(points: Sequence[Tuple[int, int]]) -> bool:
                group = groups.get(group_base_of(points[0][0], group_size))
                owners = [] if group is None else group.carry(points, old_ppa, gamma)
                if owners:
                    carried.extend(owners)
                    stats.mappings_carried += len(points)
                return bool(owners)

            carry = carry_whole

        learned = self._learner.learn(mappings, carry)
        relearn = old_ppas is not None
        for item in learned:
            group_base = item.segment.group_base
            self._group_for_base(group_base).update(item, relearn)
            self._memory_stale.add(group_base)
        stats.batches_learned += 1
        stats.segments_learned += len(learned) + len(carried)
        stats.segments_carried += len(carried)
        stats.mappings_learned += len(mappings)
        for segment in [item.segment for item in learned] + carried:
            if segment.accurate:
                stats.accurate_segments_learned += 1
            else:
                stats.approximate_segments_learned += 1
        return learned

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(self, lpa: int) -> LookupResult:
        """Resolve ``lpa`` to its (possibly approximate) PPA by the level walk.

        Every lookup — hit, in-group miss or group miss — charges at least
        one searched level: even a group miss consults the group directory.
        Counting misses as zero levels while still counting the lookup
        would deflate ``mean_levels_per_lookup`` (Figure 23a) on workloads
        with many cold reads.
        """
        stats = self.stats
        group = self.group_for(lpa)
        if group is None:
            result = LookupResult(ppa=None, levels_searched=1)
        else:
            result = group.lookup(lpa)
        depth = result.levels_searched
        stats.lookups += 1
        stats.lookup_levels_total += depth
        if result.segment is not None:
            histogram = stats.levels_histogram
            histogram[depth] = histogram.get(depth, 0) + 1
        return result

    def lookup_range(self, start_lpa: int, npages: int) -> List[Optional[int]]:
        """Resolve the contiguous run ``[start_lpa, start_lpa + npages)``.

        One PPA per page, each equal to :meth:`lookup`'s.  The run is split
        at group boundaries and each group answers its chunk from its owner
        index (:meth:`repro.core.group.LPAGroup.lookup_range`), charging
        ``stats`` per *resolution*, not per page: consecutive pages served
        by the same segment, or forming one miss gap inside one group, are
        one resolution at the level the segment lives on.  An 8-page run
        covered by one segment therefore grows ``stats.lookups`` by exactly
        1, and a miss gap spanning two groups by 2 (it consulted two group
        structures).
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        stats = self.stats
        ppas: List[Optional[int]] = []
        lpa = start_lpa
        end = start_lpa + npages
        group_size = self.config.group_size
        groups_get = self._groups.get
        while lpa < end:
            group_base = group_base_of(lpa, group_size)
            chunk_end = group_base + group_size
            if chunk_end > end:
                chunk_end = end
            group = groups_get(group_base)
            if group is None:
                ppas += [None] * (chunk_end - lpa)
                stats.lookups += 1
                stats.lookup_levels_total += 1
            else:
                ppas += group.lookup_range(lpa, chunk_end - 1, stats)
            lpa = chunk_end
        return ppas

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> None:
        """Compact every group (Section 3.7: run once per ~1M writes).

        Each group drops the segments its owner index no longer names,
        with their CRB runs, then merges levels downward while that
        removes a level (:meth:`repro.core.group.LPAGroup.compact`).
        """
        for group in self._groups.values():
            group.compact()
        self._memory_stale.update(self._groups)

    # ------------------------------------------------------------------ #
    # Memory accounting & distribution statistics
    # ------------------------------------------------------------------ #
    def segment_count(self) -> int:
        return sum(group.segment_count() for group in self._groups.values())

    def memory_bytes(self) -> int:
        """Total DRAM footprint of segments, CRBs and level bookkeeping.

        Sampled at every flush, which mutates only the few groups its pages
        fall in: a running total, re-summing the groups ``update`` /
        ``compact`` touched since the last call.  A group mutated directly
        through :meth:`groups` / :meth:`group_for` is not seen.
        """
        counted = self._memory_of
        for group_base in self._memory_stale:
            size = self._groups[group_base].memory_bytes()
            self._memory_total += size - counted.get(group_base, 0)
            counted[group_base] = size
        self._memory_stale.clear()
        return self._memory_total

    def crb_bytes(self) -> int:
        return sum(group.crb.size_bytes() for group in self._groups.values())

    def crb_sizes(self) -> List[int]:
        """Per-group CRB sizes in bytes (Figure 10)."""
        return [group.crb.size_bytes() for group in self._groups.values()]

    def level_counts(self) -> List[int]:
        """Per-group level counts (Figure 12)."""
        return [group.level_count for group in self._groups.values()]

    def segment_lengths(self) -> List[int]:
        """Number of LPAs encoded by each live segment (Figure 5)."""
        lengths: List[int] = []
        for group in self._groups.values():
            for segment in group.segments():
                lengths.append(len(group.covered_lpas(segment)))
        return lengths

    def segment_type_counts(self) -> Tuple[int, int]:
        """(accurate, approximate) live segment counts (Figure 20)."""
        accurate = 0
        approximate = 0
        for group in self._groups.values():
            for segment in group.segments():
                if segment.accurate:
                    accurate += 1
                else:
                    approximate += 1
        return accurate, approximate

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        for group in self._groups.values():
            group.validate()
