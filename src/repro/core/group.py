"""Per-group log-structured segment management (Sections 3.4 and 3.7).

The LPA space is partitioned into groups of 256 contiguous LPAs.  Each group
owns a small log-structured collection of learned segments organised in
levels — level 0 holds the most recently learned segments, lower levels hold
older ones — plus a Conflict Resolution Buffer for its approximate segments.

This module implements Algorithm 1 (``seg_update``, ``lookup``,
``seg_compact``) and Algorithm 2 (``has_lpa``, ``get_bitmap``, ``seg_merge``)
of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.crb import ConflictResolutionBuffer
from repro.core.level import Level
from repro.core.plr import LearnedSegment
from repro.core.segment import (
    GROUP_SIZE,
    SEGMENT_BYTES,
    Segment,
)

if TYPE_CHECKING:
    from repro.core.mapping_table import MappingTableStats

#: Per-level bookkeeping overhead charged in the memory model, bytes.
LEVEL_OVERHEAD_BYTES = 4


@dataclass(slots=True)
class LookupResult:
    """The answer of the Algorithm-1 walk: predicted PPA, levels searched, segment.

    Only :meth:`LPAGroup.lookup` (and the table's ``lookup`` over it)
    builds one; the owner-index range path returns bare PPAs.
    ``levels_searched`` is at least 1 even for a miss (see
    :meth:`repro.core.mapping_table.LogStructuredMappingTable.lookup`).
    """

    ppa: Optional[int]
    levels_searched: int
    segment: Optional[Segment] = None

    @property
    def found(self) -> bool:
        return self.ppa is not None


class LPAGroup:
    """The learned mapping state of one 256-LPA group."""

    def __init__(self, group_base: int, group_size: int = GROUP_SIZE) -> None:
        self.group_base = group_base
        self.group_size = group_size
        self._levels: List[Level] = []
        self.crb = ConflictResolutionBuffer(group_base, group_size)
        #: Owner index: per group-relative LPA, the last learned segment
        #: that contained it — the segment the walk of :meth:`lookup` stops
        #: at.  New segments enter level 0, merges strip only LPAs a newer
        #: segment took, and demotion / compaction keep a newer overlapping
        #: segment above an older one, so "last learned" and "topmost that
        #: has it" are the same segment (audited by :meth:`validate`).
        self._owners: List[Optional[Segment]] = [None] * group_size

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def level_count(self) -> int:
        return len(self._levels)

    def levels(self) -> List[Level]:
        return list(self._levels)

    def segment_count(self) -> int:
        count = 0
        for level in self._levels:
            count += len(level)
        return count

    def segments(self) -> List[Segment]:
        """All segments, topmost level first."""
        result: List[Segment] = []
        for level in self._levels:
            result.extend(level.segments())
        return result

    def memory_bytes(self) -> int:
        """DRAM footprint: 8 bytes per segment + CRB + per-level overhead.

        The owner index is deliberately not counted: it is simulator state.
        The device walks its levels (:meth:`lookup`), and ``levels_searched``
        is what that walk costs it.
        """
        return (
            self.segment_count() * SEGMENT_BYTES
            + self.crb.size_bytes()
            + len(self._levels) * LEVEL_OVERHEAD_BYTES
        )

    # ------------------------------------------------------------------ #
    # Membership (Algorithm 2, has_lpa)
    # ------------------------------------------------------------------ #
    def has_lpa(self, segment: Segment, lpa: int) -> bool:
        """Does ``segment`` currently encode a mapping for ``lpa``?"""
        if segment.accurate:
            return segment.has_lpa_accurate(lpa)
        return self.crb.has_lpa(segment, lpa)

    def covered_lpas(self, segment: Segment) -> List[int]:
        """The LPAs ``segment`` currently encodes (metadata or CRB driven)."""
        if segment.accurate:
            return segment.covered_lpas_accurate_list()
        return self.crb.lpas_of(segment)

    # ------------------------------------------------------------------ #
    # Update path (Algorithm 1, seg_update)
    # ------------------------------------------------------------------ #
    def update(self, learned: LearnedSegment, relearn: bool) -> None:
        """Insert a freshly learned segment at the topmost level.

        ``relearn`` marks a reclaim migration's refit (Section 3.6): each
        segment that owned one of the LPAs and now owns none leaves the
        table first, with its CRB run and its level if that is left empty,
        instead of shadowing below level 0 until a compaction.  "Owns none"
        is read from the owner index, so an owner that loses its LPAs over
        two migrations (one spanning blocks after an OOB-scan rebuild) goes
        at the second.  A host flush keeps Algorithm 1's rule: it merges
        within level 0 only.
        """
        segment = learned.segment
        if segment.group_base != self.group_base:
            raise ValueError("segment belongs to a different group")
        if not segment.accurate:
            self.crb.insert_segment(segment, learned.lpas)
        owners = self._owners
        base = self.group_base
        displaced: Dict[Optional[Segment], None] = (
            {owners[lpa - base]: None for lpa in learned.lpas} if relearn else {}
        )
        for lpa in learned.lpas:
            owners[lpa - base] = segment
        for owner in displaced:
            if owner is not None and owner not in self._owner_slots(owner):
                self._drop(owner)
        self._insert_at_level(segment, 0)

    def _owner_slots(self, segment: Segment) -> List[Optional[Segment]]:
        """The owner index over ``segment``'s interval, which holds every
        LPA it owns."""
        start = segment.start_lpa - self.group_base
        return self._owners[start : start + segment.length + 1]

    def _drop(self, segment: Segment) -> None:
        """Remove a segment that owns no LPA, its CRB run and an emptied level."""
        level = segment.level
        level.remove(segment)
        if not segment.accurate:
            self.crb.remove_segment(segment)
        if level.is_empty:
            self._drop_empty_levels()

    def _level_at(self, index: int) -> Level:
        while len(self._levels) <= index:
            self._levels.append(Level(depth=len(self._levels) + 1))
        return self._levels[index]

    def _renumber(self) -> None:
        """Restore ``depth == position`` after an insert or a removal."""
        for depth, level in enumerate(self._levels, start=1):
            level.depth = depth

    def _insert_at_level(self, segment: Segment, level_index: int) -> None:
        """Algorithm 1, lines 1-16: insert + merge + demote victims."""
        level = self._level_at(level_index)
        level.insert(segment)

        for victim in level.overlapping(segment.start_lpa, segment.end_lpa):
            if victim is segment:
                continue
            if self._merge(segment, victim):
                level.remove(victim)
                if not victim.accurate:
                    self.crb.remove_segment(victim)
            elif segment.overlaps(victim):
                # The victim still holds valid LPAs inside the new segment's
                # range: demote it so the newer segment shadows it.
                level.remove(victim)
                self._demote(victim, level_index + 1)
            else:
                # Trimmed but disjoint now; its start may have moved, so
                # restore the level's sort order.
                level.reposition(victim)

    def _demote(self, victim: Segment, target_index: int) -> None:
        """Push a victim one level down, creating a level to avoid recursion."""
        if target_index >= len(self._levels):
            self._level_at(target_index).insert(victim)
            return
        target = self._levels[target_index]
        if target.overlaps_range(victim.start_lpa, victim.end_lpa):
            # Algorithm 1, line 15-16: never merge recursively — give the
            # victim its own level right above the conflicting one.
            fresh = Level()
            fresh.insert(victim)
            self._levels.insert(target_index, fresh)
            self._renumber()
        else:
            target.insert(victim)

    # ------------------------------------------------------------------ #
    # Carry (a reclaim migration that moved whole owners)
    # ------------------------------------------------------------------ #
    def carry(
        self, points: Sequence[Tuple[int, int]], old_ppa: Mapping[int, int], gamma: int
    ) -> List[Segment]:
        """Re-base the owners of ``points`` in place when they moved whole.

        ``points`` are the ``(lpa, ppa)`` pairs of one candidate segment of
        a migration batch, ``old_ppa`` each LPA's page before the move.  The
        candidate is carried when it is made only of *whole owners*: owner
        index segments every LPA of which is among the points, all moved by
        one PPA shift (one owner at gamma 0, where a fresh fit could fuse
        no two owners without growing the table).  One pass over the points
        groups them by owner, each owner taking the shift of its first
        point, and checks that every point moved by its owner's shift and
        that the re-based intercept predicts it exactly for an accurate
        owner, within ``gamma`` for an approximate one.  A carried owner
        keeps its level, interval and CRB entries, and holds its LPAs'
        newest mappings like the segment a fresh fit would learn.

        Returns the carried owners; empty, with nothing changed, otherwise.
        """
        owners = self._owners
        base = self.group_base
        total = len(points)
        ceil = math.ceil
        shifts: Dict[Segment, int] = {}  # each owner met so far, in order
        owned = 0  # the LPAs those owners own
        owner: Optional[Segment] = None
        shift = limit = 0
        slope = intercept = 0.0
        for lpa, ppa in points:
            at = owners[lpa - base]
            if at is not owner:
                if at is None:
                    return []
                owner = at
                if owner not in shifts:
                    # A point's owner owns its LPA, so the owners are whole
                    # exactly when they own no LPA beyond the points; at
                    # gamma 0 the first owner must own them all.
                    owned += self._owner_slots(owner).count(owner)
                    if owned > total or (gamma == 0 and owned < total):
                        return []
                    shifts[owner] = ppa - old_ppa[lpa]
                shift = shifts[owner]
                intercept = owner.intercept + shift
                slope = owner.slope
                limit = 0 if owner.accurate else gamma
            error = ceil(slope * (lpa - base) + intercept) - ppa
            if ppa - old_ppa[lpa] != shift or error > limit or -error > limit:
                return []
        if owned != total:
            return []
        for owner, shift in shifts.items():
            owner.intercept += shift
        return list(shifts)

    # ------------------------------------------------------------------ #
    # Merge (Algorithm 2)
    # ------------------------------------------------------------------ #
    def _merge(self, new: Segment, old: Segment) -> bool:
        """Remove from ``old`` every LPA that ``new`` now encodes.

        Returns whether that left ``old`` no LPA: Algorithm 2's ``L = -1``,
        on which the caller removes ``old`` from its level and the CRB.

        The paper's Algorithm 2 materializes per-LPA bitmaps over the union
        range; building the covered-LPA sets directly from segment metadata
        (stride lattice for accurate segments, CRB entries for approximate
        ones) computes the same remainder without the per-LPA ``has_lpa``
        scans, and produces the identical trimmed ``(start_lpa, length)``
        state — including the stride-phase behaviour of trimmed accurate
        segments, which is anchored at the new ``start_lpa`` in both forms.

        When the *new* segment is accurate its membership is an O(1) lattice
        test, so the remainder needs no set materialization at all: an
        accurate victim only needs its surviving endpoints (scanned from both
        ends of its stride lattice), and an approximate victim filters its
        CRB list directly.  Both branches compute exactly the endpoints the
        set difference would.
        """
        if new.accurate:
            n_start = new.start_lpa
            n_end = new.end_lpa
            n_stride = new.stride
            if old.accurate:
                o_stride = old.stride
                first = old.start_lpa
                o_last = first + (old.length // o_stride) * o_stride
                while (
                    first <= o_last
                    and n_start <= first <= n_end
                    and (first - n_start) % n_stride == 0
                ):
                    first += o_stride
                if first > o_last:
                    return True
                last = o_last
                while (
                    n_start <= last <= n_end and (last - n_start) % n_stride == 0
                ):
                    last -= o_stride
                old.start_lpa = first
                old.length = last - first
                return False
            remaining_list = [
                lpa
                for lpa in self.covered_lpas(old)
                if not (
                    n_start <= lpa <= n_end and (lpa - n_start) % n_stride == 0
                )
            ]
            if not remaining_list:
                return True
            old.start_lpa = remaining_list[0]
            old.length = remaining_list[-1] - remaining_list[0]
            self.crb.retain_lpas(old, remaining_list)
            return False
        remaining = set(self.covered_lpas(old))
        remaining.difference_update(self.covered_lpas(new))
        if not remaining:
            return True
        first = min(remaining)
        last = max(remaining)
        old.start_lpa = first
        old.length = last - first
        if not old.accurate:
            self.crb.retain_lpas(old, remaining)
        return False

    # ------------------------------------------------------------------ #
    # Lookup (Algorithm 1, lookup)
    # ------------------------------------------------------------------ #
    def lookup(self, lpa: int) -> LookupResult:
        """Top-down search for the newest segment that encodes ``lpa``."""
        for depth, level in enumerate(self._levels, start=1):
            segment = level.find_covering(lpa)
            if segment is not None and self.has_lpa(segment, lpa):
                return LookupResult(
                    ppa=segment.predict(lpa), levels_searched=depth, segment=segment
                )
        return LookupResult(ppa=None, levels_searched=max(len(self._levels), 1))

    def lookup_range(
        self, start_lpa: int, end_lpa: int, stats: MappingTableStats
    ) -> List[Optional[int]]:
        """Resolve every LPA of ``[start_lpa, end_lpa]`` from the owner index.

        Returns one PPA per LPA, equal to :meth:`lookup`'s: the owner's
        prediction, ``None`` for a miss.  ``stats`` is charged once per
        *resolution run*, a maximal stretch of LPAs with one owner (or one
        miss gap), since all of its pages searched the same levels: the
        depth of the owner's level, what the walk would have searched to
        reach it, and every level for a miss.  A resolved run also counts
        in ``stats.levels_histogram`` at that depth.
        """
        base = self.group_base
        if not base <= start_lpa <= end_lpa < base + self.group_size:
            raise ValueError(
                f"[{start_lpa}, {end_lpa}] is not a range of the group at {base}"
            )
        ppas: List[Optional[int]] = []
        append = ppas.append
        ceil = math.ceil
        histogram = stats.levels_histogram
        runs = levels = 0
        low = start_lpa - base
        previous: object = self  # matches no owner slot, not even an empty one
        for offset, segment in enumerate(self._owners[low : end_lpa - base + 1], low):
            if segment is previous:
                append(None if segment is None else ceil(slope * offset + intercept))
                continue
            previous = segment
            runs += 1
            if segment is None:
                append(None)
                levels += max(len(self._levels), 1)
            else:
                slope = segment.slope
                intercept = segment.intercept
                append(ceil(slope * offset + intercept))
                depth = segment.level.depth
                levels += depth
                histogram[depth] = histogram.get(depth, 0) + 1
        stats.lookups += runs
        stats.lookup_levels_total += levels
        return ppas

    # ------------------------------------------------------------------ #
    # Compaction (Algorithm 1, seg_compact)
    # ------------------------------------------------------------------ #
    def compact(self) -> None:
        """Drop the segments no owner slot names; merge levels down while that removes one."""
        named = set(self._owners)
        for segment in self.segments():
            if segment not in named:
                self._drop(segment)
        levels = len(self._levels) + 1
        while 1 < len(self._levels) < levels:
            levels = len(self._levels)
            for segment in self._levels.pop(0):  # the popped level is discarded
                self._insert_at_level(segment, 0)
            self._drop_empty_levels()

    def _drop_empty_levels(self) -> None:
        self._levels = [level for level in self._levels if not level.is_empty]
        self._renumber()

    # ------------------------------------------------------------------ #
    # Validation (used by tests)
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the structural invariants of the group.

        Besides the levels and the owner index: the CRB runs are pairwise
        disjoint, and each belongs to an approximate segment of the levels
        and lies inside that segment's interval.
        """
        crb_lpas: Set[int] = set()
        runs = 0
        for depth, level in enumerate(self._levels, start=1):
            assert level.depth == depth, "level depths are not 1..n"
            level.validate_sorted_non_overlapping()
            for segment in level:
                assert segment.group_base == self.group_base
                assert segment.level is level, (
                    f"{segment}: level back-reference is not the level holding it"
                )
                lpas = [] if segment.accurate else self.crb.lpas_of(segment)
                if lpas:
                    runs += 1
                    assert segment.covers(lpas[0]) and segment.covers(lpas[-1]), (
                        f"{segment}: CRB run {lpas} reaches outside its interval"
                    )
                    assert crb_lpas.isdisjoint(lpas), f"{segment}: CRB run shares an LPA"
                    crb_lpas.update(lpas)
        assert runs == self.crb.segment_count(), (
            "a CRB run belongs to no approximate segment of the levels"
        )
        for lpa, owner in enumerate(self._owners, start=self.group_base):
            assert owner is self.lookup(lpa).segment, (
                f"owner index disagrees with the level walk at LPA {lpa}"
            )
