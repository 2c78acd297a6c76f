"""Conflict Resolution Buffer (CRB) — Section 3.4, Figures 9 and 10.

Approximate segments are learned from irregular access patterns, so the LPAs
they encode cannot be reconstructed from their ``(S_LPA, L, K, I)`` metadata.
When approximate segments with overlapping LPA ranges coexist in the mapping
table, a lookup could pick the wrong one.  The CRB resolves this: per LPA
group, it remembers which LPAs belong to which approximate segment.

The paper stores the CRB as a nearly-sorted byte array of group-relative LPA
offsets where the LPAs of one segment are contiguous, segments are separated
by a null byte, and no LPA appears twice (newer segments steal LPAs from
older ones).  This implementation holds exactly those bytes: per approximate
segment, a ``bytearray`` of its group-relative offsets in ascending order —
one run of the paper's array, with the run's separator implied by the end of
the ``bytearray`` — so :meth:`ConflictResolutionBuffer.size_bytes` is the
stored bytes plus one separator per segment.  Runs are keyed by segment
identity, which avoids the paper's S_LPA-collision renaming rule (identity
already disambiguates two segments that start at the same LPA).

Beside the runs, the CRB keeps one owner slot per LPA offset, allocated
with its first approximate segment: simulator state, like the group's owner
index, that makes :meth:`ConflictResolutionBuffer.owner` a list read instead
of a scan of the runs, and is not counted in the DRAM footprint.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.segment import GROUP_SIZE, Segment


class ConflictResolutionBuffer:
    """The CRB of one LPA group: the LPA offsets each approximate segment owns."""

    def __init__(self, group_base: int, group_size: int = GROUP_SIZE) -> None:
        self._base = group_base
        self._size = group_size
        #: segment -> the group-relative offsets it owns (ascending, never empty).
        self._runs: Dict[Segment, bytearray] = {}
        #: Per group-relative offset, the segment whose run holds it: empty
        #: until the first insert, then ``group_size`` slots.
        self._owner: List[Optional[Segment]] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of LPA entries stored (excludes separators)."""
        return sum(map(len, self._runs.values()))

    def segment_count(self) -> int:
        return len(self._runs)

    def size_bytes(self) -> int:
        """DRAM bytes: one byte per LPA offset plus a null byte per segment."""
        return len(self) + len(self._runs)

    def owner(self, lpa: int) -> Optional[Segment]:
        """The approximate segment that currently owns ``lpa`` (if any)."""
        offset = lpa - self._base
        owner = self._owner
        return owner[offset] if 0 <= offset < len(owner) else None

    def lpas_of(self, segment: Segment) -> List[int]:
        """The LPAs currently owned by ``segment`` (sorted, possibly empty)."""
        base = self._base
        return [base + offset for offset in self._runs.get(segment, b"")]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert_segment(self, segment: Segment, lpas: Iterable[int]) -> None:
        """Register a new approximate segment and the LPAs it owns.

        Any of those LPAs previously owned by another segment are removed
        from that segment's run first (the paper's "no redundant LPAs"
        invariant): the newest segment always wins ownership.  A segment
        is registered once; the LPAs must lie in the group.
        """
        base = self._base
        offsets = sorted({lpa - base for lpa in lpas})
        if not offsets:
            return
        if segment in self._runs:
            raise ValueError(f"{segment} is already registered in the CRB")
        if offsets[0] < 0 or offsets[-1] >= self._size:
            raise ValueError(
                f"LPAs {base + offsets[0]}..{base + offsets[-1]} reach outside "
                f"the group [{base}, {base + self._size})"
            )
        owner = self._owner
        if not owner:
            owner = self._owner = [None] * self._size
        robbed: Dict[Segment, None] = {}
        for offset in offsets:
            previous = owner[offset]
            if previous is not None:
                robbed[previous] = None
            owner[offset] = segment
        for previous in robbed:
            kept = bytearray([offset for offset in self._runs[previous] if owner[offset] is previous])
            if kept:
                self._runs[previous] = kept
            else:
                del self._runs[previous]
        self._runs[segment] = bytearray(offsets)

    def remove_segment(self, segment: Segment) -> None:
        """Drop a segment and all LPAs it owns (segment removed from the table)."""
        run = self._runs.pop(segment, None)
        if run is None:
            return
        owner = self._owner
        for offset in run:
            owner[offset] = None

    def retain_lpas(self, segment: Segment, keep: Iterable[int]) -> None:
        """Restrict ``segment``'s run to ``keep`` (outdated LPAs dropped).

        Used by the merge procedure (Algorithm 2, line 25) after a victim
        segment has been trimmed: only the still-valid LPAs remain owned.
        """
        run = self._runs.get(segment)
        if run is None:
            return
        base = self._base
        keep_offsets = {lpa - base for lpa in keep}
        owner = self._owner
        kept = bytearray()
        for offset in run:
            if offset in keep_offsets:
                kept.append(offset)
            else:
                owner[offset] = None
        if kept:
            self._runs[segment] = kept
        else:
            del self._runs[segment]

    def clear(self) -> None:
        self._runs.clear()
        self._owner = []
