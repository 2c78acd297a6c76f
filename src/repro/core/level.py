"""One level of the log-structured mapping table.

A level is a set of learned segments whose LPA intervals do **not** overlap,
kept sorted by their starting LPA so that the segment covering a given LPA
is found with a binary search (Algorithm 1, line 2/19 of the paper).
Overlap is only allowed *across* levels — newer segments live in higher
levels — which is what lets LeaFTL serve the latest mapping without
relearning older segments on every update.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional

from repro.core.segment import Segment


class Level:
    """A sorted, non-overlapping run of segments."""

    def __init__(self, depth: int = 0) -> None:
        self._segments: List[Segment] = []
        self._starts: List[int] = []
        #: 1-based position in the owning group's level list — the levels a
        #: lookup resolved here has searched (0 while in no group).  The
        #: group renumbers whenever its level list changes shape.
        self.depth = depth

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __contains__(self, segment: Segment) -> bool:
        return any(existing is segment for existing in self._segments)

    @property
    def is_empty(self) -> bool:
        return not self._segments

    def segments(self) -> List[Segment]:
        """A snapshot copy of the segments (safe to iterate while mutating)."""
        return list(self._segments)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def find_covering(self, lpa: int) -> Optional[Segment]:
        """The segment whose LPA interval contains ``lpa``, if any."""
        index = bisect.bisect_right(self._starts, lpa) - 1
        if index < 0:
            return None
        segment = self._segments[index]
        return segment if segment.covers(lpa) else None

    def overlapping(self, start_lpa: int, end_lpa: int) -> List[Segment]:
        """All segments whose interval intersects ``[start_lpa, end_lpa]``."""
        result: List[Segment] = []
        # Step back two positions: during an insertion the level temporarily
        # holds the (overlapping) new segment, so both it and its predecessor
        # may start at or before ``start_lpa`` while reaching into the range.
        index = max(0, bisect.bisect_right(self._starts, start_lpa) - 2)
        while index < len(self._segments):
            segment = self._segments[index]
            if segment.start_lpa > end_lpa:
                break
            if segment.overlaps_range(start_lpa, end_lpa):
                result.append(segment)
            index += 1
        return result

    def overlaps_range(self, start_lpa: int, end_lpa: int) -> bool:
        return bool(self.overlapping(start_lpa, end_lpa))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, segment: Segment) -> None:
        """Insert ``segment`` keeping the level sorted by starting LPA.

        The caller is responsible for resolving overlaps (the merge procedure
        of Algorithm 2 runs *after* insertion, exactly as in the paper).
        """
        index = bisect.bisect_left(self._starts, segment.start_lpa)
        self._segments.insert(index, segment)
        self._starts.insert(index, segment.start_lpa)
        segment.level = self

    def remove(self, segment: Segment) -> None:
        """Remove ``segment`` (identity match) from the level.

        The common case — the segment's ``start_lpa`` unchanged since
        insertion — is located with a binary search over the recorded
        starts; a merge-trimmed segment whose start moved falls back to
        the identity scan.
        """
        segments = self._segments
        starts = self._starts
        index = bisect.bisect_left(starts, segment.start_lpa)
        total = len(segments)
        while index < total and starts[index] == segment.start_lpa:
            if segments[index] is segment:
                del segments[index]
                del starts[index]
                return
            index += 1
        for index, existing in enumerate(segments):
            if existing is segment:
                del segments[index]
                del starts[index]
                return
        raise ValueError("segment not present in this level")

    def reposition(self, segment: Segment) -> None:
        """Re-sort a segment whose ``start_lpa`` was updated by a merge."""
        self.remove(segment)
        self.insert(segment)

    def validate_sorted_non_overlapping(self) -> None:
        """Raise ``AssertionError`` if the level invariant is broken (tests)."""
        for left, right in zip(self._segments, self._segments[1:]):
            assert left.start_lpa <= right.start_lpa, "level not sorted"
            assert left.end_lpa < right.start_lpa, (
                f"overlapping segments in one level: {left} / {right}"
            )
