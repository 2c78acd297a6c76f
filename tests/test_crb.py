"""Tests for the Conflict Resolution Buffer."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crb import ConflictResolutionBuffer
from repro.core.segment import Segment


def approx_segment(start, length, ppa=0, group_base=0):
    return Segment.from_anchor(
        group_base=group_base, start_lpa=start, length=length, raw_slope=0.5,
        anchor_lpa=start, anchor_ppa=ppa, accurate=False,
    )


class TestCRBBasics:
    def test_insert_and_owner(self):
        crb = ConflictResolutionBuffer(0)
        seg = approx_segment(100, 6)
        crb.insert_segment(seg, [100, 101, 103, 104, 106])
        assert crb.owner(103) is seg
        assert crb.owner(105) is None
        assert crb.lpas_of(seg) == [100, 101, 103, 104, 106]

    def test_size_accounting_matches_paper_model(self):
        crb = ConflictResolutionBuffer(0)
        seg_a = approx_segment(100, 6)
        seg_b = approx_segment(102, 6)
        crb.insert_segment(seg_a, [100, 101, 103, 104, 106])
        crb.insert_segment(seg_b, [102, 105, 107, 108])
        # One byte per stored LPA plus one null separator per segment.
        assert crb.size_bytes() == 9 + 2
        assert len(crb) == 9
        assert crb.segment_count() == 2

    def test_newer_segment_steals_lpas(self):
        """Figure 9: LPA 105 must resolve to the newest covering segment."""
        crb = ConflictResolutionBuffer(0)
        older = approx_segment(100, 6)
        newer = approx_segment(102, 6)
        crb.insert_segment(older, [100, 101, 103, 104, 105, 106])
        crb.insert_segment(newer, [102, 105, 107, 108])
        assert crb.owner(105) is newer
        assert 105 not in crb.lpas_of(older)
        # No LPA is ever stored twice.
        all_lpas = crb.lpas_of(older) + crb.lpas_of(newer)
        assert len(all_lpas) == len(set(all_lpas))

    def test_remove_segment(self):
        crb = ConflictResolutionBuffer(0)
        seg = approx_segment(10, 5)
        crb.insert_segment(seg, [10, 12, 15])
        crb.remove_segment(seg)
        assert crb.owner(12) is None
        assert crb.size_bytes() == 0

    def test_retain_lpas_drops_outdated_entries(self):
        crb = ConflictResolutionBuffer(0)
        seg = approx_segment(10, 10)
        crb.insert_segment(seg, [10, 12, 15, 18, 20])
        crb.retain_lpas(seg, [12, 18])
        assert crb.lpas_of(seg) == [12, 18]
        assert crb.owner(10) is None
        assert crb.owner(12) is seg

    def test_retain_all_outdated_removes_entry(self):
        crb = ConflictResolutionBuffer(0)
        seg = approx_segment(10, 4)
        crb.insert_segment(seg, [10, 11])
        crb.retain_lpas(seg, [])
        assert crb.segment_count() == 0
        assert crb.size_bytes() == 0

    def test_same_start_lpa_segments_coexist(self):
        """Two approximate segments may start at the same LPA (identity keyed)."""
        crb = ConflictResolutionBuffer(0)
        older = approx_segment(100, 8)
        newer = approx_segment(100, 8, ppa=50)
        crb.insert_segment(older, [100, 104, 108])
        crb.insert_segment(newer, [100, 102])
        assert crb.owner(100) is newer
        assert crb.owner(104) is older
        assert crb.lpas_of(older) == [104, 108]

    def test_empty_insert_is_noop(self):
        crb = ConflictResolutionBuffer(0)
        seg = approx_segment(0, 3)
        crb.insert_segment(seg, [])
        assert crb.size_bytes() == 0
        assert crb.segment_count() == 0

    def test_clear(self):
        crb = ConflictResolutionBuffer(0)
        crb.insert_segment(approx_segment(0, 3), [0, 2])
        crb.clear()
        assert crb.size_bytes() == 0
        assert crb.owner(0) is None


class TestCRBContract:
    def test_a_segment_registers_once(self):
        crb = ConflictResolutionBuffer(256)
        seg = approx_segment(260, 4, group_base=256)
        crb.insert_segment(seg, [260, 262])
        with pytest.raises(ValueError, match="already registered"):
            crb.insert_segment(seg, [261])

    @pytest.mark.parametrize("lpas", [[255, 256], [300, 320], [319, 320]])
    def test_lpas_outside_the_group_are_refused(self, lpas):
        crb = ConflictResolutionBuffer(256, 64)
        with pytest.raises(ValueError, match="outside the group"):
            crb.insert_segment(approx_segment(256, 8, group_base=256), lpas)
        assert crb.size_bytes() == 0

    def test_runs_are_the_papers_offset_bytes(self):
        """Each segment's run is its group-relative offsets, one byte each."""
        crb = ConflictResolutionBuffer(512)
        older = approx_segment(512, 8, group_base=512)
        newer = approx_segment(514, 8, group_base=512)
        crb.insert_segment(older, [512, 513, 515, 516])
        crb.insert_segment(newer, [514, 515, 519])
        assert crb._runs == {older: bytearray([0, 1, 4]), newer: bytearray([2, 3, 7])}
        assert crb.size_bytes() == 6 + 2


class DictCRB:
    """The reference model: the CRB as it was kept before its byte runs.

    One sorted LPA list per segment and an ``{lpa: segment}`` inverse index,
    both keyed by absolute LPA.
    """

    def __init__(self) -> None:
        self._lpas_of: Dict[Segment, List[int]] = {}
        self._owner_of: Dict[int, Segment] = {}

    def __len__(self) -> int:
        return len(self._owner_of)

    def segment_count(self) -> int:
        return len(self._lpas_of)

    def size_bytes(self) -> int:
        return len(self._owner_of) + len(self._lpas_of)

    def owner(self, lpa: int) -> Optional[Segment]:
        return self._owner_of.get(lpa)

    def lpas_of(self, segment: Segment) -> List[int]:
        return list(self._lpas_of.get(segment, []))

    def insert_segment(self, segment: Segment, lpas: Iterable[int]) -> None:
        owned = sorted(set(lpas))
        if not owned:
            return
        for lpa in owned:
            previous = self._owner_of.get(lpa)
            if previous is not None and previous is not segment:
                self._discard_lpa(previous, lpa)
            self._owner_of[lpa] = segment
        self._lpas_of[segment] = owned

    def remove_segment(self, segment: Segment) -> None:
        owned = self._lpas_of.pop(segment, None)
        if not owned:
            return
        for lpa in owned:
            if self._owner_of.get(lpa) is segment:
                del self._owner_of[lpa]

    def retain_lpas(self, segment: Segment, keep: Iterable[int]) -> None:
        if segment not in self._lpas_of:
            return
        keep_set = set(keep)
        current = self._lpas_of[segment]
        remaining = [lpa for lpa in current if lpa in keep_set]
        for lpa in current:
            if lpa not in keep_set and self._owner_of.get(lpa) is segment:
                del self._owner_of[lpa]
        if remaining:
            self._lpas_of[segment] = remaining
        else:
            del self._lpas_of[segment]

    def _discard_lpa(self, segment: Segment, lpa: int) -> None:
        entry = self._lpas_of.get(segment)
        if entry is None:
            return
        try:
            entry.remove(lpa)
        except ValueError:
            return
        if not entry:
            del self._lpas_of[segment]

    def clear(self) -> None:
        self._lpas_of.clear()
        self._owner_of.clear()


@given(
    group_base=st.sampled_from([0, 256, 4096]),
    group_size=st.sampled_from([64, 256]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_crb_equals_the_dict_reference(group_base, group_size, data):
    """Interleaved inserts, removals, retains and clears, checked after every step.

    Inserts crowd 32-LPA windows at the head, middle and tail of the group,
    so newer segments steal from older ones; removals and retains pick any
    segment ever made, registered or not; a retain keeps a drawn subset of
    the segment's LPAs plus strangers from the group.
    """
    crb = ConflictResolutionBuffer(group_base, group_size)
    oracle = DictCRB()
    segments: List[Segment] = []
    in_group = st.integers(group_base, group_base + group_size - 1)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        kinds = ["insert", "insert", "clear"] + (["remove", "retain"] if segments else [])
        kind = data.draw(st.sampled_from(kinds), label="step")
        if kind == "insert":
            window = group_base + data.draw(st.sampled_from([0, group_size // 2, group_size - 32]))
            lpas = data.draw(st.lists(st.integers(window, window + 31), max_size=24), label="lpas")
            segment = approx_segment(window, 31, ppa=len(segments), group_base=group_base)
            segments.append(segment)
            crb.insert_segment(segment, lpas)
            oracle.insert_segment(segment, lpas)
        elif kind == "remove":
            segment = data.draw(st.sampled_from(segments), label="remove")
            crb.remove_segment(segment)
            oracle.remove_segment(segment)
        elif kind == "retain":
            segment = data.draw(st.sampled_from(segments), label="retain")
            keep = [lpa for lpa in oracle.lpas_of(segment) if data.draw(st.booleans())]
            keep += data.draw(st.lists(in_group, max_size=4), label="strangers")
            crb.retain_lpas(segment, keep)
            oracle.retain_lpas(segment, keep)
        else:
            crb.clear()
            oracle.clear()
        assert len(crb) == len(oracle)
        assert crb.size_bytes() == oracle.size_bytes()
        assert crb.segment_count() == oracle.segment_count()
        for lpa in range(group_base - 2, group_base + group_size + 2):
            assert crb.owner(lpa) is oracle.owner(lpa), (kind, lpa)
        for segment in segments:
            assert crb.lpas_of(segment) == oracle.lpas_of(segment), kind
