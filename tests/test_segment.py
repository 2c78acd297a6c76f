"""Tests for the learned segment encoding and prediction semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.group import LPAGroup
from repro.core.plr import LearnedSegment
from repro.core.segment import (
    GROUP_SIZE,
    SEGMENT_BYTES,
    Segment,
    group_base_of,
    quantize_slope,
    slope_is_accurate,
)


class TestSlopeQuantization:
    def test_accurate_slope_never_rounds_up(self):
        for stride in range(1, 200):
            slope = quantize_slope(1.0 / stride, accurate=True)
            assert slope <= 1.0 / stride

    def test_type_bit_encodes_segment_kind(self):
        assert slope_is_accurate(quantize_slope(0.37, accurate=True))
        assert not slope_is_accurate(quantize_slope(0.37, accurate=False))

    def test_zero_slope(self):
        assert quantize_slope(0.0, accurate=True) == 0.0
        assert not slope_is_accurate(quantize_slope(0.0, accurate=False))

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            quantize_slope(-0.1, accurate=True)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=200)
    def test_quantization_error_is_small(self, slope):
        quantized = quantize_slope(slope, accurate=True)
        assert quantized == pytest.approx(slope, rel=2e-3, abs=1e-4)


class TestSegmentPrediction:
    def test_single_point_segment(self):
        segment = Segment.single_point(group_base=0, lpa=42, ppa=777)
        assert segment.predict(42) == 777
        assert segment.accurate
        assert segment.length == 0

    def test_sequential_accurate_segment(self):
        # LPAs 0..3 -> PPAs 32..35 (Figure 6, accurate example).
        segment = Segment.from_anchor(
            group_base=0, start_lpa=0, length=3, raw_slope=1.0,
            anchor_lpa=0, anchor_ppa=32, accurate=True,
        )
        for lpa, expected in zip(range(4), range(32, 36)):
            assert segment.predict(lpa) == expected

    def test_strided_accurate_segment(self):
        # LPAs 0, 2, 4, 6 -> PPAs 100..103 (slope 0.5).
        segment = Segment.from_anchor(
            group_base=0, start_lpa=0, length=6, raw_slope=0.5,
            anchor_lpa=0, anchor_ppa=100, accurate=True,
        )
        assert [segment.predict(lpa) for lpa in (0, 2, 4, 6)] == [100, 101, 102, 103]
        assert segment.stride == 2
        assert segment.has_lpa_accurate(4)
        assert not segment.has_lpa_accurate(3)

    def test_approximate_segment_error_bounded(self):
        # Figure 6 approximate example: LPAs [0, 1, 4, 5] -> PPAs [64..67].
        segment = Segment.from_anchor(
            group_base=0, start_lpa=0, length=5, raw_slope=0.56,
            anchor_lpa=0, anchor_ppa=64, accurate=False,
        )
        truths = {0: 64, 1: 65, 4: 66, 5: 67}
        for lpa, ppa in truths.items():
            assert abs(segment.predict(lpa) - ppa) <= 1

    def test_covered_lpas_accurate_enumeration(self):
        segment = Segment.from_anchor(
            group_base=256, start_lpa=260, length=12, raw_slope=0.25,
            anchor_lpa=260, anchor_ppa=10, accurate=True,
        )
        assert segment.covered_lpas_accurate_list() == [260, 264, 268, 272]

    def test_group_boundary_enforced(self):
        with pytest.raises(ValueError):
            Segment(group_base=0, start_lpa=250, length=10, slope=1.0, intercept=0.0, accurate=True)

    def test_covers_and_overlaps(self):
        a = Segment(group_base=0, start_lpa=10, length=20, slope=1.0, intercept=0.0, accurate=True)
        b = Segment(group_base=0, start_lpa=25, length=10, slope=1.0, intercept=0.0, accurate=True)
        c = Segment(group_base=0, start_lpa=40, length=5, slope=1.0, intercept=0.0, accurate=True)
        assert a.covers(10) and a.covers(30) and not a.covers(31)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_removable_marking(self):
        """A segment a merge empties (Algorithm 2's ``L = -1``) leaves the table."""
        group = LPAGroup(group_base=0)
        buried = Segment.single_point(0, 5, 9)
        group.update(LearnedSegment(buried, [5]), relearn=False)
        newer = Segment.single_point(0, 5, 20)
        group.update(LearnedSegment(newer, [5]), relearn=False)
        assert group.segments() == [newer]
        assert buried.length == 0 and buried.covers(5)
        assert group.lookup(5).ppa == 20
        group.validate()

    def test_negative_length_rejected(self):
        """A merge removes the segment it empties, so ``L = -1`` never exists."""
        with pytest.raises(ValueError, match="length -1"):
            Segment(group_base=0, start_lpa=5, length=-1, slope=0.0, intercept=9.0, accurate=True)


class TestSegmentEncoding:
    def test_eight_byte_encoding(self):
        segment = Segment.from_anchor(
            group_base=512, start_lpa=520, length=100, raw_slope=0.5,
            anchor_lpa=520, anchor_ppa=4000, accurate=True,
        )
        data = segment.to_bytes()
        assert len(data) == SEGMENT_BYTES == 8

    def test_round_trip_preserves_fields(self):
        segment = Segment.from_anchor(
            group_base=1024, start_lpa=1030, length=60, raw_slope=0.25,
            anchor_lpa=1030, anchor_ppa=123456, accurate=False,
        )
        decoded = Segment.from_bytes(segment.to_bytes(), group_base=1024)
        assert decoded.start_lpa == segment.start_lpa
        assert decoded.length == segment.length
        assert decoded.accurate == segment.accurate
        assert decoded.slope == pytest.approx(segment.slope)
        assert decoded.intercept == pytest.approx(segment.intercept, abs=1.0)

    def test_round_trip_single_point_prediction(self):
        segment = Segment.single_point(group_base=0, lpa=17, ppa=999)
        decoded = Segment.from_bytes(segment.to_bytes(), group_base=0)
        assert decoded.predict(17) == 999

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Segment.from_bytes(b"\x00" * 7, group_base=0)


class TestGroupHelpers:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_group_base_and_id_consistent(self, lpa):
        base = group_base_of(lpa)
        assert base == (lpa // GROUP_SIZE) * GROUP_SIZE
        assert base <= lpa < base + GROUP_SIZE
