"""Tests for the greedy error-bounded piecewise linear regression learner."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.plr import PLRLearner
from repro.core.segment import GROUP_SIZE
from repro.ssd.ssd import SSDOptions
from tests.conftest import make_ssd


def verify_error_bound(learned, mappings, gamma):
    """Every learned segment must predict its LPAs within gamma."""
    truth = dict(mappings)
    for item in learned:
        for lpa in item.lpas:
            error = abs(item.segment.predict(lpa) - truth[lpa])
            limit = 0 if item.segment.accurate else gamma
            assert error <= limit, (
                f"segment {item.segment} predicts {item.segment.predict(lpa)} "
                f"for LPA {lpa}, truth {truth[lpa]}, gamma {gamma}"
            )


def covered_lpas(learned):
    out = []
    for item in learned:
        out.extend(item.lpas)
    return out


class TestSequentialPatterns:
    def test_single_sequential_run_is_one_segment(self):
        mappings = [(lpa, 1000 + lpa) for lpa in range(100)]
        learned = PLRLearner(gamma=0).learn(mappings)
        assert len(learned) == 1
        assert learned[0].accurate
        assert len(learned[0].lpas) == 100

    def test_strided_run_is_one_accurate_segment(self):
        mappings = [(10 + 4 * i, 500 + i) for i in range(30)]
        learned = PLRLearner(gamma=0).learn(mappings)
        assert len(learned) == 1
        assert learned[0].accurate
        verify_error_bound(learned, mappings, 0)

    def test_figure1_example_segments(self):
        # Pattern A: sequential; pattern B: regular stride 2.
        pattern_a = [(30 + i, 155 + i) for i in range(5)]
        pattern_b = [(60 + 2 * i, 200 + i) for i in range(5)]
        learned_a = PLRLearner(gamma=0).learn(pattern_a)
        learned_b = PLRLearner(gamma=0).learn(pattern_b)
        assert len(learned_a) == 1 and learned_a[0].accurate
        assert len(learned_b) == 1 and learned_b[0].accurate

    def test_irregular_pattern_needs_gamma(self):
        # Pattern C of Figure 1: irregular stride, only learnable approximately.
        lpas = [80, 82, 83, 84, 87]
        mappings = [(lpa, 304 + i) for i, lpa in enumerate(lpas)]
        exact = PLRLearner(gamma=0).learn(mappings)
        relaxed = PLRLearner(gamma=4).learn(mappings)
        assert len(relaxed) < len(exact)
        verify_error_bound(relaxed, mappings, 4)


class TestRandomPatterns:
    def test_random_mappings_become_single_points(self):
        rng = random.Random(7)
        lpas = rng.sample(range(0, 200, 7), 20)
        mappings = [(lpa, rng.randrange(10**6)) for lpa in sorted(lpas)]
        learned = PLRLearner(gamma=0).learn(mappings)
        # Memory never exceeds page-level mapping: at most one segment each.
        assert len(learned) <= len(mappings)
        verify_error_bound(learned, mappings, 0)

    def test_all_lpas_covered_exactly_once(self):
        rng = random.Random(11)
        lpas = sorted(rng.sample(range(1000), 300))
        mappings = [(lpa, 5000 + i) for i, lpa in enumerate(lpas)]
        learned = PLRLearner(gamma=4).learn(mappings)
        assert sorted(covered_lpas(learned)) == lpas


class TestLearnerProperties:
    def test_duplicate_lpas_rejected(self):
        with pytest.raises(ValueError):
            PLRLearner(gamma=0).learn([(1, 10), (1, 11)])

    @pytest.mark.parametrize("batch", [[(1, 11), (5, 3), (1, 10)], [(7, 2), (3, 9), (7, 2)]])
    def test_duplicate_lpas_rejected_in_any_order(self, batch):
        """Tuple order sorts a duplicate LPA next to its twin, whatever the
        PPAs: the check names it like the LPA-keyed sort did."""
        lpa = batch[0][0]
        with pytest.raises(ValueError, match=f"^duplicate LPA {lpa} in one learning batch$"):
            PLRLearner(gamma=0).learn(batch)

    @given(
        lpas=st.lists(st.integers(0, 4 * GROUP_SIZE), min_size=1, max_size=300, unique=True),
        gamma=st.sampled_from([0, 1, 4]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffled_batch_learns_the_sorted_batch_segments(self, lpas, gamma, seed):
        """The learner orders a batch itself: a shuffled flush learns the
        segments of the sorted one, field for field."""
        rng = random.Random(seed)
        ppas = sorted(rng.sample(range(10 * len(lpas)), len(lpas)))
        mappings = list(zip(sorted(lpas), ppas))
        shuffled = mappings[:]
        rng.shuffle(shuffled)

        def fields(learned):
            return [
                (item.lpas, segment.start_lpa, segment.length, segment.slope, segment.intercept, segment.accurate)
                for item in learned
                for segment in (item.segment,)
            ]

        learner = PLRLearner(gamma=gamma)
        assert fields(learner.learn(shuffled)) == fields(learner.learn(mappings))

    def test_empty_batch(self):
        assert PLRLearner(gamma=0).learn([]) == []

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            PLRLearner(gamma=-1)

    def test_segments_never_span_groups(self):
        mappings = [(250 + i, 900 + i) for i in range(12)]  # crosses LPA 256
        learned = PLRLearner(gamma=0).learn(mappings)
        for item in learned:
            assert item.segment.end_lpa < item.segment.group_base + GROUP_SIZE
            assert item.segment.start_lpa >= item.segment.group_base
        assert sorted(covered_lpas(learned)) == [lpa for lpa, _ in mappings]

    def test_segment_count_decreases_with_gamma(self):
        rng = random.Random(3)
        mappings = []
        ppa = 0
        lpa = 0
        while lpa < 2000:
            mappings.append((lpa, ppa))
            ppa += 1
            lpa += rng.choice((1, 1, 1, 2, 3))
        counts = {}
        for gamma in (0, 4, 8):
            counts[gamma] = len(PLRLearner(gamma=gamma).learn(mappings))
            verify_error_bound(PLRLearner(gamma=gamma).learn(mappings), mappings, gamma)
        assert counts[4] <= counts[0]
        assert counts[8] <= counts[4]

    @given(
        gamma=st.sampled_from([0, 1, 4, 16]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_error_bound_is_hard_guarantee(self, gamma, seed):
        """Property: for any monotonic batch, predictions stay within gamma."""
        rng = random.Random(seed)
        lpa = rng.randrange(0, 5000)
        mappings = []
        ppa = rng.randrange(0, 100_000)
        for _ in range(rng.randint(1, 300)):
            mappings.append((lpa, ppa))
            lpa += rng.choice((1, 1, 2, 3, 5, 17))
            ppa += 1
        learned = PLRLearner(gamma=gamma).learn(mappings)
        verify_error_bound(learned, mappings, gamma)
        assert sorted(covered_lpas(learned)) == [l for l, _ in mappings]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_ppas_error_bound(self, seed):
        """Even non-monotonic PPAs (worst case) respect the bound."""
        rng = random.Random(seed)
        lpas = sorted(rng.sample(range(3000), rng.randint(1, 200)))
        mappings = [(lpa, rng.randrange(10**6)) for lpa in lpas]
        for gamma in (0, 4):
            learned = PLRLearner(gamma=gamma).learn(mappings)
            verify_error_bound(learned, mappings, gamma)


@st.composite
def jittered_batches(draw):
    """(gamma, batch): unique LPAs over up to three groups, non-monotone PPAs.

    PPAs follow the LPA rank with a per-point jitter of up to ±gamma, the
    shape an unsorted flush or a GC migration produces: cones grow long, the
    float16 slope often cannot hold the bound, and the split fallback runs.
    """
    gamma = draw(st.sampled_from([0, 1, 4, 8, 16]))
    start = draw(st.integers(0, 1 << 16))
    base = draw(st.integers(1 << 10, 1 << 22))
    size = draw(st.integers(1, 200))
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 767), st.integers(-gamma, gamma)),
            min_size=size,
            max_size=size,
            unique_by=lambda point: point[0],
        )
    )
    points.sort()
    return gamma, [
        (start + offset, base + rank + jitter)
        for rank, (offset, jitter) in enumerate(points)
    ]


class TestSplitFallback:
    """The quantization-split fallback relearns each half; it never raises."""

    @given(case=jittered_batches())
    # A half re-anchored at its own first point need not fit one cone.
    @example(
        case=(
            8,
            [(1336, 163505), (1388, 163498), (1394, 163507), (1417, 163507),
             (1428, 163493), (1455, 163505), (1717, 163497), (1753, 163496),
             (1853, 163507)],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_batch_is_learned_within_the_bound(self, case):
        gamma, mappings = case
        learned = PLRLearner(gamma=gamma).learn(mappings)
        assert sorted(covered_lpas(learned)) == [lpa for lpa, _ in mappings]
        verify_error_bound(learned, mappings, gamma)
        for item in learned:
            if item.accurate:
                assert item.segment.covered_lpas_accurate_list() == item.lpas

    def test_unsorted_flush_device_reads_back(self):
        """gamma = 8 without buffer sorting used to die in ``learn``."""
        ssd = make_ssd(gamma=8, options=SSDOptions(sort_buffer_on_flush=False))
        rng = random.Random(0)
        written = [rng.randrange(4096) for _ in range(5000)]
        ssd.run([("W", lpa, 1) for lpa in written])
        ssd.flush()
        ssd.run([("R", lpa, 1) for lpa in sorted(set(written))])
        assert ssd.stats.unmapped_reads == 0
        ssd.ftl.table.validate()


class TestConfiguredGroupSize:
    """Regression: the cone must stop at the *configured* group span.

    ``_extend_cone`` used to cap segment spans with the module constant
    ``GROUP_SIZE`` (256) instead of ``self.group_size``, so learners
    configured with a smaller group size could grow cones past their group
    boundary.
    """

    def test_extend_cone_stops_at_configured_group_span(self):
        learner = PLRLearner(gamma=0, group_size=64)
        # A perfectly linear run: the cone alone never closes, so only the
        # group-span cap can stop it.
        points = [(lpa, 1000 + lpa) for lpa in range(200)]
        end, _low, _high = learner._extend_cone(points, 0)
        assert points[end - 1][0] - points[0][0] <= 63

    def test_extend_cone_default_group_size_unchanged(self):
        learner = PLRLearner(gamma=0)
        points = [(lpa, 1000 + lpa) for lpa in range(300)]
        end, _low, _high = learner._extend_cone(points, 0)
        assert points[end - 1][0] - points[0][0] == GROUP_SIZE - 1

    def test_learning_with_group_size_64(self):
        learner = PLRLearner(gamma=4, group_size=64)
        mappings = [(lpa, 2000 + lpa) for lpa in range(256)]
        learned = learner.learn(mappings)
        # 256 sequential LPAs split into (at least) four 64-LPA groups.
        assert len(learned) >= 4
        for item in learned:
            assert item.segment.group_base % 64 == 0
            assert item.segment.end_lpa - item.segment.start_lpa <= 63
        verify_error_bound(learned, mappings, 4)
        assert sorted(covered_lpas(learned)) == [lpa for lpa, _ in mappings]
