"""Tests for the per-group log structure and the full mapping table.

The central invariant, checked both with targeted cases (the paper's
Figure 13 timeline) and property-based random histories: after any sequence
of batched updates, looking up any LPA returns a PPA within ``gamma`` of the
most recently recorded mapping, and with ``gamma = 0`` it is exact.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LeaFTLConfig
from repro.core.mapping_table import LogStructuredMappingTable

def make_table(gamma=0):
    return LogStructuredMappingTable(LeaFTLConfig(gamma=gamma))


class TestBasicUpdatesAndLookups:
    def test_lookup_unmapped(self):
        table = make_table()
        assert not table.lookup(123).found

    def test_sequential_batch(self):
        table = make_table()
        table.update([(lpa, 5000 + lpa) for lpa in range(64)])
        for lpa in range(64):
            assert table.lookup(lpa).ppa == 5000 + lpa
        assert table.segment_count() == 1
        assert table.memory_bytes() < 64 * 8  # beats the page-level table

    def test_overwrite_returns_latest(self):
        table = make_table()
        table.update([(lpa, 100 + lpa) for lpa in range(32)])
        table.update([(lpa, 900 + lpa) for lpa in range(32)])
        for lpa in range(32):
            assert table.lookup(lpa).ppa == 900 + lpa

    def test_partial_overwrite_keeps_old_tail(self):
        """Figure 13 (T2): [16, 31] overwrites part of [0, 63]."""
        table = make_table()
        table.update([(lpa, 1000 + lpa) for lpa in range(64)])
        table.update([(lpa, 3000 + lpa) for lpa in range(16, 32)])
        for lpa in range(64):
            expected = 3000 + lpa if 16 <= lpa < 32 else 1000 + lpa
            assert table.lookup(lpa).ppa == expected
        # The old segment was demoted, not destroyed: two levels exist.
        group = table.groups()[0]
        assert group.level_count == 2

    def test_single_point_updates(self):
        table = make_table()
        for i, lpa in enumerate((700, 20, 431, 90)):
            table.update([(lpa, 10_000 + i)])
        for i, lpa in enumerate((700, 20, 431, 90)):
            assert table.lookup(lpa).ppa == 10_000 + i

    def test_lookup_levels_reported(self):
        table = make_table()
        table.update([(lpa, 100 + lpa) for lpa in range(64)])
        table.update([(lpa, 500 + lpa) for lpa in range(8, 16)])
        shallow = table.lookup(10)
        deep = table.lookup(40)
        assert shallow.levels_searched == 1
        assert deep.levels_searched == 2


class TestCompaction:
    def test_full_shadowing_removes_old_segment(self):
        table = make_table()
        table.update([(lpa, 100 + lpa) for lpa in range(64)])
        table.update([(lpa, 900 + lpa) for lpa in range(64)])
        table.compact()
        assert table.segment_count() == 1
        for lpa in range(64):
            assert table.lookup(lpa).ppa == 900 + lpa

    def test_compaction_preserves_lookups(self):
        rng = random.Random(5)
        table = make_table(gamma=4)
        truth = {}
        ppa = 0
        for _ in range(60):
            start = rng.randrange(0, 2000)
            lpas = sorted(set(start + rng.randrange(0, 64) for _ in range(32)))
            batch = []
            for lpa in lpas:
                batch.append((lpa, ppa))
                truth[lpa] = ppa
                ppa += 1
            table.update(batch)
        table.compact()
        table.validate()
        for lpa, expected in truth.items():
            result = table.lookup(lpa)
            assert result.found
            assert abs(result.ppa - expected) <= 4

    def test_compaction_never_increases_memory(self):
        table = make_table()
        for round_ in range(10):
            table.update([(lpa, round_ * 1000 + lpa) for lpa in range(128)])
        before = table.memory_bytes()
        table.compact()
        assert table.memory_bytes() <= before


class TestMigrationDropsEmptiedOwners:
    """A migration's refit drops each segment it leaves owning no LPA; a
    host flush leaves it below level 0 for a compaction (Algorithm 1)."""

    @staticmethod
    def history(migrate, gamma=0):
        """[0, 8) in one segment (approximate at gamma 4: its pages swap in
        pairs), LPA 3 rewritten above it (demoting it to level 2), then
        [0, 3) and [4, 8) moved over two batches, the second cut into two
        candidates by the shifts, so no candidate is whole."""
        table = make_table(gamma)
        pages = [0, 2, 1, 3, 5, 4, 7, 6] if gamma else range(8)
        table.update(list(zip(range(8), pages)))
        table.update([(3, 100)])
        moves = [[(0, 200), (1, 201), (2, 202)], [(4, 300), (5, 301), (6, 400), (7, 401)]]
        for batch in moves:
            table.update(batch, [lpa for lpa, _ in batch] if migrate else None)
            table.validate()
        return table

    def test_an_owner_emptied_over_two_migrations_leaves_with_its_level(self):
        table = self.history(migrate=True)
        assert table.stats.segments_carried == 0
        group = table.groups()[0]
        assert [len(level) for level in group.levels()] == [4]
        assert [(table.lookup(lpa).ppa, table.lookup(lpa).levels_searched) for lpa in (3, 7)] == [
            (100, 1), (401, 1)
        ]

    def test_a_host_flush_keeps_the_emptied_owner_below_level_0(self):
        group = self.history(migrate=False).groups()[0]
        assert [len(level) for level in group.levels()] == [4, 1]

    @pytest.mark.parametrize("gamma", [0, 4])
    def test_compaction_drops_the_owner_a_host_flush_kept(self, gamma):
        """LPA 1 rewritten once more buries [0, 3) between level 0 and the
        emptied owner, so merging levels never reaches that owner; the
        owner index does, and it leaves with its CRB run and its level."""
        table = self.history(migrate=False, gamma=gamma)
        table.update([(1, 500)])
        group = table.groups()[0]
        (emptied,) = group.levels()[2].segments()
        assert emptied.accurate == (gamma == 0)
        assert group.crb.lpas_of(emptied) == ([] if gamma == 0 else [0, 1, 2, 4, 5, 6, 7])
        answers = [table.lookup(lpa) for lpa in range(8)]
        table.compact()
        table.validate()
        assert [len(level) for level in group.levels()] == [4, 1]
        assert emptied not in group.segments()
        assert group.crb.segment_count() == 0
        assert table.memory_bytes() == group.memory_bytes() == 48
        assert [table.lookup(lpa) for lpa in range(8)] == answers


class TestMemoryAccounting:
    def test_memory_grows_with_fragmentation(self):
        sequential = make_table()
        sequential.update([(lpa, lpa) for lpa in range(256)])
        fragmented = make_table()
        for lpa in range(0, 256, 2):
            fragmented.update([(lpa, lpa * 7 + 13)])
        assert fragmented.memory_bytes() > sequential.memory_bytes()

    def test_random_mapping_no_worse_than_page_level(self):
        rng = random.Random(9)
        table = make_table()
        lpas = sorted(rng.sample(range(10_000), 500))
        table.update([(lpa, rng.randrange(10**6)) for lpa in lpas])
        page_level_bytes = 500 * 8
        # Allow the CRB/level overhead but stay in the same ballpark.
        assert table.memory_bytes() <= page_level_bytes * 1.2

    @given(
        gamma=st.sampled_from([0, 4]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_running_total_is_the_sum_over_groups(self, gamma, seed):
        """``memory_bytes()`` keeps a running total; after any mix of
        updates and compactions it is what a fresh sum over every group
        gives."""
        rng = random.Random(seed)
        table = make_table(gamma=gamma)
        ppa = 0
        for _ in range(rng.randint(1, 30)):
            kind = rng.random()
            if kind < 0.7:
                start = rng.randrange(0, 2000)
                lpas = sorted({start + rng.randrange(0, 300) for _ in range(rng.randint(1, 48))})
                table.update([(lpa, ppa + i) for i, lpa in enumerate(lpas)])
                ppa += len(lpas)
            else:
                table.compact()
            if rng.random() < 0.6:  # else let several mutations pile up
                assert table.memory_bytes() == sum(
                    group.memory_bytes() for group in table.groups()
                )
        assert table.memory_bytes() == sum(
            group.memory_bytes() for group in table.groups()
        )

    def test_stats_track_learning(self):
        table = make_table()
        table.update([(lpa, lpa) for lpa in range(100)])
        assert table.stats.batches_learned == 1
        assert table.stats.mappings_learned == 100
        assert table.stats.segments_learned >= 1


class TestPropertyBasedHistories:
    @given(
        gamma=st.sampled_from([0, 1, 4]),
        seed=st.integers(min_value=0, max_value=10_000),
        compact=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_latest_mapping_always_within_gamma(self, gamma, seed, compact):
        rng = random.Random(seed)
        table = make_table(gamma=gamma)
        truth = {}
        ppa = 0
        for _ in range(rng.randint(1, 40)):
            kind = rng.random()
            if kind < 0.4:
                start = rng.randrange(0, 3000)
                lpas = list(range(start, start + rng.randint(1, 100)))
            elif kind < 0.6:
                start = rng.randrange(0, 3000)
                stride = rng.choice((2, 3, 4))
                lpas = list(range(start, start + stride * rng.randint(2, 40), stride))
            else:
                lpas = sorted(set(rng.randrange(0, 3000) for _ in range(rng.randint(1, 48))))
            batch = []
            for lpa in lpas:
                batch.append((lpa, ppa))
                truth[lpa] = ppa
                ppa += 1
            table.update(batch)
        if compact:
            table.compact()
        table.validate()
        for lpa, expected in truth.items():
            result = table.lookup(lpa)
            assert result.found, f"lost mapping for LPA {lpa}"
            assert abs(result.ppa - expected) <= gamma

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_structural_invariants_hold(self, seed):
        rng = random.Random(seed)
        table = make_table(gamma=4)
        ppa = 0
        for _ in range(20):
            start = rng.randrange(0, 1000)
            lpas = sorted(set(start + rng.randrange(0, 200) for _ in range(40)))
            table.update([(lpa, ppa + i) for i, lpa in enumerate(lpas)])
            ppa += len(lpas)
            table.validate()


class TestLookupStatsAccounting:
    """Regression: miss lookups must not deflate mean_levels_per_lookup.

    A lookup whose group does not exist still consults the group directory,
    so it charges one searched level; counting it as zero while still
    incrementing ``lookups`` skewed Figure 23a on cold-read workloads.
    """

    def test_group_miss_charges_one_level(self):
        table = make_table()
        result = table.lookup(123)
        assert not result.found
        assert result.levels_searched == 1
        assert table.stats.lookups == 1
        assert table.stats.lookup_levels_total == 1
        assert table.stats.mean_levels_per_lookup == 1.0

    def test_every_lookup_charges_at_least_one_level(self):
        table = make_table()
        table.update([(lpa, 100 + lpa) for lpa in range(32)])
        for lpa in range(32):
            assert table.lookup(lpa).found
        for lpa in range(100_000, 100_032):   # cold groups: all misses
            assert not table.lookup(lpa).found
        assert table.stats.lookups == 64
        assert table.stats.lookup_levels_total >= table.stats.lookups
        assert table.stats.mean_levels_per_lookup >= 1.0

    def test_walk_histogram_counts_resolved_lookups_only(self):
        """Figure 23a's histogram holds hits by depth; a miss charges
        ``lookups`` and ``lookup_levels_total`` but no histogram bucket."""
        table = make_table()
        table.update([(lpa, 100 + lpa) for lpa in range(32)])
        hit = table.lookup(7)
        table.lookup(40)        # in-group miss
        table.lookup(100_000)   # group miss
        assert table.stats.levels_histogram == {hit.levels_searched: 1}
        assert table.stats.lookups == 3

    def test_in_group_miss_counts_levels_searched(self):
        table = make_table()
        table.update([(0, 100)])   # group 0 exists, LPA 5 unmapped
        result = table.lookup(5)
        assert not result.found
        assert result.levels_searched >= 1
        assert table.stats.lookup_levels_total >= 1

