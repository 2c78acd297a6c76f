"""Tests for the baseline FTLs: ideal page map, DFTL and SFTL."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import PAGE_HEADER_BYTES, SFTL


class TestPageLevelFTL:
    def test_translate_and_update(self):
        ftl = PageLevelFTL()
        ftl.update_batch([(5, 100)])
        assert ftl.translate_range(5, 1)[0] == 100
        assert ftl.translate_range(6, 1)[0] is None

    def test_memory_is_eight_bytes_per_entry(self):
        ftl = PageLevelFTL()
        ftl.update_batch([(lpa, lpa) for lpa in range(100)])
        assert ftl.full_mapping_bytes() == 800


class TestDFTL:
    def test_basic_translation(self):
        ftl = DFTL(mapping_budget_bytes=None)
        ftl.update_batch([(lpa, 100 + lpa) for lpa in range(50)])
        for lpa in range(50):
            assert ftl.translate_range(lpa, 1)[0] == 100 + lpa

    def test_cmt_miss_costs_translation_read(self):
        ftl = DFTL(mapping_budget_bytes=8 * 8)  # room for only 8 entries
        ftl.update_batch([(lpa, lpa) for lpa in range(64)])
        # The oldest entries were evicted; translating one costs a flash read.
        before = ftl.stats.translation_page_reads
        assert ftl.translate_range(0, 1)[0] == 0
        assert ftl.stats.translation_page_reads - before >= 1

    def test_dirty_eviction_writes_translation_page(self):
        ftl = DFTL(mapping_budget_bytes=8 * 8)
        ftl.update_batch([(lpa, lpa) for lpa in range(256)])
        assert ftl.stats.translation_page_writes > 0

    def test_dirty_eviction_flushes_whole_translation_page_batch(self):
        """Evicting one dirty entry write-backs every dirty sibling of its
        translation page and charges exactly one read-modify-write."""
        ftl = DFTL(mapping_budget_bytes=8 * 8, entries_per_translation_page=4)  # 8 entries fit
        # Fill the CMT with 8 dirty entries: TP 0 holds LPAs 0-3, TP 1 holds 4-7.
        ftl.update_batch([(lpa, 100 + lpa) for lpa in range(8)])
        reads_before = ftl.stats.translation_page_reads
        writes_before = ftl.stats.translation_page_writes
        # One more insert overflows the CMT; the LRU victim (LPA 0) is dirty.
        ftl.update_batch([(100, 999)])
        assert ftl.stats.translation_page_reads - reads_before == 1
        assert ftl.stats.translation_page_writes - writes_before == 1
        # LPAs 1-3 (same translation page) were written back alongside the
        # victim: evicting them now must not charge another write.
        ftl.update_batch([(101, 1), (102, 2), (103, 3)])
        assert ftl.stats.translation_page_writes - writes_before == 1
        # The batched write-back persisted the sibling mappings correctly.
        assert ftl.translate_range(1, 1)[0] == 101
        assert ftl.translate_range(3, 1)[0] == 103

    def test_budget_respected(self):
        budget = 16 * 8
        ftl = DFTL(mapping_budget_bytes=budget)
        ftl.update_batch([(lpa, lpa) for lpa in range(500)])
        assert ftl.resident_bytes() <= budget  # 8 B an entry: at most 16 cached

    def test_full_mapping_counts_all_live_lpas(self):
        ftl = DFTL(mapping_budget_bytes=8 * 8)
        ftl.update_batch([(lpa, lpa) for lpa in range(100)])
        assert ftl.full_mapping_bytes() == 100 * 8

    def test_unmapped_lookup(self):
        ftl = DFTL()
        assert ftl.translate_range(999, 1)[0] is None

    def test_memory_is_eight_bytes_per_entry(self):
        ftl = DFTL(mapping_budget_bytes=None)  # every entry stays cached
        ftl.update_batch([(lpa, lpa) for lpa in range(100)])
        assert ftl.resident_bytes() == ftl.full_mapping_bytes() == 800

    def test_eviction_correctness_random_history(self):
        rng = random.Random(2)
        ftl = DFTL(mapping_budget_bytes=32 * 8)
        truth = {}
        for _ in range(2000):
            lpa = rng.randrange(300)
            ppa = rng.randrange(10**6)
            ftl.update_batch([(lpa, ppa)])
            truth[lpa] = ppa
        for lpa, ppa in truth.items():
            assert ftl.translate_range(lpa, 1)[0] == ppa


class TestSFTL:
    def test_sequential_run_condensed_to_one_descriptor(self):
        ftl = SFTL()
        ftl.update_batch([(lpa, 1000 + lpa) for lpa in range(100)])
        assert ftl.run_count() == 1
        assert ftl.full_mapping_bytes() < 100 * 8

    def test_strided_mappings_not_condensed(self):
        ftl = SFTL()
        ftl.update_batch([(2 * i, 1000 + i) for i in range(50)])
        assert ftl.run_count() == 50

    def test_translation_correct_after_fragmentation(self):
        rng = random.Random(4)
        ftl = SFTL()
        truth = {}
        for _ in range(1500):
            lpa = rng.randrange(600)
            ppa = rng.randrange(10**6)
            ftl.update_batch([(lpa, ppa)])
            truth[lpa] = ppa
        for lpa, ppa in truth.items():
            assert ftl.translate_range(lpa, 1)[0] == ppa

    def test_run_accounting_incremental_matches_rescan(self):
        rng = random.Random(6)
        ftl = SFTL(entries_per_translation_page=128)
        for _ in range(3000):
            ftl.update_batch([(rng.randrange(512), rng.randrange(4096))])
        # Recompute runs from scratch and compare with the incremental count.
        expected_runs = 0
        for page in ftl._pages.values():
            entries = page.entries
            expected_runs += sum(
                1
                for lpa in entries
                if not (lpa - 1 in entries and entries[lpa - 1] + 1 == entries[lpa])
            )
        assert ftl.run_count() == expected_runs

    def test_budget_limits_cached_runs(self):
        ftl = SFTL(mapping_budget_bytes=64)
        ftl.update_batch([(lpa * 3, lpa) for lpa in range(2000)])
        # The tiny budget forces evictions: only a fraction stays resident.
        assert ftl.resident_bytes() < ftl.full_mapping_bytes()
        assert ftl.stats.translation_page_writes > 0

    def test_miss_costs_translation_read(self):
        ftl = SFTL(mapping_budget_bytes=64)
        ftl.update_batch([(lpa * 3, lpa) for lpa in range(200)])
        before = ftl.stats.translation_page_reads
        ftl.translate_range(0, 1)
        assert ftl.stats.translation_page_reads >= before

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_sftl_never_larger_than_page_level(self, seed):
        rng = random.Random(seed)
        ftl = SFTL()
        lpas = set()
        for _ in range(rng.randint(1, 400)):
            lpa = rng.randrange(2000)
            lpas.add(lpa)
            ftl.update_batch([(lpa, rng.randrange(10**5))])
        page_level = len(lpas) * 8
        # Allow the per-translation-page header overhead.
        headers = len(ftl._pages) * PAGE_HEADER_BYTES
        assert ftl.full_mapping_bytes() <= page_level + headers
