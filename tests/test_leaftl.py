"""Tests for the LeaFTL translation layer (outside the full SSD model)."""

from __future__ import annotations

import random
from array import array

from repro.config import LeaFTLConfig
from repro.core.leaftl import LeaFTL
from repro.obs.registry import device_snapshot
from tests.conftest import make_ssd


class TestLeaFTLTranslation:
    def test_basic_update_and_translate(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        ftl.update_batch([(lpa, 200 + lpa) for lpa in range(64)])
        for lpa in range(64):
            assert ftl.translate(lpa).ppa == 200 + lpa
        assert ftl.translate(1000).ppa is None

    def test_gamma_zero_is_always_exact(self):
        rng = random.Random(1)
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        truth = {}
        ppa = 0
        for _ in range(50):
            lpas = sorted(set(rng.randrange(5000) for _ in range(rng.randint(1, 80))))
            batch = []
            for lpa in lpas:
                batch.append((lpa, ppa))
                truth[lpa] = ppa
                ppa += 1
            ftl.update_batch(batch)
        for lpa, expected in truth.items():
            assert ftl.translate(lpa).ppa == expected

    def test_memory_smaller_than_page_level_for_sequential(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        ftl.update_batch([(lpa, lpa) for lpa in range(4096)])
        assert ftl.resident_bytes() < 4096 * 8 / 10

    def test_oob_window_matches_gamma(self):
        assert LeaFTL(LeaFTLConfig(gamma=4)).oob_window() == 4
        assert LeaFTL(LeaFTLConfig(gamma=0)).oob_window() == 0

    def test_translate_levels_histogram(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        ftl.update_batch([(lpa, lpa) for lpa in range(64)])
        ftl.update_batch([(lpa, 100 + lpa) for lpa in range(10, 20)])
        ftl.translate(5)
        ftl.translate(40)
        # Both LPAs are answered by the first segment, demoted below the overwrite.
        assert ftl.table.stats.levels_histogram == {2: 2}


class TestMispredictionResolution:
    def test_resolve_through_oob(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=4))
        # The OOB window of the (mispredicted) page holds the reverse
        # mappings of PPAs [predicted - 4, predicted + 4]; LPA 77 lives two
        # slots left.
        window = array("q", [70, 71, 77, 49, 50, 51, 52, 53, 54])
        correct = ftl.resolve_misprediction(lpa=77, predicted_ppa=100, window=window)
        assert correct == [98]
        assert ftl.lea_stats.mispredictions == 1
        assert ftl.lea_stats.oob_corrections == 1
        # The sensed page's own entry names no other page.
        assert ftl.resolve_misprediction(lpa=50, predicted_ppa=100, window=window) == []

    def test_resolution_failure_reported(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=2))
        # ``-1``: the two pages left of the mispredicted one were FREE.
        window = array("q", [-1, -1, 1, 2, 3])
        assert ftl.resolve_misprediction(lpa=99, predicted_ppa=10, window=window) == []
        assert ftl.lea_stats.oob_correction_failures == 1


class TestCompactionPolicy:
    def test_compaction_triggered_by_interval(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0, compaction_interval_writes=100))
        for round_ in range(5):
            ftl.update_batch([(lpa, round_ * 1000 + lpa) for lpa in range(50)])
        assert ftl.lea_stats.compactions >= 2

    def test_manual_maintenance(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        ftl.update_batch([(lpa, lpa) for lpa in range(64)])
        ftl.update_batch([(lpa, 500 + lpa) for lpa in range(64)])
        ftl.maintenance()
        assert ftl.table.segment_count() == 1
        assert ftl.translate(5).ppa == 505


def test_each_fact_has_one_counter():
    """A replay with mispredictions and compactions exports each under one
    key: the device counts a misprediction and LeaFTL splits the same count
    into OOB corrections and failures; the table charges every lookup and
    the FTL's ``lookups`` is its growth."""
    rng = random.Random(3)
    ssd = make_ssd(LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=2_000)))
    ssd.run([("W", rng.randrange(8_000), 1) for _ in range(6_000)])
    ssd.flush()
    ssd.run([("R", rng.randrange(8_000), npages) for npages in (1, 4) * 300])
    snapshot = device_snapshot(ssd).as_dict()
    assert snapshot["ssd.mispredictions"] > 0
    assert snapshot["leaftl.mispredictions"] == snapshot["ssd.mispredictions"]
    assert snapshot["leaftl.compactions"] > 0
    assert snapshot["ftl.lookups"] == snapshot["mapping_table.lookups"] > 0
    assert not {"ftl.mispredictions", "mapping_table.compactions"} & set(snapshot)
