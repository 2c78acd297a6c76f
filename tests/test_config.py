"""Tests for the configuration dataclasses."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig, GB, KB, MB, TB


LATENCY_FIELDS = ("read_latency_us", "write_latency_us", "erase_latency_us", "dram_latency_us")


class TestSSDConfig:
    def test_paper_simulator_matches_table1(self):
        config = SSDConfig.paper_simulator()
        assert config.capacity_bytes == 2 * TB
        assert config.page_size == 4 * KB
        assert config.channels == 16
        assert config.pages_per_block == 256
        assert config.oob_size == 128
        assert config.dram_size == 1 * GB
        assert config.read_latency_us == pytest.approx(20.0)
        assert config.write_latency_us == pytest.approx(200.0)
        assert config.erase_latency_us == pytest.approx(1500.0)
        assert config.overprovisioning == pytest.approx(0.20)

    def test_physical_capacity_includes_overprovisioning(self):
        config = SSDConfig.tiny()
        assert config.physical_pages > config.logical_pages
        ratio = config.physical_pages / config.logical_pages
        assert ratio == pytest.approx(1.0 / (1.0 - config.overprovisioning), rel=0.05)

    def test_geometry_is_consistent(self):
        config = SSDConfig.small()
        assert config.total_blocks * config.pages_per_block == config.physical_pages
        assert config.blocks_per_channel * config.channels == config.total_blocks

    def test_block_size(self):
        config = SSDConfig.tiny()
        assert config.block_size == config.page_size * config.pages_per_block

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SSDConfig(capacity_bytes=0)

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            SSDConfig(page_size=1000)

    def test_invalid_gc_thresholds_rejected(self):
        with pytest.raises(ValueError):
            SSDConfig(gc_threshold=0.5, gc_restore=0.4)

    @pytest.mark.parametrize(
        "field, value",
        [(name, bad) for name in LATENCY_FIELDS for bad in (-5.0, 0.0, float("nan"), float("inf"))]
        + [(name, bad) for name in ("dram_size", "write_buffer_bytes", "oob_size") for bad in (0, -1)],
    )
    def test_nonpositive_or_nonfinite_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            replace(SSDConfig.tiny(), **{field: value})

    def test_write_buffer_pages(self):
        config = SSDConfig(write_buffer_bytes=8 * MB, page_size=4 * KB)
        assert config.write_buffer_pages == 2048


class TestLeaFTLConfig:
    def test_defaults_match_paper(self):
        config = LeaFTLConfig()
        assert config.gamma == 0
        assert config.group_size == 256
        assert config.compaction_interval_writes == 1_000_000

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            LeaFTLConfig(gamma=-1)

    def test_group_size_must_fit_one_byte_offsets(self):
        with pytest.raises(ValueError):
            LeaFTLConfig(group_size=512)


class TestDRAMBudget:
    def test_mapping_first_gives_leftover_to_cache(self):
        budget = DRAMBudget(dram_bytes=10 * MB, policy="mapping_first")
        assert budget.cache_bytes(2 * MB) == 8 * MB

    def test_cache_reserved_keeps_minimum_share(self):
        budget = DRAMBudget(
            dram_bytes=10 * MB, policy="cache_reserved", reserved_cache_fraction=0.2
        )
        # Even if the mapping takes 9.5 MB, 20% stays reserved for the cache.
        assert budget.cache_bytes(int(9.5 * MB)) >= 2 * MB

    def test_mapping_budget_respects_policy(self):
        budget = DRAMBudget(dram_bytes=10 * MB, policy="cache_reserved")
        assert budget.mapping_budget() == 8 * MB

    def test_cache_never_below_minimum(self):
        budget = DRAMBudget(dram_bytes=1 * MB, min_cache_bytes=64 * KB)
        assert budget.cache_bytes(2 * MB) == 64 * KB

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DRAMBudget(dram_bytes=1 * MB, policy="bogus")
