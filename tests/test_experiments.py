"""Tests for the experiment harness (small, fast configurations)."""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    ALL_WORKLOADS,
    ExperimentSetup,
    REAL_SSD_WORKLOADS,
    SCHEMES,
    SIMULATOR_WORKLOADS,
    build_ftl,
    build_ssd,
    reset_measurement,
    run_experiment,
    run_schemes,
    workload_by_name,
    workload_for_setup,
)
from repro.experiments.memory import (
    average_reduction,
    mapping_footprints,
    memory_setup,
)
from repro.obs.registry import device_snapshot


#: A deliberately small setup so harness tests stay fast.
FAST = ExperimentSetup(
    capacity_bytes=256 * 1024 * 1024,
    dram_bytes=256 * 1024,
    request_scale=0.01,
    footprint_scale=0.05,
    warmup_fraction=0.3,
    compaction_interval_writes=20_000,
)


class TestWorkloadRegistry:
    def test_all_workloads_resolvable(self):
        for name in ALL_WORKLOADS:
            trace = workload_by_name(name, request_scale=0.01)
            assert len(trace) > 0

    def test_workload_lists_match_paper(self):
        assert len(SIMULATOR_WORKLOADS) == 7   # 5 MSR + 2 FIU
        assert len(REAL_SSD_WORKLOADS) == 5    # Table 2
        assert set(SCHEMES) == {"DFTL", "SFTL", "LeaFTL"}

    def test_workload_fits_device(self):
        trace = workload_for_setup("MSR-usr", FAST)
        assert trace.max_lpa() < FAST.ssd_config().logical_pages


class TestBuilders:
    @pytest.mark.parametrize("scheme", list(SCHEMES) + ["PageMap"])
    def test_build_ftl(self, scheme):
        ftl = build_ftl(scheme, FAST)
        assert ftl.name.lower().startswith(scheme.lower()[:4])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_ftl("bogus", FAST)

    def test_build_ssd_respects_gamma(self):
        setup = FAST.scaled(gamma=4)
        ssd = build_ssd("LeaFTL", setup)
        assert ssd.ftl.gamma == 4

    def test_setup_scaled_override(self):
        assert FAST.scaled(gamma=16).gamma == 16
        assert FAST.gamma == 0


class TestRunExperiment:
    def test_run_without_warmup(self):
        setup = FAST.scaled(warmup=False)
        result = run_experiment("MSR-hm", "LeaFTL", setup)
        assert result.mapping_full_bytes > 0
        assert result.stats.host_writes > 0

    def test_run_with_warmup_resets_stats(self):
        result = run_experiment("FIU-home", "DFTL", FAST)
        # Warm-up traffic must not be counted in the measured statistics.
        trace = workload_for_setup("FIU-home", FAST)
        assert result.stats.host_writes <= trace.write_pages + len(trace)

    def test_reset_measurement_clears_every_ftl_counter(self):
        """Compactions and the table's learning counters used to survive it."""
        ssd = build_ssd("LeaFTL", FAST.scaled(compaction_interval_writes=2_000))
        for lpa in range(0, 8192, 64):
            ssd.process("W", lpa, 64)
        ssd.flush()
        ssd.process("R", 0, 8)
        warm = device_snapshot(ssd).counters
        assert warm["leaftl.compactions"] > 0
        assert warm["mapping_table.segments_learned"] > 0
        reset_measurement(ssd)
        measured = device_snapshot(ssd).counters
        stale = {
            key: value
            for key, value in measured.items()
            if key.startswith(("ftl.", "leaftl.", "mapping_table.")) and value
        }
        assert stale == {}
        assert ssd.ftl.lea_stats.levels_histogram == {}

    def test_run_schemes_shares_trace(self):
        results = run_schemes("MSR-prxy", FAST.scaled(warmup=False))
        assert set(results) == set(SCHEMES)
        writes = {r.stats.host_write_pages for r in results.values()}
        assert len(writes) == 1  # identical workload replayed for each scheme

    def test_leaftl_details_populated(self):
        setup = FAST.scaled(warmup=False, gamma=4)
        result = run_experiment("FIU-mail", "LeaFTL", setup)
        assert result.segment_lengths
        assert result.level_counts
        assert sum(result.segment_type_counts) > 0


class TestMemoryExperiments:
    def test_leaftl_smaller_than_dftl(self):
        footprints = mapping_footprints(
            workloads=("MSR-usr",), request_scale=0.02
        )
        by_scheme = footprints["MSR-usr"]
        assert by_scheme["LeaFTL"] < by_scheme["DFTL"]
        assert by_scheme["SFTL"] < by_scheme["DFTL"]

    def test_average_reduction_positive(self):
        footprints = {
            "a": {"DFTL": 1000, "SFTL": 400, "LeaFTL": 100},
            "b": {"DFTL": 800, "SFTL": 300, "LeaFTL": 200},
        }
        assert average_reduction(footprints, "DFTL") > 1.0
        assert average_reduction(footprints, "SFTL") > 1.0

    def test_memory_setup_has_no_warmup(self):
        assert memory_setup().warmup is False
