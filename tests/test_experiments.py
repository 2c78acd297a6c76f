"""Tests for the experiment harness (small, fast configurations)."""

from __future__ import annotations

import dataclasses
from dataclasses import replace
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro.experiments
from repro.config import SSDConfig
from repro.experiments import common
from repro.experiments.common import (
    ALL_WORKLOADS,
    ExperimentSetup,
    MappingBudgetExceeded,
    REAL_SSD_WORKLOADS,
    SCHEMES,
    SIMULATOR_WORKLOADS,
    axis_grid,
    bench_scale,
    build_ftl,
    build_ssd,
    memoised_cell,
    project,
    reset_measurement,
    run_experiment,
    run_schemes,
    scheme_grid,
    simulate,
    workload_by_name,
    workload_for_setup,
)
from repro.experiments.memory import average_reduction, memory_setup
from repro.obs.registry import device_snapshot, snapshot_stats


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
        setup = replace(FAST, gamma=4)
        ssd = build_ssd("LeaFTL", setup)
        assert ssd.ftl.config.gamma == 4

    def test_setup_scaled_override(self):
        assert replace(FAST, gamma=16).gamma == 16
        assert FAST.gamma == 0

    def test_spare_area_is_derived_from_gamma(self):
        """gamma = 16 needs a 132-byte OOB window: the setup sizes the spare
        itself instead of raising at device construction."""
        assert FAST.ssd_config().oob_size == 128
        assert replace(FAST, gamma=15).ssd_config().oob_size == 128
        assert replace(FAST, gamma=16).ssd_config().oob_size == 256
        assert build_ssd("LeaFTL", replace(FAST, gamma=16)).ftl.config.gamma == 16


@pytest.mark.parametrize(
    "name, value",
    [
        ("warmup_fraction", 1.5),
        ("warmup_fraction", -0.2),
        ("warmup_fraction", float("nan")),
        ("request_scale", -1),
        ("request_scale", 0),
        ("request_scale", float("nan")),
        ("request_scale", float("inf")),
        ("footprint_scale", 0),
        ("footprint_scale", -0.5),
        ("footprint_scale", float("nan")),
        ("footprint_scale", float("inf")),
    ],
)
def test_setup_rejects_out_of_range_fields_by_name(name, value):
    """``warmup_fraction`` lies in [0, 1] and both scales are finite and
    > 0; anything else used to run silently or die deep inside a replay."""
    with pytest.raises(ValueError, match=name):
        ExperimentSetup(**{name: value})
    with pytest.raises(ValueError, match=name):
        replace(FAST, **{name: value})
    replace(replace(FAST, warmup_fraction=0.0), warmup_fraction=1.0)


class TestSettableSurface:
    """What ``python -m tools.option_census`` counts stays where it was put."""

    def test_no_scenario_redeclares_a_device_field(self):
        device = {
            field.name
            for cls in (ExperimentSetup, SSDConfig)
            for field in dataclasses.fields(cls)
        }
        scenarios = [
            obj
            for info in pkgutil.iter_modules(repro.experiments.__path__)
            for name, obj in vars(
                importlib.import_module(f"repro.experiments.{info.name}")
            ).items()
            if name.endswith("Scenario") and dataclasses.is_dataclass(obj)
        ]
        assert len(scenarios) >= 2
        for scenario in scenarios:
            own = {field.name for field in dataclasses.fields(scenario)}
            assert own & device == set(), scenario.__name__

    def test_bench_scale_is_the_only_environment_variable(self):
        repo = Path(__file__).resolve().parent.parent
        if str(repo) not in sys.path:
            sys.path.insert(0, str(repo))
        from tools.option_census import census, surfaces

        reads = [
            read
            for read in census(surfaces())[1]
            if re.match(r"src/|benchmarks/[^/]+\.py:", read)
        ]
        assert len(reads) == 1 and "REPRO_BENCH_SCALE" in reads[0], reads

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "nan", "inf"])
    def test_bad_bench_scale_fails_by_name(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE must be a finite number > 0"):
            bench_scale()

    def test_bench_scale_reads_the_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        assert bench_scale() == 0.1


class TestRunExperiment:
    def test_run_without_warmup(self):
        setup = replace(FAST, warmup=False)
        result = run_experiment("MSR-hm", "LeaFTL", setup)
        assert result.mapping_full_bytes > 0
        assert result.stats.host_write_pages > 0

    def test_run_with_warmup_resets_stats(self):
        result = run_experiment("FIU-home", "DFTL", FAST)
        # Warm-up traffic must not be counted in the measured statistics.
        trace = workload_for_setup("FIU-home", FAST)
        assert result.stats.host_write_pages <= trace.write_pages + len(trace)

    def test_reset_measurement_clears_every_ftl_counter(self):
        """Compactions and the table's learning counters used to survive it."""
        ssd = build_ssd("LeaFTL", replace(FAST, compaction_interval_writes=2_000))
        for lpa in range(0, 8192, 64):
            ssd.submit("W", lpa, 64)
        ssd.flush()
        ssd.submit("R", 0, 8)
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
        assert ssd.ftl.table.stats.levels_histogram == {}

    def test_run_schemes_shares_trace(self):
        results = run_schemes("MSR-prxy", replace(FAST, warmup=False))
        assert set(results) == set(SCHEMES)
        writes = {r.stats.host_write_pages for r in results.values()}
        assert len(writes) == 1  # identical workload replayed for each scheme

    def test_leaftl_cell_over_its_mapping_budget_fails_by_name(self):
        """LeaFTL accepts a mapping budget and ignores it (its table is
        always resident), so a cell whose table outgrows the budget must
        fail instead of quietly running LeaFTL on free DRAM."""
        setup = replace(FAST, warmup=False, dram_bytes=2 * 1024, dram_policy="cache_reserved")
        budget = setup.dram_budget().mapping_budget()
        with pytest.raises(MappingBudgetExceeded, match=f"over the {budget} B mapping budget"):
            run_experiment("MSR-hm", "LeaFTL", setup)
        # The schemes that model translation misses run at the same size.
        assert run_experiment("MSR-hm", "DFTL", setup).stats.host_write_pages > 0

    def test_leaftl_details_populated(self):
        setup = replace(FAST, warmup=False, gamma=4)
        result = run_experiment("FIU-mail", "LeaFTL", setup)
        assert result.segment_lengths
        assert result.level_counts
        assert sum(result.segment_type_counts) > 0


@pytest.fixture
def built(monkeypatch):
    """Spy on ``build_ssd``: the list of schemes a device was built for."""
    calls = []

    def spy(scheme, setup):
        calls.append(scheme)
        return build_ssd(scheme, setup)

    monkeypatch.setattr(common, "build_ssd", spy)
    return calls


class TestMemoisedCell:
    """A cell is simulated once per process and then shared."""

    #: ``warmup_fraction`` is unread without a warm-up: values no other
    #: test uses, so these cells start out uncached.
    SETUP = replace(FAST, warmup=False, gamma=4, warmup_fraction=0.1501)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_memoised_cell_equals_fresh_run(self, scheme):
        cached = run_experiment("MSR-hm", scheme, FAST)
        assert run_experiment("MSR-hm", scheme, FAST) is cached
        fresh = simulate("MSR-hm", scheme, FAST, workload_for_setup("MSR-hm", FAST))
        assert fresh is not cached
        assert snapshot_stats(fresh.stats, "ssd") == snapshot_stats(cached.stats, "ssd")
        assert fresh.latency_samples == cached.latency_samples

    def test_second_call_builds_no_device(self, built):
        first = run_experiment("FIU-mail", "LeaFTL", self.SETUP)
        assert built == ["LeaFTL"]
        assert run_experiment("FIU-mail", "LeaFTL", self.SETUP) is first
        # An equal setup built separately is the same cell; the replay mode
        # is part of the setup, so a different one is a different cell.
        equal = replace(FAST, warmup=False, gamma=4, warmup_fraction=0.1501)
        assert run_experiment("FIU-mail", "LeaFTL", equal) is first
        assert built == ["LeaFTL"]
        opened = run_experiment("FIU-mail", "LeaFTL", replace(equal, replay_mode="open"))
        assert opened is not first
        assert built == ["LeaFTL", "LeaFTL"]
        assert opened.stats.max_outstanding_requests > 1

    def test_explicit_trace_bypasses_the_memo(self, built):
        setup = replace(self.SETUP, warmup_fraction=0.1502)
        trace = workload_for_setup("FIU-mail", setup)
        before = memoised_cell.cache_info()
        first = run_experiment("FIU-mail", "LeaFTL", setup, trace=trace)
        second = run_experiment("FIU-mail", "LeaFTL", setup, trace=trace)
        assert built == ["LeaFTL", "LeaFTL"]
        assert first is not second
        assert snapshot_stats(first.stats, "ssd") == snapshot_stats(second.stats, "ssd")
        assert memoised_cell.cache_info() == before

    def test_workload_is_generated_once_per_setup(self):
        assert workload_for_setup("MSR-usr", FAST) is workload_for_setup("MSR-usr", FAST)


class TestGrids:
    """Each grid equals the per-cell calls it replaces."""

    SETUP = replace(FAST, warmup=False)
    WORKLOADS = ("MSR-hm", "FIU-mail")

    def test_scheme_grid(self):
        grid = scheme_grid(self.WORKLOADS, SCHEMES, self.SETUP)
        assert list(grid) == list(self.WORKLOADS)
        for workload, cells in grid.items():
            assert list(cells) == list(SCHEMES)
            for scheme, cell in cells.items():
                assert cell is run_experiment(workload, scheme, self.SETUP)
                assert (cell.workload, cell.scheme) == (workload, scheme)

    def test_axis_grid(self):
        gammas = (0, 4, 16)
        grid = axis_grid(self.WORKLOADS, "gamma", gammas, self.SETUP)
        assert list(grid) == list(self.WORKLOADS)
        for workload, cells in grid.items():
            assert list(cells) == list(gammas)
            for gamma, cell in cells.items():
                assert cell is run_experiment(
                    workload, "LeaFTL", replace(self.SETUP, gamma=gamma)
                )
                assert (cell.scheme, cell.gamma) == ("LeaFTL", gamma)

    def test_axis_grid_shares_cells_with_scheme_grid(self, built):
        """The gamma = 0 column of the axis grid is the LeaFTL column of the
        scheme grid — the overlap figures 5/10/12/15/19/20 no longer pay for."""
        setup = replace(self.SETUP, warmup_fraction=0.1503)
        by_scheme = scheme_grid(("MSR-hm",), SCHEMES, setup)
        by_gamma = axis_grid(("MSR-hm",), "gamma", (0, 4), setup)
        assert by_gamma["MSR-hm"][0] is by_scheme["MSR-hm"]["LeaFTL"]
        assert built == ["DFTL", "SFTL", "LeaFTL", "LeaFTL"]

    def test_project_reads_one_field(self):
        grid = scheme_grid(("MSR-hm",), SCHEMES, self.SETUP)
        table = project(grid, "mapping_full_bytes")
        assert table == {
            "MSR-hm": {s: grid["MSR-hm"][s].mapping_full_bytes for s in SCHEMES}
        }


class TestMemoryExperiments:
    def test_leaftl_smaller_than_dftl(self):
        grid = scheme_grid(("MSR-usr",), SCHEMES, memory_setup(request_scale=0.02))
        by_scheme = project(grid, "mapping_full_bytes")["MSR-usr"]
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
