"""Telemetry layer tests: determinism, non-perturbation, registry, schema.

The observability contract has three legs, each pinned here:

* **Non-perturbation** — enabling the tracer + sampler changes *nothing*
  the determinism harness digests: event counts, event digests and stats
  digests are identical with telemetry on or off, and a CrashTimer
  composes with the telemetry observer instead of being displaced.
* **Determinism** — two identical runs with telemetry enabled export
  byte-identical trace JSON, metrics JSON and counter snapshots.
* **Fidelity** — the sampled series ends exactly at the final scalar
  statistics, the counter registry reaches every stats field, and the
  exported trace passes the Chrome trace-event schema check CI runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

import repro
from repro.config import SSDConfig
from repro.experiments.common import ExperimentSetup, build_ssd
from repro.experiments.multi_tenant import (
    build_tenant_host,
    reader_tenant,
    writer_tenant,
)
from repro.ftl.pagemap import PageLevelFTL
from repro.obs import tracing
from repro.obs.__main__ import check_trace_events, check_trace_file
from repro.obs.registry import (
    EXCLUDED_FIELDS,
    REGISTERED_STATS,
    CounterSnapshot,
    device_snapshot,
    snapshot_stats,
)
from repro.obs.session import attach_telemetry
from repro.obs.tracing import Tracer
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from repro.ssd.stats import SSDStats
from repro.verify import VERIFY_ARBITER, EventTraceDigest, run_once, verify_scenario

# Scale 0.5 is the smallest verify-scenario scale where background GC
# actually fires (scale 0.25 never dips below the watermark), and the
# acceptance criterion wants a GC-contended trace.
SCALE = 0.5
SEED = 1234


def _traced_run(telemetry_mode="on", crash_timer=False):
    """One verify-scenario run with a digest observer and telemetry."""
    scenario = verify_scenario(seed=SEED, scale=SCALE)
    ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
    trace = EventTraceDigest()
    ssd.event_observer = trace.observe
    telemetry = attach_telemetry(ssd, telemetry_mode, host=host)
    host.run({"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)})
    return ssd, host, trace, telemetry


@pytest.fixture(scope="module")
def baseline_report():
    return run_once(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestNonPerturbation:
    def test_digests_identical_with_telemetry_on(self, baseline_report, traced):
        """The acceptance constraint: telemetry must not move the digests."""
        from repro.verify import stats_digest

        ssd, host, trace, _telemetry = traced
        assert trace.events_observed == baseline_report.events_observed
        assert trace.hexdigest() == baseline_report.event_digest
        assert stats_digest(ssd, host) == baseline_report.stats_digest

    def test_telemetry_off_is_none(self):
        ssd = SimulatedSSD(SSDConfig.tiny(), PageLevelFTL())
        assert ssd.telemetry is None
        assert ssd.scheduler.probe is None
        assert SSDOptions().telemetry == "off"

    def test_options_telemetry_wires_collectors(self):
        ssd = SimulatedSSD(
            SSDConfig.tiny(), PageLevelFTL(), options=SSDOptions(telemetry="on")
        )
        assert ssd.telemetry is not None
        assert ssd.telemetry.tracer is not None
        assert ssd.telemetry.sampler is not None
        assert ssd.scheduler.probe == ssd.telemetry.tracer.nand_op

    def test_trace_mode_installs_tracer_only(self):
        ssd = SimulatedSSD(
            SSDConfig.tiny(), PageLevelFTL(), options=SSDOptions(telemetry="trace")
        )
        assert ssd.telemetry.tracer is not None
        assert ssd.telemetry.sampler is None


class TestObserverComposition:
    def test_crash_timer_and_tracer_coexist(self):
        """run_frontend chains observers; a CrashTimer must still fire with
        telemetry enabled, at the same event index as without it."""
        from repro.ssd.recovery import CrashTimer, PowerFailure

        def crash_run(telemetry_mode):
            config = dataclasses.replace(SSDConfig.tiny(), capacity_bytes=16 * 1024 * 1024)
            ssd = SimulatedSSD(
                config,
                PageLevelFTL(),
                options=SSDOptions(queue_depth=8, gc_mode="background"),
            )
            telemetry = attach_telemetry(ssd, telemetry_mode)
            trace = EventTraceDigest()
            timer = CrashTimer(after_kind="request_complete", kind_count=200)

            def observer(event):
                trace.observe(event)
                timer(event)

            ssd.event_observer = observer
            requests = [("W", (i * 7) % 2000, 4) for i in range(2000)]
            with pytest.raises(PowerFailure):
                ssd.run(requests)
            return trace, timer, telemetry

        plain_trace, plain_timer, _ = crash_run("off")
        traced_trace, traced_timer, telemetry = crash_run("on")
        assert plain_timer.fired and traced_timer.fired
        # Same crash point, same digested prefix — telemetry was invisible.
        assert traced_trace.events_observed == plain_trace.events_observed
        assert traced_trace.hexdigest() == plain_trace.hexdigest()
        # ...and the tracer actually saw the run (it was not displaced).
        assert telemetry.tracer.recorded > 0


class TestArtifactDeterminism:
    def test_double_run_byte_identical_artifacts(self, tmp_path):
        payloads = []
        for run in ("a", "b"):
            _ssd, _host, _trace, telemetry = _traced_run()
            outdir = tmp_path / run
            written = telemetry.write_artifacts(str(outdir))
            payloads.append(
                {name: Path(path).read_bytes() for name, path in written.items()}
            )
        assert set(payloads[0]) == {"trace", "metrics_json", "counters"}
        for name in payloads[0]:
            assert payloads[0][name] == payloads[1][name], name


class TestMetricsFidelity:
    def test_last_sample_matches_final_scalars(self, traced):
        ssd, _host, _trace, telemetry = traced
        sampler = telemetry.sampler
        assert sampler.samples > 1
        assert sampler.last("waf") == ssd.stats.write_amplification
        assert sampler.last("free_blocks") == float(ssd.allocator.free_block_count())
        assert sampler.last("total_flash_page_writes") == float(
            ssd.stats.total_flash_page_writes
        )
        assert sampler.last("time_us") == ssd.stats.simulated_time_us

    def test_series_shapes_and_columns(self, traced):
        ssd, _host, _trace, telemetry = traced
        sampler = telemetry.sampler
        columns = sampler.columns
        assert "gc_backlog" in columns
        assert "write_buffer_fill" in columns
        assert f"ch{ssd.config.channels - 1}_busy_frac" in columns
        assert "ns_reader_inflight" in columns and "ns_writer_inflight" in columns
        for column in columns:
            assert len(sampler.series(column)) == sampler.samples
        times = sampler.series("time_us")
        assert times == sorted(times)
        busy = sampler.series("ch0_busy_frac")
        assert all(0.0 <= value <= 1.0 for value in busy)
        assert max(busy) > 0.0

    def test_serial_engine_pump_samples(self):
        """A qd=1 replay dispatches no loop event (its completions are
        observed in place); with the flush-path pump it still produces a
        usable series."""
        setup = ExperimentSetup(
            capacity_bytes=16 * 1024 * 1024,
            channels=2,
            dies_per_channel=2,
            pages_per_block=64,
            queue_depth=1,
            warmup=False,
        )
        ssd = build_ssd("DFTL", setup)
        telemetry = attach_telemetry(ssd, "metrics")
        assert telemetry.tracer is None
        ssd.run([("W", (i * 13) % 3000, 8) for i in range(1500)])
        sampler = telemetry.sampler
        assert sampler.samples > 1
        assert sampler.last("time_us") == ssd.stats.simulated_time_us


class TestTraceSchema:
    def test_exported_trace_passes_schema_check(self, traced, tmp_path):
        _ssd, _host, _trace, telemetry = traced
        path = tmp_path / "trace.json"
        telemetry.tracer.export_json(str(path))
        assert check_trace_file(str(path)) == []
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert payload["otherData"]["dropped"] == 0
        # Request lifecycle spans made it out: B/E pairs on io-slot tracks
        # and NAND X spans on channel tracks.
        phases = {event["ph"] for event in events}
        assert {"M", "B", "E", "X", "i"} <= phases
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M"
        }
        assert "gc" in names and "ch0" in names
        assert any(name.startswith("io-slot-") for name in names)

    def test_trace_has_gc_and_nand_spans(self, traced):
        _ssd, _host, _trace, telemetry = traced
        events = telemetry.tracer.trace_events()
        span_names = {e["name"] for e in events if e["ph"] in ("B", "X")}
        assert "nand" in span_names
        assert {"R", "W"} <= span_names
        # The erase stage is the only GC stage that spans sim time (the
        # pipeline's read/migrate events chain at issue timestamps), so it
        # exports as a duration span and the others as instants on the same
        # gc track.
        assert "gc_erase" in span_names
        instant_names = {e["name"] for e in events if e["ph"] == "i"}
        assert "gc_read" in instant_names and "gc_migrate" in instant_names

    def test_ring_buffer_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 16)
        tracer = Tracer()
        for index in range(100):
            tracer.nand_op(0, float(index), float(index) + 1.0)
        assert tracer.recorded == 16
        assert tracer.dropped == 84
        assert check_trace_events(tracer.trace_events()) == []

    def test_schema_checker_rejects_malformed(self):
        decreasing = [
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1, "s": "t"},
            {"name": "b", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1, "s": "t"},
        ]
        assert check_trace_events(decreasing) != []
        unbalanced = [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
        ]
        assert check_trace_events(unbalanced) != []
        mismatched = [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "z", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
        ]
        assert check_trace_events(mismatched) != []


def stats_dataclasses():
    """Every ``*Stats`` dataclass defined in a module importable under ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                name.endswith("Stats")
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                assert name not in found, f"two stats dataclasses named {name}"
                found[name] = obj
    return found


class TestCounterRegistry:
    def test_snapshot_covers_every_ssd_stats_field(self):
        """The registry contract, over the package as it is imported: a
        ``*Stats`` dataclass added anywhere under ``repro`` must be in
        ``REGISTERED_STATS`` and default-constructible, and each of its
        fields must be exported by ``snapshot_stats`` (which raises
        ``TypeError`` on a type it cannot export) or carry an
        ``EXCLUDED_FIELDS`` reason."""
        classes = stats_dataclasses()
        assert set(classes) == set(REGISTERED_STATS)
        for name, cls in sorted(classes.items()):
            prefix = REGISTERED_STATS[name]
            counters = snapshot_stats(cls(), prefix)
            for field in dataclasses.fields(cls):
                key = f"{prefix}.{field.name}"
                if (name, field.name) in EXCLUDED_FIELDS:
                    assert key not in counters
                else:
                    assert key in counters or f"{key}.p99_us" in counters, key
        for (name, field_name), reason in EXCLUDED_FIELDS.items():
            assert field_name in {f.name for f in dataclasses.fields(classes[name])}
            assert reason.strip(), (name, field_name)
        # Derived properties ride along.
        ssd_counters = snapshot_stats(SSDStats(), "ssd")
        assert "ssd.write_amplification" in ssd_counters
        assert "ssd.cache_hit_ratio" in ssd_counters

    def test_reader_census_credits_the_walker_with_what_it_exports(self):
        """``tools.reader_census`` counts a stats property as read by the
        registry exactly when ``snapshot_stats`` exports it, so a name the
        census reports unread cannot be one the stats digest hashes."""
        from tools.reader_census import exported

        walked = set()
        for name, cls in stats_dataclasses().items():
            module = cls.__module__.rsplit(".", 1)[1]
            fields = {field.name for field in dataclasses.fields(cls)}
            keys = {key.split(".")[1] for key in snapshot_stats(cls(), "x")}
            walked |= {f"{module}.{name}.{key}" for key in keys - fields}
        assert "mapping_table.MappingTableStats.mean_segment_length" in walked
        assert exported(REPO / "src/repro") == walked

    def test_unexportable_field_raises(self):
        @dataclasses.dataclass
        class RogueStats:
            values: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="EXCLUDED_FIELDS"):
            snapshot_stats(RogueStats(), "rogue")

    def test_device_snapshot_namespaces(self, traced):
        ssd, host, _trace, _telemetry = traced
        snapshot = device_snapshot(ssd, host=host)
        assert snapshot["ssd.host_write_pages"] > 0
        assert snapshot["cache.hits"] >= 0
        assert snapshot["write_buffer.flushes"] > 0
        assert snapshot["allocator.blocks_allocated"] > 0
        assert snapshot["ns.reader.completed"] > 0
        assert snapshot["ns.writer.completed"] > 0
        assert snapshot["device.free_blocks"] > 0
        assert 0.0 < snapshot["device.free_block_ratio"] < 1.0
        assert "leaftl.mispredictions" in snapshot
        assert "mapping_table.segments_learned" in snapshot
        assert "ftl.lookups" in snapshot

    def test_delta_and_dict_api(self):
        earlier = CounterSnapshot({"a": 1.0, "b": 5.0})
        later = CounterSnapshot({"a": 4.0, "c": 2.0})
        delta = later.delta(earlier)
        assert delta["a"] == 3.0
        assert delta["b"] == -5.0
        assert delta["c"] == 2.0
        assert list(delta.as_dict()) == ["a", "b", "c"]
        assert json.loads(later.to_json()) == {"a": 4.0, "c": 2.0}
        assert "a" in later and "b" not in later

    def test_experiment_tables_carry_device_section(self):
        from repro.experiments.multi_tenant import run_noisy_neighbor

        scenario = verify_scenario(seed=SEED, scale=0.05)
        table = run_noisy_neighbor(VERIFY_ARBITER, scenario)
        assert "device" in table
        assert table["device"]["ssd.host_write_pages"] > 0
        # The delta is over the measured phase only: monotone counters
        # cannot go negative.
        assert table["device"]["ssd.data_page_writes"] >= 0


class TestSummaryKeys:
    def test_waf_inputs_are_first_class(self):
        summary = snapshot_stats(SSDStats(), "ssd")
        for key in (
            "checkpoint_page_writes",
            "data_page_writes",
            "gc_page_writes",
            "wl_page_moves",
            "translation_page_writes",
            "total_flash_page_writes",
            "power_failures",
            "buffered_pages_lost",
            "oob_scan_reads",
            "gc_urgent_collections",
            "measured_time_us",
        ):
            assert f"ssd.{key}" in summary, key


class TestCheckpointTracing:
    def test_checkpoint_spans_recorded(self):
        from repro.ssd.recovery import attach_checkpointer

        config = dataclasses.replace(SSDConfig.tiny(), capacity_bytes=16 * 1024 * 1024)
        from repro.config import DRAMBudget, LeaFTLConfig
        from repro.core.leaftl import LeaFTL

        ssd = SimulatedSSD(
            config,
            LeaFTL(LeaFTLConfig(gamma=4)),
            dram_budget=DRAMBudget(dram_bytes=config.dram_size),
            options=SSDOptions(queue_depth=8, telemetry="trace"),
        )
        attach_checkpointer(ssd, interval_pages=256)
        ssd.run([("W", (i * 5) % 2500, 8) for i in range(1200)])
        assert ssd.stats.checkpoint_page_writes > 0
        events = ssd.telemetry.tracer.trace_events()
        checkpoints = [e for e in events if e["name"] == "checkpoint"]
        assert checkpoints
        assert all(e["args"]["pages"] > 0 for e in checkpoints)
