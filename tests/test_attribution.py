"""Latency attribution, run differ and scorecard tests.

The analyzer's load-bearing claim: for every completed request, the
critical-path component breakdown (queue wait, translation, DRAM, NAND,
channel contention, GC interference, flush backpressure, extra reads,
residual) sums *exactly* to the end-to-end latency.  That additivity is
property-tested here across the paths that produce spans — the
GC-contended multi-tenant run, a qd8 steady-state replay, and a qd1
replay that dispatches no event — alongside determinism of the analyzer output,
the differ's threshold semantics, tail-blame's FIFO diagnosis, the
recovery spans, and the SLO scorecard.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from repro.config import SSDConfig
from repro.experiments.multi_tenant import (
    READER_SLO_US,
    NoisyNeighborScenario,
    build_tenant_host,
    reader_tenant,
    writer_tenant,
)
from repro.ftl.pagemap import PageLevelFTL
from repro.obs.analyze import (
    analyze_artifacts,
    attribute_requests,
    diff_counters,
    diff_metrics,
    namespace_scorecard,
    request_spans,
    tail_blame,
)
from repro.obs.registry import device_snapshot
from repro.obs.report import render_diff, render_report
from repro.obs.session import attach_telemetry
from repro.obs.__main__ import run_multi_tenant, run_steady_state
from repro.ssd.recovery import recover
from repro.ssd.ssd import SimulatedSSD, SSDOptions

SEED = 1234

#: fsum of device-recorded float additions vs the latency built from the
#: same additions: anything beyond a few ULPs of accumulated rounding is
#: a real accounting bug, not float noise.
ADDITIVITY_TOL_US = 1e-6


def spans_of(telemetry):
    return request_spans(telemetry.tracer.trace_events())


def assert_additive(spans):
    assert spans, "run produced no request spans"
    for span in spans:
        total = math.fsum(span["components"].values())
        assert total == pytest.approx(span["latency_us"], abs=ADDITIVITY_TOL_US)
        assert span["components"]["other_us"] == pytest.approx(
            0.0, abs=ADDITIVITY_TOL_US
        ), "device breakdown left unexplained time"
        for key, value in span["components"].items():
            assert value >= -ADDITIVITY_TOL_US, f"negative component {key}"


@pytest.fixture(scope="module")
def multi_tenant_run():
    """GC-contended two-tenant verify scenario under WRR (scale 0.5)."""
    return run_multi_tenant(scale=0.5, seed=SEED)


class TestAdditivity:
    def test_multi_tenant_breakdowns_sum_to_latency(self, multi_tenant_run):
        _ssd, telemetry = multi_tenant_run
        assert_additive(spans_of(telemetry))

    def test_qd8_steady_state_breakdowns_sum_to_latency(self):
        _ssd, telemetry = run_steady_state(scale=0.1, seed=SEED)
        assert_additive(spans_of(telemetry))

    def test_qd1_run_traces_every_request_and_breakdowns_sum_to_latency(self):
        """A depth-1 ``run()`` dispatches no event, yet every completion
        reaches the tracer: one ``io-slot-0`` span per request."""
        ssd = SimulatedSSD(
            SSDConfig.tiny(),
            PageLevelFTL(),
            options=SSDOptions(queue_depth=1, telemetry="trace"),
        )
        # Small enough that no span is evicted from the tracer's ring
        # buffer; overwrites within a narrow region still force flushes.
        pages = min(512, ssd.config.logical_pages // 2)
        requests = [("W", (3 * i) % pages, 2) for i in range(3000)]
        requests += [("R", (7 * i) % pages, 2) for i in range(1000)]
        ssd.run(requests)
        assert ssd.stats.events_processed == 0
        tracks = {e["args"]["name"] for e in ssd.telemetry.tracer.trace_events() if e["ph"] == "M"}
        assert {name for name in tracks if name.startswith("io-slot-")} == {"io-slot-0"}
        spans = spans_of(ssd.telemetry)
        assert len(spans) == len(requests)
        assert_additive(spans)

    def test_components_cover_gc_interference(self, multi_tenant_run):
        # The GC-contended scenario must actually attribute some time to
        # contention components, not explain everything as NAND service.
        _ssd, telemetry = multi_tenant_run
        spans = spans_of(telemetry)
        contended = sum(
            span["components"].get("queue_wait_us", 0.0)
            + span["components"].get("gc_wait_us", 0.0)
            + span["components"].get("chan_wait_us", 0.0)
            + span["components"].get("flush_wait_us", 0.0)
            for span in spans
        )
        assert contended > 0.0


class TestAttribution:
    def test_percentile_levels_and_dominant(self, multi_tenant_run):
        _ssd, telemetry = multi_tenant_run
        attribution = attribute_requests(spans_of(telemetry))
        assert set(attribution["ops"]) == {"R", "W"}
        for table in attribution["ops"].values():
            levels = table["levels"]
            assert set(levels) == {"all", "p50", "p95", "p99"}
            assert levels["p50"]["latency_us"] <= levels["p99"]["latency_us"]
            assert levels["p99"]["count"] >= 1
            for level in levels.values():
                assert level["dominant"] in level["components"]
                share_total = math.fsum(
                    entry["share"] for entry in level["components"].values()
                )
                assert share_total == pytest.approx(1.0, abs=1e-9)

    def test_tail_blame_ranks_slowest(self, multi_tenant_run):
        _ssd, telemetry = multi_tenant_run
        spans = spans_of(telemetry)
        blame = tail_blame(spans)
        assert blame["top_k"] == 12
        latencies = [request["latency_us"] for request in blame["requests"]]
        assert latencies == sorted(latencies, reverse=True)
        assert sum(cluster["count"] for cluster in blame["clusters"]) == 12
        cutoff = sorted((s["latency_us"] for s in spans), reverse=True)[11]
        assert min(latencies) >= cutoff

    def test_fifo_noisy_neighbor_blames_contention_not_nand(self):
        """The acceptance diagnosis: under FIFO admission the reader's
        p99 is queueing/GC interference, not NAND service time."""
        scenario = NoisyNeighborScenario(reader_requests=300, writer_requests=120)
        ssd, host = build_tenant_host(scenario, "fifo")
        telemetry = attach_telemetry(ssd, "trace", host=host)
        host.run({"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)})
        spans = spans_of(telemetry)
        attribution = attribute_requests(spans)
        p99 = attribution["ops"]["R"]["levels"]["p99"]
        contention = {"queue_wait_us", "gc_wait_us", "chan_wait_us", "flush_wait_us"}
        assert p99["dominant"] in contention
        assert p99["dominant"] not in {"nand_us", "dram_us", "translate_us"}
        blame = tail_blame(spans)
        assert blame["clusters"][0]["component"] in contention


class TestDeterminism:
    def test_analyzer_output_byte_identical_across_runs(self):
        payloads = []
        for _ in range(2):
            ssd, telemetry = run_multi_tenant(scale=0.25, seed=SEED)
            report = analyze_artifacts(
                {
                    "trace_events": telemetry.tracer.trace_events(),
                    "counters": device_snapshot(ssd).as_dict(),
                    "metrics": None,
                }
            )
            payloads.append(json.dumps(report, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_self_diff_reports_nothing(self, multi_tenant_run):
        ssd, _telemetry = multi_tenant_run
        counters = device_snapshot(ssd).as_dict()
        diff = diff_counters(counters, counters)
        assert diff["changed"] == []

    def test_markdown_renders_without_paths(self, multi_tenant_run):
        ssd, telemetry = multi_tenant_run
        report = analyze_artifacts(
            {
                "trace_events": telemetry.tracer.trace_events(),
                "counters": device_snapshot(ssd).as_dict(),
                "metrics": None,
            }
        )
        markdown = render_report(report)
        assert "# Device report" in markdown
        assert "Latency attribution" in markdown
        assert str(REPO) not in markdown


class TestRecoverySpans:
    def _crashed_device(self):
        ssd = SimulatedSSD(
            SSDConfig.tiny(), PageLevelFTL(), options=SSDOptions(telemetry="trace")
        )
        pages = ssd.config.logical_pages // 2
        ssd.run([("W", lpa, 1) for lpa in range(pages)])
        ssd.power_fail()
        return ssd

    def test_oob_scan_emits_recovery_span(self):
        ssd = self._crashed_device()
        result = recover(ssd, mode="oob_scan")
        events = ssd.telemetry.tracer.trace_events()
        names = {
            event.get("tid"): event["args"]["name"]
            for event in events
            if event.get("ph") == "M" and event.get("name") == "thread_name"
        }
        spans = [
            event
            for event in events
            if event.get("ph") == "X" and names.get(event.get("tid")) == "recovery"
        ]
        assert len(spans) == 1
        span = spans[0]
        assert span["name"] == "recovery_scan"
        assert span["dur"] == pytest.approx(result.recovery_time_us)
        assert span["args"]["flash_reads"] == result.flash_reads
        assert span["args"]["recovered_lpas"] == result.recovered_lpas

    def test_analyzer_surfaces_recovery_phase(self):
        ssd = self._crashed_device()
        recover(ssd, mode="oob_scan")
        report = analyze_artifacts(
            {
                "trace_events": ssd.telemetry.tracer.trace_events(),
                "counters": None,
                "metrics": None,
            }
        )
        phases = report["recovery"]
        assert [phase["phase"] for phase in phases] == ["recovery_scan"]
        assert phases[0]["makespan_us"] > 0.0

    def test_recovery_without_telemetry_emits_nothing(self):
        ssd = SimulatedSSD(SSDConfig.tiny(), PageLevelFTL())
        pages = ssd.config.logical_pages // 4
        ssd.run([("W", lpa, 1) for lpa in range(pages)])
        ssd.power_fail()
        result = recover(ssd, mode="oob_scan")
        assert result.recovered_lpas == pages
        assert ssd.telemetry is None


class TestDiffer:
    def test_threshold_and_sort(self):
        base = {"a": 100.0, "b": 100.0, "c": 0.0, "d": 5.0}
        current = {"a": 104.0, "b": 150.0, "c": 3.0, "d": 5.0}
        diff = diff_counters(base, current)
        changed = {row["counter"]: row for row in diff["changed"]}
        assert "a" not in changed  # +4% is under the 5% threshold
        assert "d" not in changed  # unchanged
        assert changed["b"]["rel"] == pytest.approx(0.5)
        assert changed["c"]["rel"] is None  # new activity: always reported
        # New counters (rel None) sort ahead of finite relative changes.
        assert [row["counter"] for row in diff["changed"]] == ["c", "b"]
        assert diff["compared"] == 4

    def test_union_of_keys(self):
        diff = diff_counters({"only_base": 2.0}, {"only_current": 3.0})
        counters = {row["counter"]: row for row in diff["changed"]}
        assert counters["only_base"]["delta"] == -2.0
        assert counters["only_current"]["base"] == 0.0

    def test_metrics_alignment_on_shared_sim_time(self):
        base = {
            "series": {
                "time_us": [0.0, 1000.0, 2000.0],
                "free_blocks": [10.0, 8.0, 6.0],
                "waf": [1.0, 1.0, 1.0],
            }
        }
        # The candidate ran longer: only the shared prefix aligns.
        current = {
            "series": {
                "time_us": [0.0, 1000.0, 2000.0, 3000.0],
                "free_blocks": [10.0, 4.0, 2.0, 1.0],
                "waf": [1.0, 1.0, 1.0, 2.0],
            }
        }
        diff = diff_metrics(base, current)
        assert diff["aligned_samples"] == 3
        changed = {row["column"]: row for row in diff["changed"]}
        assert "waf" not in changed  # identical over the aligned window
        assert changed["free_blocks"]["rel"] < 0.0

    def test_render_diff_mentions_threshold(self):
        diff = {
            "schema": "repro.obs.diff/1",
            "threshold": 0.05,
            "significant": False,
            "counters": {"threshold": 0.05, "compared": 3, "changed": []},
            "metrics": {"threshold": 0.05, "aligned_samples": 0, "changed": []},
        }
        markdown = render_diff(diff)
        assert "5.0%" in markdown
        assert "No counter moved" in markdown


class TestScorecard:
    def _counters(self, completed, violations, slo=1000.0):
        return {
            "ns.reader.submitted": completed,
            "ns.reader.completed": completed,
            "ns.reader.slo_violations_read": violations,
            "ns.reader.slo_read_us": slo,
            "ns.reader.queue_wait_us": 500.0 * completed,
            "ns.reader.read_latency.p99_us": 2000.0,
            "ns.reader.write_latency.p99_us": 0.0,
            "ns.reader.rate_limit_deferrals": 0.0,
        }

    def test_burn_rate_statuses(self):
        # Budget 1% of 1000 requests: burn = violations / 10.
        for violations, status in ((5.0, "ok"), (50.0, "warning"), (500.0, "critical")):
            card = namespace_scorecard(self._counters(1000.0, violations))
            entry = card["namespaces"]["reader"]
            assert entry["status"] == status, (violations, entry)
        assert card["namespaces"]["reader"]["burn_rate"] == pytest.approx(50.0)

    def test_gauges_survive_delta_zeroing(self):
        # A measured-phase delta zeroes the SLO gauges; the absolute end
        # snapshot supplies them instead.
        delta = self._counters(1000.0, 20.0, slo=0.0)
        gauges = {"ns.reader.slo_read_us": 1000.0}
        card = namespace_scorecard(delta, gauges=gauges)
        assert card["namespaces"]["reader"]["slo_read_us"] == 1000.0

    def test_violation_windows_merge_adjacent(self):
        spans = [
            {
                "op": "R",
                "queue": "reader",
                "start_us": start,
                "device_us": 10.0,
                "latency_us": 5000.0,
                "components": {},
            }
            for start in (100.0, 1100.0, 5100.0)
        ]
        card = namespace_scorecard(self._counters(3.0, 3.0), spans=spans)
        windows = card["namespaces"]["reader"]["violation_windows"]
        assert [(w["start_us"], w["end_us"]) for w in windows] == [
            (0.0, 2000.0),
            (5000.0, 6000.0),
        ]

    def test_experiment_tables_carry_scorecard(self):
        from repro.experiments.multi_tenant import run_noisy_neighbor

        scenario = NoisyNeighborScenario(reader_requests=200, writer_requests=80)
        table = run_noisy_neighbor("weighted_round_robin", scenario)
        assert set(table["scorecard"]) == {"reader", "writer"}
        for entry in table["scorecard"].values():
            assert entry["status"] in ("ok", "warning", "critical")
            assert entry["slo_violations"] >= 0.0
        # The reader's SLO gauge came from the absolute snapshot, not the
        # (zeroed) measured-phase delta.
        assert table["scorecard"]["reader"]["slo_read_us"] == READER_SLO_US
