"""Double-run determinism: the dynamic witness behind the simlint rules.

Runs a mixed read/write two-tenant workload — Zipf reader plus bursty
sequential writer — with background GC and weighted-round-robin
arbitration, twice from the same seed, and asserts the full event-trace
digests and stats summaries are identical.  This is the property the
static rules in ``tools/simlint`` exist to protect; a regression that
reintroduces wall-clock reads, unseeded randomness or set-order
iteration on a scheduling path fails here even if it dodges the linter.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

import pytest

from repro.experiments.multi_tenant import build_tenant_host
from repro.ftl.pagemap import PageLevelFTL
from repro.verify import VERIFY_ARBITER, run_once, stats_digest, verify, verify_scenario
from tests.conftest import make_ssd


class TestScenarioShape:
    """The scenario must actually exercise what it claims to cover."""

    def test_uses_background_gc_and_wrr(self):
        scenario = verify_scenario()
        assert scenario.device.gc_mode == "background"
        assert VERIFY_ARBITER == "weighted_round_robin"

    def test_tenants_mix_reads_and_writes(self):
        from repro.experiments.multi_tenant import reader_tenant, writer_tenant

        scenario = verify_scenario()
        reader = reader_tenant(scenario)
        writer = writer_tenant(scenario)
        assert reader.read_requests > 0 and reader.write_requests == 0
        assert writer.write_requests > 0 and writer.read_requests == 0


class TestDoubleRun:
    def test_same_seed_identical_trace_and_stats(self):
        result = verify(seed=77, scale=1.0, runs=2)
        first, second = result.reports
        assert result.identical
        assert first.event_digest == second.event_digest
        assert first.stats_digest == second.stats_digest
        assert first.summary == second.summary
        # The runs must be substantive: the event engine processed a real
        # interleaving and background GC actually reclaimed blocks.
        assert first.events_observed > 1000
        assert first.summary["ssd.gc_background_runs"] > 0
        assert first.summary["ssd.host_read_pages"] > 0
        assert first.summary["ssd.host_write_pages"] > 0

    def test_different_seed_changes_the_trace(self):
        # The digest is sensitive to the workload, not a constant.
        a = run_once(seed=1, scale=0.25)
        b = run_once(seed=2, scale=0.25)
        assert a.event_digest != b.event_digest


class TestStatsDigestCoverage:
    """The stats digest commits to the whole device, not to ``SSDStats``."""

    @pytest.mark.parametrize(
        "owner, counter",
        [
            ("cache", "evictions"),
            ("write_buffer", "flushes"),
            ("allocator", "blocks_reclaimed"),
            ("ftl", "lookups"),
        ],
    )
    def test_counter_outside_ssd_stats_moves_the_digest(self, owner, counter):
        ssd = make_ssd(ftl=PageLevelFTL())
        ssd.run([("W", lpa, 4) for lpa in range(0, 4096, 4)] + [("R", 7, 2)])
        before = stats_digest(ssd)
        assert stats_digest(ssd) == before
        stats = getattr(ssd, owner).stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        assert stats_digest(ssd) != before

    def test_namespace_counter_moves_the_digest(self):
        scenario = verify_scenario(scale=0.05)
        ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
        before = stats_digest(ssd, host)
        host.namespace("reader").stats.slo_violations_read += 1
        assert stats_digest(ssd, host) != before


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.verify", *args],
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )

    def test_exit_zero_and_json_payload(self):
        result = self._run("--scale", "0.25", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["identical"] is True
        # Both scenarios run by default: the multi-tenant base run and the
        # crash-and-recover run, each compared across two executions.
        assert set(payload["scenarios"]) == {"base", "recovery"}
        for scenario in payload["scenarios"].values():
            assert scenario["identical"] is True
            assert len(scenario["runs"]) == 2
            digests = {run["event_digest"] for run in scenario["runs"]}
            assert len(digests) == 1

    def test_text_verdict(self):
        result = self._run("--scale", "0.25")
        assert result.returncode == 0
        assert "identical" in result.stdout

    def test_single_scenario_selection(self):
        result = self._run("--scale", "0.25", "--scenario", "recovery", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert set(payload["scenarios"]) == {"recovery"}
