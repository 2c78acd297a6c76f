"""Multi-tenant QoS benchmark: noisy-neighbor isolation by arbiter.

Not a paper figure — this exercises the NVMe-style multi-queue host
interface grown on top of the reproduction (namespaces, submission-queue
arbitration, token buckets) and pins the isolation headline:

* FIFO shared-queue admission (the no-QoS baseline every single-frontend
  simulator implicitly uses) lets a bursty sequential writer inflate a
  latency-sensitive reader's p99 far beyond its solo run;
* weighted-round-robin and strict-priority arbitration keep that p99
  within a small constant factor (<= 3x) of solo;
* a token-bucket bandwidth cap on the writer namespace recovers the
  reader's tail even under plain round-robin.

Scale the tenant request counts with ``REPRO_BENCH_SCALE`` (floored so the
p99 estimates stay meaningful at smoke scale).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.report import print_report, render_series
from repro.experiments.multi_tenant import (
    NoisyNeighborScenario,
    noisy_neighbor_sweep,
    rate_limit_comparison,
)

from benchmarks.conftest import bench_scale, run_once

#: Acceptance bound pinned by tests/test_multi_tenant_qos.py as well.
ISOLATION_FACTOR = 3.0

ARBITERS = ("fifo", "round_robin", "weighted_round_robin", "strict_priority")


def _scenario() -> NoisyNeighborScenario:
    scale = bench_scale()
    base = NoisyNeighborScenario()
    return replace(
        base,
        reader_requests=max(800, int(base.reader_requests * scale)),
        writer_requests=max(256, int(base.writer_requests * scale)),
    )


def _render(table) -> None:
    print_report(
        render_series(
            "Multi-tenant QoS: reader latency by arbiter",
            {
                arbiter: {
                    "p50_us": round(table[arbiter]["reader"]["read_latency.p50_us"], 1),
                    "p99_us": round(table[arbiter]["reader"]["read_latency.p99_us"], 1),
                    "slo_viol": table[arbiter]["reader"]["slo_violations_read"],
                    "writer_p99_us": round(
                        table[arbiter]
                        .get("writer", {})
                        .get("write_latency.p99_us", 0.0),
                        1,
                    ),
                }
                for arbiter in ("solo",) + ARBITERS
            },
        )
    )


def test_noisy_neighbor_isolation(benchmark):
    scenario = _scenario()
    table = run_once(
        benchmark, noisy_neighbor_sweep, arbiters=ARBITERS, scenario=scenario
    )
    _render(table)

    solo_p99 = table["solo"]["reader"]["read_latency.p99_us"]
    assert solo_p99 > 0.0
    # QoS arbiters isolate the latency-sensitive tenant...
    for arbiter in ("weighted_round_robin", "strict_priority"):
        assert table[arbiter]["reader"]["read_latency.p99_us"] <= ISOLATION_FACTOR * solo_p99
    # ...the shared queue demonstrably does not...
    assert table["fifo"]["reader"]["read_latency.p99_us"] > ISOLATION_FACTOR * solo_p99
    # ...and nobody's work was dropped to get there.
    for arbiter in ARBITERS:
        assert table[arbiter]["writer"]["completed"] == scenario.writer_requests


def test_writer_rate_limit_recovers_reader_tail(benchmark):
    scenario = _scenario()
    table = run_once(benchmark, rate_limit_comparison, scenario=scenario)

    print_report(
        render_series(
            "Token-bucket QoS: bandwidth-capping the writer",
            {
                label: {
                    "reader_p99_us": round(row["reader"]["read_latency.p99_us"], 1),
                    "writer_p99_us": round(row["writer"]["write_latency.p99_us"], 1),
                    "deferrals": row["writer"]["rate_limit_deferrals"],
                }
                for label, row in table.items()
            },
        )
    )

    assert table["capped"]["writer"]["rate_limit_deferrals"] > 0
    assert (
        table["capped"]["reader"]["read_latency.p99_us"]
        < table["uncapped"]["reader"]["read_latency.p99_us"]
    )
