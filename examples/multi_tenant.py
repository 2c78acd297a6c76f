#!/usr/bin/env python3
"""Multi-tenant QoS: namespaces, arbitration and rate limits in action.

Run with::

    python examples/multi_tenant.py

One device, two namespaces:

* **reader** — a latency-sensitive tenant issuing steady Zipf-skewed
  open-loop reads (16-page requests every 150 us) with a 1 ms read SLO;
* **writer** — a noisy neighbor streaming bursts of 32-page sequential
  writes whose flushes keep the flash channels busy.

Three views of the same contention:

1. **Arbitration sweep** — the reader's latency under every submission-
   queue arbiter, against its solo run.  FIFO (one shared queue — the
   no-QoS baseline) lets the writer's bursts queue ahead of the reader's
   arrivals and its p99 explodes; weighted-round-robin (reader weight 8)
   and strict-priority admission keep it within a small factor of solo.
2. **Isolation factors** — the same numbers as multiples of the solo p99,
   the form the acceptance test pins (QoS arbiters <= 3x, FIFO far beyond).
3. **Rate limiting** — arbitration shares admission but cannot shrink an
   admitted burst; a token-bucket bandwidth cap on the writer namespace
   throttles the burst at the source and buys the reader's tail back.
"""

from __future__ import annotations

from repro.experiments.multi_tenant import (
    READER_SLO_US,
    READER_WEIGHT,
    NoisyNeighborScenario,
    noisy_neighbor_sweep,
    rate_limit_comparison,
)

ARBITERS = ("fifo", "round_robin", "weighted_round_robin", "strict_priority")

READER_COLUMNS = (
    ("read_latency.p50_us", "p50 us"),
    ("read_latency.p95_us", "p95 us"),
    ("read_latency.p99_us", "p99 us"),
    ("queue_wait_us", "SQ wait us"),
    ("slo_violations_read", "SLO viol"),
)


def print_arbitration_sweep(table) -> None:
    print("=== reader latency by submission-queue arbiter ===")
    header = f"{'arbiter':>22} " + " ".join(f"{label:>12}" for _, label in READER_COLUMNS)
    print(header)
    for arbiter in ("solo",) + ARBITERS:
        reader = table[arbiter]["reader"]
        cells = " ".join(f"{reader[key]:12.1f}" for key, _ in READER_COLUMNS)
        print(f"{arbiter:>22} {cells}")
    print()


def print_isolation_factors(table) -> None:
    solo_p99 = table["solo"]["reader"]["read_latency.p99_us"]
    print("=== isolation: contended reader p99 as a multiple of solo ===")
    for arbiter in ARBITERS:
        factor = table[arbiter]["reader"]["read_latency.p99_us"] / solo_p99
        verdict = "isolated (<= 3x)" if factor <= 3.0 else "NOT isolated"
        print(f"{arbiter:>22}  {factor:7.2f}x   {verdict}")
    print()


def print_rate_limit_comparison() -> None:
    print("=== token-bucket QoS: bandwidth-capping the writer (round-robin) ===")
    table = rate_limit_comparison()
    for label in ("uncapped", "capped"):
        reader = table[label]["reader"]
        writer = table[label]["writer"]
        print(
            f"{label:>10}  reader p99 {reader['read_latency.p99_us']:9.1f} us"
            f"  (SLO violations {reader['slo_violations_read']:4.0f})"
            f" | writer p99 {writer['write_latency.p99_us']:10.1f} us"
            f"  deferrals {writer['rate_limit_deferrals']:6.0f}"
        )
    print()


def main() -> None:
    scenario = NoisyNeighborScenario()
    device = scenario.device
    print(
        f"device: {device.capacity_bytes // (1024 * 1024)} MB, "
        f"{device.channels} channels, queue depth {device.queue_depth}; "
        f"reader weight {READER_WEIGHT}, "
        f"SLO {READER_SLO_US:.0f} us\n"
    )
    table = noisy_neighbor_sweep(arbiters=ARBITERS, scenario=scenario)
    print_arbitration_sweep(table)
    print_isolation_factors(table)
    print_rate_limit_comparison()


if __name__ == "__main__":
    main()
