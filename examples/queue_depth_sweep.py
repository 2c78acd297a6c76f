#!/usr/bin/env python3
"""Queue-depth sweep: how NCQ concurrency reshapes latency and throughput.

Run with::

    python examples/queue_depth_sweep.py

The first table is :func:`repro.experiments.performance.queue_depth_sweep`:
the same workload replayed after an identical serial warm-up at increasing
host queue depths.  Two opposing effects appear:

* **throughput rises** — the makespan of the replay shrinks because up to
  ``queue_depth`` requests are serviced concurrently across channels;
* **per-request latency rises** — foreground reads queue behind the buffer
  flushes and GC migrations of concurrently outstanding writes (the
  ``read_stall_us`` column measures exactly that wait).

Depth 1 reproduces the classic synchronous simulation, so the first row is
the baseline every other row contends against.

The second table replays a two-tenant mix (an OLTP-style tenant interleaved
round-robin with a sequential-scan tenant through
:func:`repro.sim.frontend.interleave_streams`) to show how a noisy neighbour
inflates the latency of small reads.
"""

from __future__ import annotations

import random

from repro.analysis.report import print_report, render_series
from repro.experiments.common import run_experiment
from repro.experiments.performance import performance_setup, queue_depth_sweep
from repro.sim.frontend import interleave_streams
from repro.workloads.trace import Trace

DEPTHS = (1, 2, 4, 8, 16, 32)


def two_tenant_trace(footprint: int) -> Trace:
    """An OLTP-style tenant (small random I/O) + a scan tenant (large reads)."""
    rng = random.Random(3)
    oltp = [("R" if rng.random() < 0.7 else "W", rng.randrange(footprint), 1)
            for _ in range(3000)]
    scans = [("R", lpa, 64) for lpa in range(0, footprint - 64, 256)]
    return Trace.from_tuples("two-tenant", interleave_streams(oltp, scans))


def main() -> None:
    setup = performance_setup(gamma=4, capacity_bytes=256 * 1024 * 1024)
    table = queue_depth_sweep("OLTP", depths=DEPTHS, setup=setup)
    print_report(
        render_series(
            "single tenant: OLTP by queue depth",
            {str(depth): row for depth, row in table.items()},
        )
    )

    # Reads stay inside the warmed-up 70% of the logical space.
    trace = two_tenant_trace(footprint=40_000)
    rows = {}
    for depth in DEPTHS:
        result = run_experiment(
            trace.name, "LeaFTL", setup.scaled(queue_depth=depth), trace=trace
        )
        rows[str(depth)] = {
            "read_mean_us": result.read_mean_latency_us,
            "read_p99_us": result.read_p99_us,
            "read_stall_us": result.stats.read_stall_us,
        }
    print_report(
        render_series("two tenants: OLTP reads + sequential scans (round-robin)", rows)
    )


if __name__ == "__main__":
    main()
