#!/usr/bin/env python3
"""Queue-depth sweep: how NCQ concurrency reshapes latency and throughput.

Run with::

    python examples/queue_depth_sweep.py

The first table is the ``queue_depth`` axis of the experiment harness
(:func:`repro.experiments.common.axis_grid`): the same workload replayed
after an identical serial warm-up at increasing host queue depths.  Two
opposing effects appear:

* **throughput rises** — the makespan of the replay shrinks because up to
  ``queue_depth`` requests are serviced concurrently across channels
  (``page_kiops`` counts host *pages* per measured millisecond);
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
from dataclasses import replace

from repro.analysis.report import print_report, render_series
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSetup,
    axis_grid,
    run_experiment,
)
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


def read_metrics(result: ExperimentResult) -> dict:
    return {
        "read_mean_us": result.read_mean_latency_us,
        "read_p99_us": result.read_p99_us,
        "read_stall_us": result.stats.read_stall_us,
    }


def main() -> None:
    setup = ExperimentSetup(gamma=4, capacity_bytes=256 * 1024 * 1024)
    cells = axis_grid(("OLTP",), "queue_depth", DEPTHS, setup)["OLTP"]
    rows = {}
    for depth, result in cells.items():
        stats = result.stats
        elapsed_ms = max(stats.measured_time_us / 1000.0, 1e-9)
        pages = stats.host_read_pages + stats.host_write_pages
        rows[str(depth)] = {
            **read_metrics(result),
            "measured_time_us": stats.measured_time_us,
            "page_kiops": pages / elapsed_ms,
        }
    print_report(render_series("single tenant: OLTP by queue depth", rows))

    # Reads stay inside the warmed-up 70% of the logical space.
    trace = two_tenant_trace(footprint=40_000)
    rows = {}
    for depth in DEPTHS:
        result = run_experiment(
            trace.name, "LeaFTL", replace(setup, queue_depth=depth), trace=trace
        )
        rows[str(depth)] = read_metrics(result)
    print_report(
        render_series("two tenants: OLTP reads + sequential scans (round-robin)", rows)
    )


if __name__ == "__main__":
    main()
