#!/usr/bin/env python3
"""Guided tour of the device telemetry layer (``repro.obs``).

Run with::

    PYTHONPATH=src python examples/telemetry_tour.py [--out DIR]

A simulator answers "how much" with its end-of-run counters; telemetry
answers "when" and "where".  This example runs the GC-contended
two-tenant verify scenario with all three collectors enabled and walks
through what each one saw:

* **Tracer** — per-request lifecycle spans, NAND bus occupations and
  the GC pipeline, exported as Chrome trace-event JSON.  Open the
  written ``trace.json`` at https://ui.perfetto.dev to scrub through
  the run on the simulated-microsecond clock.
* **MetricsSampler** — gauge time-series on a fixed sim-time interval;
  the free-block dip and channel-busy spike of a GC burst line up with
  the latency spike the tenants observed.
* **Counter registry** — every ``*Stats`` dataclass flattened into one
  namespaced snapshot with a delta API; the tour prints the counters
  that moved during the measured phase (via the run differ's
  ``diff_counters``).
* **Analyzer** (``repro.obs.analyze``) — the same artifacts
  post-processed into explanations: per-percentile critical-path
  latency attribution, tail-blame clustering and the per-namespace SLO
  scorecard, rendered into ``report.md`` next to the raw artifacts.

Everything here is observational: running this with telemetry on
produces bit-identical ``repro.verify`` digests to a plain run.
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.experiments.multi_tenant import (
    build_tenant_host,
    reader_tenant,
    writer_tenant,
)
from repro.obs.analyze import analyze_artifacts, diff_counters, request_spans
from repro.obs.registry import device_snapshot
from repro.obs.report import render_report
from repro.obs.session import attach_telemetry
from repro.verify import VERIFY_ARBITER, verify_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None,
        help="directory for trace/metrics/counters artifacts "
             "(default: a fresh temporary directory, printed at the end)",
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    scenario = verify_scenario(seed=args.seed, scale=args.scale)
    ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
    telemetry = attach_telemetry(ssd, "on", host=host)
    before = device_snapshot(ssd, host=host)

    print("== Running the GC-contended two-tenant scenario (telemetry on) ==")
    host.run({"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)})

    tracer = telemetry.tracer
    print(f"\n== Tracer: {tracer.recorded} records "
          f"({tracer.dropped} dropped by the ring buffer) ==")
    requests = []
    open_spans = {}
    for event in tracer.trace_events():
        if event["ph"] == "B" and event["name"] in ("R", "W"):
            open_spans[event["tid"]] = event
        elif event["ph"] == "E" and event["tid"] in open_spans:
            begin = open_spans.pop(event["tid"])
            requests.append((event["ts"] - begin["ts"], begin))
    for duration, begin in sorted(requests, reverse=True, key=lambda r: r[0])[:3]:
        print(f"  longest {begin['name']} request: {duration:.0f} us "
              f"at t={begin['ts']:.0f} us ({begin['args']})")

    sampler = telemetry.sampler
    print(f"\n== MetricsSampler: {sampler.samples} samples every "
          f"{sampler.interval_us:.0f} sim-us ==")
    free = sampler.series("free_blocks")
    busy = sampler.series("ch0_busy_frac")
    print(f"  free blocks: start {free[0]:.0f}, min {min(free):.0f}, "
          f"end {free[-1]:.0f}")
    print(f"  ch0 busy fraction: peak {max(busy):.2f}")
    print(f"  final sampled WAF {sampler.last('waf'):.3f} == "
          f"scalar stats WAF {ssd.stats.write_amplification:.3f}")

    after = device_snapshot(ssd, host=host)
    # The run differ doubles as a "what moved" lens within one run: diff
    # the before/after snapshots with base=0 semantics for new activity.
    diff = diff_counters(before.as_dict(), after.as_dict())
    movers = [
        row for row in diff["changed"] if not row["counter"].endswith("_us")
    ]
    print(f"\n== Counter registry: {len(movers)} counters moved ==")
    for row in movers[:12]:
        print(f"  {row['counter']:40s} {row['delta']:+.0f}")
    if len(movers) > 12:
        print(f"  ... and {len(movers) - 12} more")

    print("\n== Analyzer: where did the time go? ==")
    spans = request_spans(tracer.trace_events())
    report = analyze_artifacts(
        {
            "trace_events": tracer.trace_events(),
            "counters": after.delta(before).as_dict(),
            "metrics": None,
        }
    )
    for op, table in report["requests"]["ops"].items():
        p99 = table["levels"]["p99"]
        shares = ", ".join(
            f"{component} {entry['share']:.0%}"
            for component, entry in p99["components"].items()
            if entry["share"] >= 0.05
        )
        print(f"  {op}: p99 {p99['latency_us']:.0f} us — {shares}")
    top = report["tail_blame"]["clusters"][0]
    print(
        f"  tail blame: {top['component']} dominates {top['count']} of the "
        f"{report['tail_blame']['top_k']} slowest requests "
        f"({len(spans)} spans analyzed)"
    )

    out = args.out or tempfile.mkdtemp(prefix="telemetry-tour-")
    written = telemetry.write_artifacts(out)
    report_path = os.path.join(out, "report.md")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(render_report(report))
    written["report"] = report_path
    print("\n== Artifacts ==")
    for name, path in sorted(written.items()):
        print(f"  {name:12s} {path}")
    print("\nLoad the trace at https://ui.perfetto.dev — requests on "
          "io-slot tracks, NAND ops on chN tracks, GC on the gc track.  "
          "Re-analyze any artifact directory with `python -m repro.obs "
          "analyze DIR` and compare two runs with `python -m repro.obs "
          "diff DIR_A DIR_B`.")


if __name__ == "__main__":
    main()
