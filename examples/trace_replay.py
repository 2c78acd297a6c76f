#!/usr/bin/env python3
"""Replay a block trace (MSR-Cambridge CSV format or a built-in synthetic one).

Run with::

    python examples/trace_replay.py --workload MSR-prxy --ftl LeaFTL
    python examples/trace_replay.py --trace /path/to/msr/hm_0.csv --ftl DFTL

If you have the original MSR-Cambridge / FIU traces, point ``--trace`` at a
CSV file and the exact same pipeline the paper used (trace → simulator →
statistics) runs on the real input; otherwise one of the built-in synthetic
stand-ins is generated.
"""

from __future__ import annotations

import argparse

from repro.analysis.memory import format_bytes
from repro.analysis.report import print_report, render_table
from repro.experiments.common import (
    ALL_WORKLOADS,
    ExperimentSetup,
    build_ssd,
    warmup_ssd,
    workload_for_setup,
)
from repro.workloads.parser import parse_msr_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="MSR-prxy", choices=ALL_WORKLOADS,
                        help="built-in synthetic workload to generate")
    parser.add_argument("--trace", default=None,
                        help="path to an MSR-format CSV trace (overrides --workload)")
    parser.add_argument("--ftl", default="LeaFTL", choices=["DFTL", "SFTL", "LeaFTL"])
    parser.add_argument("--gamma", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--max-requests", type=int, default=50_000)
    parser.add_argument("--no-warmup", action="store_true")
    parser.add_argument("--open-loop", action="store_true",
                        help="admit requests at their trace timestamps instead "
                             "of completion-driven (closed-loop) replay")
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="multiplier on inter-arrival times in open-loop "
                             "replay (0.5 doubles the arrival rate)")
    parser.add_argument("--interarrival-us", type=float, default=20.0,
                        help="arrival spacing stamped onto synthetic traces "
                             "when replaying open-loop")
    args = parser.parse_args()

    setup = ExperimentSetup(gamma=args.gamma, request_scale=args.scale,
                            warmup=not args.no_warmup)

    if args.trace:
        trace = parse_msr_trace(args.trace, name=args.trace,
                                page_size=setup.page_size,
                                max_requests=args.max_requests)
        trace = trace.scaled_to(setup.ssd_config().logical_pages)
    else:
        trace = workload_for_setup(args.workload, setup)

    print(f"trace: {trace.name}  requests={len(trace)}  "
          f"read_ratio={trace.read_ratio:.2f}  footprint={trace.footprint_pages()} pages")

    ssd = build_ssd(args.ftl, setup)
    if setup.warmup:
        print("warming up the device ...")
        warmup_ssd(ssd, setup)
    if args.open_loop and not trace.has_timestamps():
        trace = trace.with_interarrival(args.interarrival_us)
    if args.open_loop and not trace.timestamps_sorted():
        # Real captures sometimes interleave completion records out of
        # order; open-loop replay refuses unsorted arrivals, so repair.
        print("note: trace timestamps out of order; sorting by arrival time")
        trace = trace.sorted_by_timestamp()
    mode = "open" if args.open_loop else "closed"
    print(f"replaying through {args.ftl} ({mode}-loop) ...")
    stats = ssd.run(trace, replay_mode=mode, time_scale=args.time_scale)

    rows = [
        ["mean read latency (us)", round(stats.read_latency.mean_us, 1)],
        ["p99 read latency (us)", round(stats.read_latency.percentile(99), 1)],
        ["cache hit ratio", round(stats.cache_hit_ratio, 3)],
        ["mapping table (resident)", format_bytes(ssd.ftl.resident_bytes())],
        ["mapping table (full)", format_bytes(ssd.ftl.full_mapping_bytes())],
        ["write amplification", round(stats.write_amplification, 3)],
        ["misprediction ratio", f"{100 * stats.misprediction_ratio:.2f}%"],
        ["GC invocations", stats.gc_invocations],
        ["simulated time (s)", round(stats.simulated_time_us / 1e6, 2)],
        ["clipped pages", stats.clipped_pages],
    ]
    if args.open_loop:
        rows.append(["max outstanding (backlog)", stats.max_outstanding_requests])
    print_report(render_table(["metric", "value"], rows,
                              title=f"{trace.name} on {args.ftl}"))


if __name__ == "__main__":
    main()
