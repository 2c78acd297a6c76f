#!/usr/bin/env python3
"""Explore the error-bound knob gamma (paper Figures 19-21 and 24).

Run with::

    python examples/gamma_sensitivity.py [--workload MSR-hm] [--scale 0.1]

LeaFTL's single tunable is the error bound ``gamma`` of approximate
segments: a larger gamma lets one segment cover more irregular LPA→PPA
patterns (smaller mapping table, better caching) at the cost of occasional
mispredictions, each corrected with one extra flash read through the OOB
reverse mapping.  This example sweeps gamma and prints the trade-off.
"""

from __future__ import annotations

import argparse

from repro.analysis.memory import format_bytes
from repro.analysis.report import print_report, render_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentSetup, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="MSR-hm", choices=ALL_WORKLOADS)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--gammas", nargs="+", type=int, default=[0, 1, 4, 16])
    args = parser.parse_args()

    rows = []
    baseline_bytes = None
    baseline_latency = None
    for gamma in args.gammas:
        print(f"running {args.workload} with gamma={gamma} ...")
        setup = ExperimentSetup(gamma=gamma, request_scale=args.scale)
        result = run_experiment(args.workload, "LeaFTL", setup)
        if baseline_bytes is None:
            baseline_bytes = result.mapping_full_bytes or 1
            baseline_latency = result.read_mean_latency_us or 1.0
        accurate, approximate = result.segment_type_counts
        total_segments = max(1, accurate + approximate)
        rows.append(
            [
                gamma,
                format_bytes(result.mapping_full_bytes),
                round(result.mapping_full_bytes / baseline_bytes, 3),
                round(result.read_mean_latency_us / baseline_latency, 3),
                f"{100 * approximate / total_segments:.1f}%",
                f"{100 * result.misprediction_ratio:.2f}%",
                round(result.cache_hit_ratio, 3),
            ]
        )

    print_report(
        render_table(
            ["gamma", "mapping table", "size vs g=0", "read latency vs g=0",
             "approximate segments", "mispredictions", "cache hit"],
            rows,
            title=f"LeaFTL gamma sensitivity on {args.workload}",
        )
    )


if __name__ == "__main__":
    main()
