#!/usr/bin/env python3
"""Crash a simulated SSD mid-workload and watch it recover.

Run with::

    python examples/power_fail_recovery.py [--interval 512] [--crash-at 2600]

LeaFTL keeps its learned mapping table in DRAM; power loss wipes it.  The
durable ground truth is in each flash page's OOB spare area (the reverse
LPA mapping written at program time), so the table is always rebuildable —
the question is how long a rebuild takes.  This example injects a power
failure mid-write-burst and recovers the same crashed device twice:

* a full OOB scan — read every programmed page's spare area;
* checkpoint + replay — restore the last flash checkpoint of the learned
  segments, then re-learn only the pages programmed since.

Both must agree bit-exactly with the durability oracle (the last-acked
location of every LPA, captured at the instant of the crash).
"""

from __future__ import annotations

import argparse

from repro.analysis.report import print_report, render_table
from repro.experiments.recovery import RecoveryScenario, run_crash_recovery


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--interval", type=int, default=512,
        help="checkpoint interval in data pages (default 512)",
    )
    parser.add_argument(
        "--crash-at", type=int, default=2600,
        help="crash at the N-th host request completion (default 2600)",
    )
    parser.add_argument("--seed", type=int, default=20)
    args = parser.parse_args()

    scenario = RecoveryScenario(crash_after_completions=args.crash_at, seed=args.seed)

    print("crashing mid-burst, recovering via full OOB scan ...")
    scan = run_crash_recovery(scenario, mode="oob_scan")
    print(f"crashing again, recovering via checkpoint+replay "
          f"(interval={args.interval} pages) ...")
    ckpt = run_crash_recovery(
        scenario, interval_pages=args.interval, mode="checkpoint_replay"
    )

    rows = []
    for outcome in (scan, ckpt):
        rows.append(
            [
                outcome.mode,
                round(outcome.recovery_time_us / 1000.0, 2),
                outcome.flash_reads,
                outcome.checkpoint_pages_read,
                outcome.replayed_pages,
                outcome.recovered_lpas,
                outcome.checkpoint_page_writes,
                round(outcome.write_amplification, 3),
            ]
        )
    print_report(
        render_table(
            ["mode", "recovery ms", "OOB reads", "ckpt reads",
             "replayed", "LPAs", "ckpt writes", "WAF"],
            rows,
            title="Power-fail recovery (every acked page verified bit-exact)",
        )
    )
    speedup = scan.recovery_time_us / max(ckpt.recovery_time_us, 1e-9)
    print(f"checkpoint+replay recovered {speedup:.1f}x faster than the full scan")


if __name__ == "__main__":
    main()
