"""Figure 25: write amplification factor (SSD lifetime impact).

The paper shows LeaFTL's WAF is comparable to DFTL and SFTL (DFTL is usually
the worst because of its translation-page write-backs), i.e. the learned
mapping does not age the SSD faster.

The steady-state variant ages the device first (sequential fill + skewed
overwrites via ``precondition``) and sweeps the over-provisioning ratio and
the GC victim policy, reproducing the classic WAF-vs-OP trend the paper's
Section 3.6 setup assumes: more spare blocks → victims shed more valid
pages before collection → less migration traffic per host write.
"""

from __future__ import annotations

from repro.analysis.report import print_report, render_series
from repro.experiments.common import SCHEMES, project, scheme_grid
from repro.experiments.performance import aging_sweep

from benchmarks.conftest import bench_scale, perf_setup, run_once

WORKLOADS = ("MSR-prxy", "FIU-mail", "TPCC", "OLTP")


def test_fig25_write_amplification(benchmark):
    setup = perf_setup()
    grid = run_once(benchmark, scheme_grid, WORKLOADS, SCHEMES, setup)
    table = project(grid, "write_amplification")

    print_report(render_series(
        "Figure 25: write amplification factor (lower is better)",
        {wl: {s: round(v, 3) for s, v in row.items()} for wl, row in table.items()},
        column_order=("DFTL", "SFTL", "LeaFTL"),
    ))

    for workload, row in table.items():
        # At the scaled-down trace sizes the controller write buffer absorbs
        # overwrites, so WAF legitimately dips below 1.0 for every scheme —
        # the figure's claim is the *relative* one: LeaFTL must not amplify
        # writes meaningfully more than the baselines.
        assert row["LeaFTL"] > 0.0
        assert row["LeaFTL"] <= max(row["DFTL"], row["SFTL"]) * 1.15, workload


def test_fig25_waf_aging_sweep(benchmark):
    """Steady-state WAF vs over-provisioning, per GC victim policy."""
    # Floor of 1500: below that the measured phase is too short for the
    # WAF-vs-OP trend to emerge from the preconditioned state (the high-OP
    # cells see almost no GC and the assertion becomes noise).
    num_requests = max(1500, int(5000 * bench_scale()))
    table = run_once(benchmark, aging_sweep, num_requests=num_requests)

    print_report(render_series(
        "Figure 25 (steady state): WAF by over-provisioning and GC policy",
        {
            policy: {f"OP {op:.0%}": round(metrics["waf"], 3)
                     for op, metrics in row.items()}
            for policy, row in table.items()
        },
    ))

    for policy, row in table.items():
        ops = sorted(row)
        wafs = [row[op]["waf"] for op in ops]
        # Aged devices amplify writes: every cell saw real GC traffic.
        assert all(waf > 1.0 for waf in wafs), policy
        # The steady-state trend: WAF falls as over-provisioning grows.
        # Adjacent steps may only regress within noise; the end-to-end drop
        # must be substantial for every policy.
        for tighter, looser in zip(wafs, wafs[1:]):
            assert looser <= tighter * 1.05, policy
        assert wafs[-1] < wafs[0] * 0.8, policy
