"""Figure 18: latency distribution of storage accesses for the OLTP workload.

The paper shows that LeaFTL does not increase the tail latency while the
higher cache hit ratio reduces the latency of many accesses.

The contended variant replays the same workload at queue depth 8 through
the event-driven engine, so the CDF includes the channel contention between
outstanding foreground reads and the background flush/GC traffic — the
regime real tail latencies come from.
"""

from __future__ import annotations

from repro.analysis.latency import latency_cdf
from repro.analysis.report import print_report, render_series
from repro.experiments.common import run_schemes
from repro.experiments.performance import gc_mode_comparison

from benchmarks.conftest import bench_scale, perf_setup, run_once


def _render_cdf(title, cells):
    """Print and return scheme -> CDF point -> read latency of OLTP cells."""
    cdf = {scheme: latency_cdf(cell.latency_samples) for scheme, cell in cells.items()}
    print_report(render_series(
        title,
        {scheme: {f"{p:g}%": round(v, 1) for p, v in points.items()}
         for scheme, points in cdf.items()},
    ))
    return cdf


def test_fig18_oltp_latency_cdf(benchmark):
    setup = perf_setup(dram_policy="cache_reserved")
    cells = run_once(benchmark, run_schemes, "OLTP", setup)

    cdf = _render_cdf("Figure 18: OLTP read latency (us) at CDF points", cells)

    # LeaFTL's tail (99.9th percentile) stays within 1.5x of the baselines.
    assert cdf["LeaFTL"][99.9] <= 1.5 * max(cdf["DFTL"][99.9], cdf["SFTL"][99.9], 1.0)
    # And the median-ish latency is no worse than DFTL's.
    assert cdf["LeaFTL"][60.0] <= cdf["DFTL"][60.0] + 1.0


def test_fig18_oltp_latency_cdf_contended(benchmark):
    """The queue-depth-8 CDF: reads contend with background flush/GC."""
    setup = perf_setup(dram_policy="cache_reserved", queue_depth=8)
    cells = run_once(benchmark, run_schemes, "OLTP", setup, ("DFTL", "LeaFTL"))

    cdf = _render_cdf("Figure 18 (queue depth 8): OLTP read latency (us)", cells)

    # Under contention tails are dominated by queueing, which is common to
    # every scheme — LeaFTL's stays within 2x of DFTL's at every scale.
    assert cdf["LeaFTL"][99.9] <= 2.0 * max(cdf["DFTL"][99.9], 1.0)
    # The median-ish latency advantage (bigger cache) survives contention.
    assert cdf["LeaFTL"][60.0] <= cdf["DFTL"][60.0] + 1.0


def test_fig18_oltp_latency_cdf_open_loop(benchmark):
    """Open-loop replay: requests arrive on the trace clock, not on
    completions, so the CDF measures latency against arrival times — the
    regime where a slow scheme falls behind its arrival process and the
    backlog inflates every subsequent request's latency."""
    setup = perf_setup(dram_policy="cache_reserved", replay_mode="open")
    cells = run_once(benchmark, run_schemes, "OLTP", setup, ("DFTL", "LeaFTL"))

    cdf = _render_cdf("Figure 18 (open loop): OLTP read latency vs arrival (us)", cells)

    # Sanity: the CDF is monotone and the tail includes arrival queueing.
    for scheme in ("DFTL", "LeaFTL"):
        assert cdf[scheme][99.9] >= cdf[scheme][60.0]
    # LeaFTL keeps up with the arrival process at least as well as DFTL
    # does at the median (its larger data cache absorbs more reads).
    assert cdf["LeaFTL"][60.0] <= cdf["DFTL"][60.0] + 1.0


def test_fig18_contended_background_gc_tail(benchmark):
    """Background GC flattens the contended tail at equal-or-better WAF.

    The aged, over-committed device replays the same skewed mix at queue
    depth 8 under both GC modes.  The synchronous reclaim loop reserves a
    whole multi-victim migration burst at one instant, so reads landing
    mid-reclaim queue behind all of it; the background pipeline issues one
    victim stage at a time between host requests, bounding each read's wait
    — p99 drops sharply while collection is deferred, not skipped.
    """
    num_requests = max(500, int(5000 * bench_scale()))
    table = run_once(benchmark, gc_mode_comparison, num_requests=num_requests)

    print_report(render_series(
        "Figure 18 (aged device, QD 8): GC interference by scheduling mode",
        {mode: {key: round(value, 1) for key, value in metrics.items()}
         for mode, metrics in table.items()},
    ))

    sync, background = table["sync"], table["background"]
    # Acceptance: measurably lower read tail under background GC...
    assert background["read_p99_us"] < sync["read_p99_us"] * 0.8
    assert background["read_mean_us"] < sync["read_mean_us"]
    # ...without paying for it in write amplification.
    assert background["waf"] <= sync["waf"] * 1.1
    assert background["gc_background_runs"] >= 1.0
