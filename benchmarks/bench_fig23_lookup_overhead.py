"""Figure 23: LPA lookup overhead of the learned mapping table.

(a) how many levels of the log-structured table a lookup visits (the paper
reports ~90% of lookups resolved at the topmost level and 99% within 10);
(b) the lookup cost relative to the flash access latency (well under 1%).
"""

from __future__ import annotations

from repro.analysis.latency import value_at_cdf
from repro.analysis.report import print_report, render_series, render_table
from repro.config import SSDConfig
from repro.experiments.common import scheme_grid

from benchmarks.conftest import perf_setup, run_once

WORKLOADS = ("MSR-hm", "MSR-prxy", "FIU-mail", "TPCC")
FRACTIONS = (0.90, 0.99, 0.999, 0.9999)


def _level_stats(histogram):
    """Mean and CDF thresholds of the levels searched per lookup."""
    total = sum(histogram.values())
    if not total:
        return {}
    row = {"mean": sum(level * count for level, count in histogram.items()) / total}
    for fraction in FRACTIONS:
        row[f"p{fraction * 100:g}"] = value_at_cdf(histogram, fraction)
    return row


def test_fig23a_levels_per_lookup(benchmark):
    setup = perf_setup()
    grid = run_once(benchmark, scheme_grid, WORKLOADS, ("LeaFTL",), setup)
    table = {wl: _level_stats(cells["LeaFTL"].levels_histogram) for wl, cells in grid.items()}

    print_report(render_series(
        "Figure 23(a): levels searched per LPA lookup",
        {wl: {k: round(v, 2) for k, v in row.items()} for wl, row in table.items()},
    ))

    for workload, row in table.items():
        if not row:
            continue
        assert row["mean"] < 6, f"{workload}: mean levels {row['mean']} too high"
        assert row["p99"] <= 25

def test_fig23b_lookup_cost_vs_flash_latency(benchmark):
    """Host-side proxy of Figure 23(b): lookup time as % of a flash read.

    Times ``table.lookup`` — the paper's Algorithm-1 level walk, the
    device's algorithm.  The simulated device answers reads from the
    per-group owner index instead (``lookup_range``) and only *charges* the
    walk's levels; pointing ``table.lookup`` at that index would change
    what this figure measures.
    """
    from repro.config import LeaFTLConfig
    from repro.core.mapping_table import LogStructuredMappingTable

    table = LogStructuredMappingTable(LeaFTLConfig(gamma=4))
    import random

    rng = random.Random(1)
    ppa = 0
    for _ in range(200):
        start = rng.randrange(0, 100_000)
        lpas = sorted(set(start + rng.randrange(0, 200) for _ in range(64)))
        table.update([(lpa, ppa + i) for i, lpa in enumerate(lpas)])
        ppa += len(lpas)
    lpas_to_probe = [rng.randrange(0, 100_000) for _ in range(5000)]

    def probe():
        for lpa in lpas_to_probe:
            table.lookup(lpa)

    benchmark(probe)
    if benchmark.disabled:  # --benchmark-disable runs it once, untimed
        return
    per_lookup_us = benchmark.stats.stats.mean / len(lpas_to_probe) * 1e6
    flash_read_us = SSDConfig().read_latency_us
    overhead_pct = 100.0 * per_lookup_us / flash_read_us
    print_report(render_table(
        ["metric", "value"],
        [["lookup latency (us)", round(per_lookup_us, 3)],
         ["flash read latency (us)", flash_read_us],
         ["lookup overhead (% of flash read)", round(overhead_pct, 2)]],
        title="Figure 23(b): LPA lookup overhead (host CPU proxy)"))
    assert per_lookup_us < flash_read_us
