"""Figure 22: sensitivity to DRAM capacity (a) and flash page size (b).

The paper varies the SSD DRAM from 256 MB to 1 GB and the flash page size
from 4 KB to 16 KB (fixing the number of pages); LeaFTL outperforms DFTL and
SFTL at every point.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.latency import normalize
from repro.analysis.report import print_report, render_series
from repro.experiments.common import SCHEMES, scheme_grid

from benchmarks.conftest import perf_setup, run_once

WORKLOADS = ("TPCC", "FIU-mail")
#: Scaled-down equivalents of the paper's 256 MB / 512 MB / 1 GB sweep.
DRAM_SIZES = (128 * 1024, 256 * 1024, 512 * 1024)
PAGE_SIZES = (4096, 8192, 16384)


def _normalized_sums(setups):
    """axis value -> scheme -> read latency summed over WORKLOADS, DFTL = 1.0."""
    table = {}
    for value, setup in setups.items():
        grid = scheme_grid(WORKLOADS, SCHEMES, setup)
        sums = {s: sum(grid[wl][s].read_mean_latency_us for wl in WORKLOADS) for s in SCHEMES}
        table[value] = normalize(sums, "DFTL")
    return table


def test_fig22a_dram_size_sensitivity(benchmark):
    setup = perf_setup(dram_policy="cache_reserved")
    setups = {dram: replace(setup, dram_bytes=dram) for dram in DRAM_SIZES}
    table = run_once(benchmark, _normalized_sums, setups)

    print_report(render_series(
        "Figure 22(a): normalized read latency vs DRAM size (lower is better)",
        {f"{dram // 1024} KB DRAM": {s: round(v, 3) for s, v in row.items()}
         for dram, row in table.items()},
        column_order=("DFTL", "SFTL", "LeaFTL"),
    ))
    for dram, row in table.items():
        assert row["LeaFTL"] <= 1.02, f"LeaFTL slower than DFTL at {dram} bytes DRAM"


def test_fig22b_page_size_sensitivity(benchmark):
    setup = perf_setup(dram_policy="cache_reserved")
    # The paper fixes the number of flash pages while growing the page size,
    # so the capacity grows with it.
    setups = {
        page: replace(
            setup, page_size=page, capacity_bytes=setup.capacity_bytes * (page // setup.page_size)
        )
        for page in PAGE_SIZES
    }
    table = run_once(benchmark, _normalized_sums, setups)

    print_report(render_series(
        "Figure 22(b): normalized read latency vs flash page size (lower is better)",
        {f"{page // 1024} KB pages": {s: round(v, 3) for s, v in row.items()}
         for page, row in table.items()},
        column_order=("DFTL", "SFTL", "LeaFTL"),
    ))
    for page, row in table.items():
        assert row["LeaFTL"] <= 1.05, f"LeaFTL slower than DFTL at page size {page}"
