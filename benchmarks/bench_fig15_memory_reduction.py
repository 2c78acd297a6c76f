"""Figure 15: mapping-table size reduction of LeaFTL vs DFTL and SFTL.

The paper reports a 7.5-37.7x reduction over DFTL and up to 5.3x (2.9x on
average) over SFTL with gamma = 0.  The synthetic workload stand-ins give
smaller absolute factors (the printed table is the record) but the same
ordering: LeaFTL < SFTL < DFTL for every workload.
"""

from __future__ import annotations

from repro.analysis.memory import format_bytes
from repro.analysis.report import print_report, render_table
from repro.experiments.common import SCHEMES, project, scheme_grid
from repro.experiments.memory import average_reduction, memory_setup

from benchmarks.conftest import CORE_SIMULATOR_WORKLOADS, memory_scale, run_once


def test_fig15_mapping_table_reduction(benchmark):
    setup = memory_setup(request_scale=memory_scale())
    grid = run_once(benchmark, scheme_grid, CORE_SIMULATOR_WORKLOADS, SCHEMES, setup)
    footprints = project(grid, "mapping_full_bytes")

    rows = []
    for workload, by_scheme in footprints.items():
        rows.append([
            workload,
            format_bytes(by_scheme["DFTL"]),
            format_bytes(by_scheme["SFTL"]),
            format_bytes(by_scheme["LeaFTL"]),
            round(by_scheme["DFTL"] / by_scheme["LeaFTL"], 1),
            round(by_scheme["SFTL"] / by_scheme["LeaFTL"], 1),
        ])
    print_report(render_table(
        ["workload", "DFTL", "SFTL", "LeaFTL", "reduction vs DFTL", "reduction vs SFTL"],
        rows, title="Figure 15: mapping table footprint (gamma = 0)"))

    print(f"average reduction vs DFTL: {average_reduction(footprints, 'DFTL'):.1f}x "
          f"(paper: 7.5-37.7x)")
    print(f"average reduction vs SFTL: {average_reduction(footprints, 'SFTL'):.1f}x "
          f"(paper: 2.9x average)")

    for workload, by_scheme in footprints.items():
        assert by_scheme["LeaFTL"] < by_scheme["SFTL"] < by_scheme["DFTL"], workload
    assert average_reduction(footprints, "DFTL") > 3.0
    assert average_reduction(footprints, "SFTL") > 1.3
