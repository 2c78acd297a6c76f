"""Ablation: LPA-sorted buffer flush (Section 3.3, Figure 7).

LeaFTL sorts the write buffer by LPA before programming so that ascending
LPAs receive ascending PPAs.  Disabling the sort should noticeably increase
the number of learned segments (and therefore the mapping-table size).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.memory import format_bytes
from repro.analysis.report import print_report, render_table
from repro.experiments.common import run_experiment
from repro.experiments.memory import memory_setup

from benchmarks.conftest import memory_scale, run_once

WORKLOADS = ("MSR-hm", "FIU-mail")


def test_ablation_sorted_flush(benchmark):
    def run_both():
        results = {}
        for workload in WORKLOADS:
            per_mode = {}
            for sorted_flush in (True, False):
                setup = replace(
                    memory_setup(gamma=0, request_scale=memory_scale()),
                    sort_buffer_on_flush=sorted_flush,
                )
                per_mode[sorted_flush] = run_experiment(workload, "LeaFTL", setup)
            results[workload] = per_mode
        return results

    results = run_once(benchmark, run_both)

    rows = []
    for workload, per_mode in results.items():
        sorted_bytes = per_mode[True].mapping_full_bytes
        unsorted_bytes = per_mode[False].mapping_full_bytes
        rows.append([
            workload,
            format_bytes(sorted_bytes),
            format_bytes(unsorted_bytes),
            round(unsorted_bytes / max(1, sorted_bytes), 2),
        ])
    print_report(render_table(
        ["workload", "sorted flush", "unsorted flush", "growth without sorting"],
        rows, title="Ablation: LPA-sorted write-buffer flush (Section 3.3)"))

    for workload, per_mode in results.items():
        assert per_mode[True].mapping_full_bytes < per_mode[False].mapping_full_bytes, workload
