"""Ablation: segment compaction interval (Section 3.7).

The paper compacts the learned table once per million writes and reports the
whole-table compaction takes ~4.1 ms of CPU time.  This ablation measures
(a) how much memory periodic compaction reclaims on an overwrite-heavy
workload and (b) how long one full compaction takes on the host CPU.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.memory import format_bytes
from repro.analysis.report import print_report, render_table
from repro.experiments.common import bench_scale, run_experiment
from repro.experiments.memory import memory_setup

from benchmarks.conftest import memory_scale, run_once

#: Mapped writes between compactions in the compacting cell.  The FIU-mail
#: cell makes about 20k mapped writes per unit of ``REPRO_BENCH_SCALE``, so
#: this compacts it three times at any scale; an interval past its writes
#: would never compact it and print the disabled row twice.
FREQUENT = max(1, round(5_000 * bench_scale()))


def test_ablation_compaction_interval(benchmark):
    def run_both():
        results = {}
        for label, interval in (("frequent", FREQUENT), ("disabled", 10**9)):
            setup = replace(
                memory_setup(gamma=0, request_scale=memory_scale()),
                compaction_interval_writes=interval,
            )
            results[label] = run_experiment("FIU-mail", "LeaFTL", setup)
        return results

    results = run_once(benchmark, run_both)

    rows = [
        [label, format_bytes(outcome.mapping_full_bytes), sum(outcome.segment_type_counts)]
        for label, outcome in results.items()
    ]
    print_report(render_table(
        ["compaction", "mapping table", "live segments"],
        rows, title=f"Ablation: segment compaction every {FREQUENT} writes "
        "(FIU-mail, overwrite-heavy)"))

    compacted, uncompacted = results["frequent"], results["disabled"]
    assert compacted.mapping_full_bytes <= uncompacted.mapping_full_bytes
    assert sum(compacted.segment_type_counts) < sum(uncompacted.segment_type_counts)

def test_ablation_compaction_latency(benchmark):
    """Wall-clock cost of one full-table compaction (paper: ~4.1 ms)."""
    # A table shaped like a replayed workload's; compact() is timed directly.
    from repro.config import LeaFTLConfig
    from repro.core.mapping_table import LogStructuredMappingTable

    table = LogStructuredMappingTable(LeaFTLConfig(gamma=0))
    import random

    rng = random.Random(0)
    ppa = 0
    for _ in range(300):
        start = rng.randrange(0, 50_000)
        lpas = sorted(set(start + rng.randrange(0, 128) for _ in range(64)))
        table.update([(lpa, ppa + i) for i, lpa in enumerate(lpas)])
        ppa += len(lpas)

    benchmark(table.compact)
    if benchmark.disabled:  # --benchmark-disable runs it once, untimed
        return
    compact_ms = benchmark.stats.stats.mean * 1e3
    print_report(render_table(
        ["metric", "value", "paper"],
        [["full compaction time (ms)", round(compact_ms, 2), "~4.1 ms (ARM)"]],
        title="Ablation: compaction latency"))
    assert compact_ms < 500
