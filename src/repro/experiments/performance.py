"""The aged-device GC studies behind the performance figures.

The paper's performance figures (16-18, 21-25) are grids of memoised cells
(:func:`repro.experiments.common.scheme_grid` / ``axis_grid``) run at
``benchmarks/conftest.perf_setup``; each ``benchmarks/bench_figNN`` file
projects its figure out of the grid.  "Normalized performance" follows the
paper's convention (lower is better, DFTL = 1.0) on the mean *read* latency,
because host writes are absorbed by the controller write buffer in every
scheme and the benefit of a smaller mapping table — a larger data cache and
fewer translation-page fetches — materialises on the read path.

What lives here are the two studies that are not workload-trace cells: the
steady-state GC sweeps on a preconditioned device.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.experiments.common import AGING_SEED, ExperimentSetup, aged_device

#: Seed of the measured steady-state mix both studies replay.
WORKLOAD_SEED = 23

#: Device of the steady-state GC studies.  Small blocks (64 pages) on 8
#: channels keep the over-provisioning knob meaningful: the physical size is
#: rounded up to whole blocks per channel, and with the paper's 256-page
#: blocks a small device would quantise every OP ratio to nearly the same
#: block count.
AGING_DEVICE = ExperimentSetup(
    capacity_bytes=48 * 1024 * 1024, pages_per_block=64, channels=8
)


def aging_sweep(
    op_ratios: Sequence[float] = (0.08, 0.16, 0.28),
    policies: Sequence[str] = ("greedy", "cost_benefit", "d_choices"),
    num_requests: int = 6000,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """policy -> over-provisioning ratio -> steady-state GC metrics.

    Each cell builds a LeaFTL device (sync GC, depth 1) with the given
    over-provisioning ratio and victim policy, ages it into steady state with
    :func:`repro.experiments.common.precondition` (sequential fill + skewed
    overwrites), then replays an overwrite-heavy Zipf mix and reports:

    * ``waf`` — write amplification during the measured phase.  The
      expected trend (the fig25-style steady-state claim): WAF falls as
      over-provisioning grows, for every policy, because GC victims have
      more time to shed valid pages before space runs out;
    * ``gc_page_writes`` / ``gc_invocations`` — raw reclaim volume;
    * ``read_p99_us`` — tail read latency including GC interference;
    * ``gc_write_throttle_us`` — time host writes stalled below the hard
      watermark.
    """
    table: Dict[str, Dict[float, Dict[str, float]]] = {}
    for policy in policies:
        row: Dict[float, Dict[str, float]] = {}
        for op_ratio in op_ratios:
            setup = replace(AGING_DEVICE, overprovisioning=op_ratio, gc_policy=policy)
            ssd, requests = aged_device(
                setup, num_requests, aging_seed=AGING_SEED, workload_seed=WORKLOAD_SEED
            )
            stats = ssd.run(requests)
            row[op_ratio] = {
                "waf": stats.write_amplification,
                "gc_page_writes": float(stats.gc_page_writes),
                "gc_invocations": float(stats.gc_invocations),
                "read_p99_us": stats.read_latency.percentile(99),
                "gc_write_throttle_us": stats.gc_write_throttle_us,
            }
        table[policy] = row
    return table


def gc_mode_comparison(num_requests: int = 6000) -> Dict[str, Dict[str, float]]:
    """gc_mode -> tail-latency/WAF metrics on a contended aged device.

    Replays the identical steady-state workload at queue depth 8 (greedy
    victims, 12 % over-provisioning, LeaFTL) with the classic synchronous
    reclaim loop and with the background GC pipeline.  Background GC
    migrates one victim at a time between host requests, so foreground
    reads stall behind at most one migration stage instead of a whole
    multi-victim reclaim burst — the p99 read latency drops sharply while
    WAF stays comparable (collection is deferred, not skipped).
    """
    table: Dict[str, Dict[str, float]] = {}
    for gc_mode in ("sync", "background"):
        setup = replace(AGING_DEVICE, overprovisioning=0.12, gc_mode=gc_mode, queue_depth=8)
        ssd, requests = aged_device(
            setup, num_requests, aging_seed=AGING_SEED, workload_seed=WORKLOAD_SEED
        )
        stats = ssd.run(requests)
        table[gc_mode] = {
            "read_mean_us": stats.read_latency.mean_us,
            "read_p99_us": stats.read_latency.percentile(99),
            "read_stall_us": stats.read_stall_us,
            "waf": stats.write_amplification,
            "gc_page_writes": float(stats.gc_page_writes),
            "gc_background_runs": float(stats.gc_background_runs),
            "gc_write_throttle_us": stats.gc_write_throttle_us,
        }
    return table
