"""One measurement of one workload, in this process.

``measure_plain`` is the untraced pass that feeds every end-to-end metric
and every ``[count]`` / ``[sim]`` / ``[gauge]`` per-layer metric;
``measure_traced`` is the extra replay with the layer wrappers installed.
Both run in a fresh child process when called through :func:`in_child`
(``python -m benchmarks.ledger.measure '<json task>'``), so no repeat
inherits the heap, the caches or the garbage of another.

Counters are taken **by delta** around the timed replay: a snapshot of
``device_snapshot(ssd, host)``, ``flash.counters`` and the per-channel bus
time immediately before and after it.  ``begin_measurement()`` resets only
``SSDStats``; the write buffer, cache, allocator, FTL and mapping-table
counters still hold the aging pass.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.registry import device_snapshot

from benchmarks.ledger import spec
from benchmarks.ledger.micro import run_micro
from benchmarks.ledger.tracing import LayerTracer
from benchmarks.ledger.workloads import Prepared, prepare

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Simulated end-to-end metrics: a repeat that disagrees on any of these
#: fails the run (the simulator is deterministic).
SIM_METRICS = tuple(m.name for m in spec.END_TO_END if m.clock == "sim" and m.name != "ops_failed_share")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class Snapshot:
    counters: Any
    flash: Dict[str, int]
    bus_us: List[float]

    @classmethod
    def take(cls, prepared: Prepared) -> "Snapshot":
        ssd = prepared.ssd
        return cls(
            counters=device_snapshot(ssd, prepared.host),
            flash=dataclasses.asdict(ssd.flash.counters),
            bus_us=[ssd.scheduler.bus_time_us(c) for c in range(ssd.config.channels)],
        )


def simulated_metrics(prepared: Prepared) -> Dict[str, float]:
    """The simulated-clock end-to-end metrics of a finished replay."""
    stats = prepared.ssd.stats
    if prepared.host is not None:
        # Open-loop tenants: latency counts from the arrival (due) time, per
        # command, which only the namespace recorder knows.
        reads = prepared.host.namespace("reader").stats.read_latency
    else:
        reads = stats.read_latency
    return {
        "sim_iops": _ratio(stats.requests_completed, stats.measured_time_us / 1e6),
        "sim_read_mean_us": reads.mean_us,
        "sim_read_p99_us": reads.percentile(99),
        "waf": stats.write_amplification,
        "mapping_bytes": float(prepared.ssd.ftl.full_mapping_bytes()),
        "misprediction_ratio": stats.misprediction_ratio,
        "exact_prediction_ratio": 1.0 - stats.misprediction_ratio,
    }


def layer_counts(
    prepared: Prepared, before: Snapshot, after: Snapshot, replay_s: float
) -> Dict[str, float]:
    """Every ``[count]`` / ``[sim]`` / ``[gauge]`` per-layer metric."""
    ssd = prepared.ssd
    d = after.counters.delta(before.counters)
    flash = {key: after.flash[key] - before.flash[key] for key in after.flash}
    bus_us = sum(a - b for a, b in zip(after.bus_us, before.bus_us))
    events = d["ssd.events_processed"]
    read_pages = d["ssd.host_read_pages"]
    table = ssd.ftl.table
    counts = {
        "core.compactions": d["leaftl.compactions"],
        "core.points_fitted_per_host_page": _ratio(
            d["mapping_table.mappings_learned"], d["ssd.host_write_pages"]
        ),
        "core.segments_per_batch": _ratio(
            d["mapping_table.segments_learned"], d["mapping_table.batches_learned"]
        ),
        "core.mean_segment_length": _ratio(
            d["mapping_table.mappings_learned"], d["mapping_table.segments_learned"]
        ),
        "core.levels_per_lookup": _ratio(
            d["mapping_table.lookup_levels_total"], d["mapping_table.lookups"]
        ),
        "core.approx_segment_share": _ratio(
            d["mapping_table.approximate_segments_learned"],
            d["mapping_table.segments_learned"],
        ),
        "core.mispredictions_per_lookup": _ratio(
            d["leaftl.mispredictions"], d["mapping_table.lookups"]
        ),
        "core.oob_correction_failures": d["leaftl.oob_correction_failures"],
        "core.crb_bytes": float(table.crb_bytes()),
        "core.segment_count": float(table.segment_count()),
        "flash.pages_programmed": float(flash["page_writes"]),
        "flash.pages_read": float(flash["page_reads"]),
        "flash.oob_reads": float(flash["oob_reads"]),
        "flash.blocks_erased": float(flash["block_erases"]),
        "flash.wear_imbalance": after.counters["device.wear_imbalance"],
        "sim.events_per_io": _ratio(events, d["ssd.requests_completed"]),
        "sim.host_us_per_event": _ratio(replay_s * 1e6, events),
        "sim.channel_utilization_mean": _ratio(
            bus_us, ssd.config.channels * ssd.stats.measured_time_us
        ),
        "ssd.gc_pages_moved_per_erase": _ratio(
            d["ssd.gc_page_writes"], d["ssd.gc_block_erases"]
        ),
        "ssd.gc_invocations": d["ssd.gc_invocations"],
        "ssd.gc_background_runs": d["ssd.gc_background_runs"],
        "ssd.gc_urgent_collections": d["ssd.gc_urgent_collections"],
        "ssd.wl_page_moves": d["ssd.wl_page_moves"],
        "ssd.gc_write_throttle_us": d["ssd.gc_write_throttle_us"],
        "ssd.read_stall_us": d["ssd.read_stall_us"],
        "ssd.cache_hit_ratio": _ratio(
            d["ssd.buffer_hits"] + d["ssd.cache_hits"],
            d["ssd.buffer_hits"] + d["ssd.cache_hits"] + d["ssd.flash_reads_for_host"],
        ),
        "ssd.buffer_hit_share": _ratio(d["ssd.buffer_hits"], read_pages),
        "ssd.buffer_flushes": d["ssd.buffer_flushes"],
        "ssd.flash_reads_per_host_read_page": _ratio(
            d["ssd.flash_reads_for_host"] + d["ssd.misprediction_extra_reads"], read_pages
        ),
        "host.max_outstanding": after.counters["ssd.max_outstanding_requests"],
        "host.reader_p99_us": 0.0,
        "host.reader_slo_miss_share": 0.0,
        "host.writer_mean_us": 0.0,
    }
    if prepared.host is not None:
        after_c = after.counters
        counts["host.reader_p99_us"] = after_c["ns.reader.read_latency.p99_us"]
        counts["host.reader_slo_miss_share"] = _ratio(
            after_c["ns.reader.slo_violations_read"], after_c["ns.reader.completed"]
        )
        counts["host.writer_mean_us"] = after_c["ns.writer.write_latency.mean_us"]
    return counts


def delta_self_check(before: Snapshot, after: Snapshot) -> List[str]:
    """The counter deltas must agree with each other, or the ledger lies.

    The replay starts and ends on an empty write buffer (aging and replay
    both end with a drain flush), which is what makes these exact.
    """
    d = after.counters.delta(before.counters)
    flash_writes = after.flash["page_writes"] - before.flash["page_writes"]
    expectations: List[Tuple[str, float, float]] = [
        ("write buffer empty before", before.counters["device.write_buffer_pages"], 0.0),
        ("write buffer empty after", after.counters["device.write_buffer_pages"], 0.0),
        ("write_buffer.writes == ssd.host_write_pages", d["write_buffer.writes"], d["ssd.host_write_pages"]),
        (
            "write_buffer.writes - overwrites == pages_flushed",
            d["write_buffer.writes"] - d["write_buffer.overwrites"],
            d["write_buffer.pages_flushed"],
        ),
        ("write_buffer.pages_flushed == ssd.data_page_writes", d["write_buffer.pages_flushed"], d["ssd.data_page_writes"]),
        ("cache.hits == ssd.cache_hits", d["cache.hits"], d["ssd.cache_hits"]),
        (
            "cache.lookups == host_read_pages - buffer_hits",
            d["cache.hits"] + d["cache.misses"],
            d["ssd.host_read_pages"] - d["ssd.buffer_hits"],
        ),
        ("mapping_table.mappings_learned == flash page programs", d["mapping_table.mappings_learned"], float(flash_writes)),
        ("flash page programs == ssd.total_flash_page_writes", float(flash_writes), d["ssd.total_flash_page_writes"]),
    ]
    return [
        f"{label}: {left:g} != {right:g}" for label, left, right in expectations if left != right
    ]


# --------------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------------- #
def audit(prepared: Prepared) -> Tuple[int, List[str]]:
    """Check the device's final state against the ledger's shadow set.

    Public APIs only.  Returns ``(LPAs audited, failures)``.  Run after the
    metrics are captured: it reads every written LPA, which perturbs the
    cache and the statistics.
    """
    ssd, flash, ftl = prepared.ssd, prepared.ssd.flash, prepared.ssd.ftl
    shadow = prepared.written_lpas
    failures: List[str] = []

    # 1. LPAs on VALID flash pages == the shadow set, one valid page each.
    live: Dict[int, int] = {}
    for block in range(ssd.config.total_blocks):
        for ppa in flash.valid_ppas_of_block(block):
            lpa = flash.lpa_of(ppa)
            if lpa is None or lpa in live:
                failures.append(f"valid page {ppa} holds lpa {lpa} (duplicate or none)")
            else:
                live[lpa] = ppa
    failures += [f"lpa {lpa} written but has no valid page" for lpa in sorted(shadow - live.keys())]
    failures += [f"lpa {lpa} valid on flash but never written" for lpa in sorted(live.keys() - shadow)]

    # 2. gamma > 0: every prediction within +-gamma of the page found on flash.
    if prepared.gamma > 0:
        for lpa, ppa in live.items():
            predicted = ftl.translate(lpa).ppa
            if predicted is None or abs(predicted - ppa) > prepared.gamma:
                failures.append(f"lpa {lpa}: predicted {predicted}, valid page {ppa}")

    # 3. Every written LPA reads back under strict=True.
    unmapped_before = ssd.stats.unmapped_reads
    for lpa in sorted(shadow):
        try:
            ssd.read(lpa)
        except Exception as error:  # the audit must report, not die
            failures.append(f"read of lpa {lpa} raised {type(error).__name__}: {error}")
    unmapped = ssd.stats.unmapped_reads - unmapped_before
    if unmapped:
        failures.append(f"{unmapped} audited reads were served as unmapped")
    return len(shadow), failures


# --------------------------------------------------------------------------- #
# The two passes
# --------------------------------------------------------------------------- #
def _timed_replay(prepared: Prepared) -> Tuple[float, float, Optional[str]]:
    """Run the timed region; returns ``(cpu seconds, wall seconds, error)``."""
    gc.collect()
    wall_started, cpu_started = time.perf_counter(), time.process_time()
    error: Optional[str] = None
    try:
        prepared.replay()
    except Exception as failure:  # counted as failed requests by the caller
        error = f"{type(failure).__name__}: {failure}"
    return (
        time.process_time() - cpu_started,
        time.perf_counter() - wall_started,
        error,
    )


def measure_plain(
    workload: str, seed: int, scale: float = 1.0, telemetry: str = "off", check: bool = False
) -> Dict[str, Any]:
    """Untraced pass: set up, snapshot, time the replay, snapshot, derive."""
    prepared = prepare(workload, seed, scale, telemetry)
    before = Snapshot.take(prepared)
    replay_s, replay_wall_s, error = _timed_replay(prepared)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = Snapshot.take(prepared)

    stats = prepared.ssd.stats
    completed = stats.requests_completed
    pages = stats.host_read_pages + stats.host_write_pages
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "digest": prepared.digest,
        "requests_attempted": prepared.requests,
        "requests_completed": completed,
        "host_pages": pages,
        "replay_s": replay_s,
        "replay_wall_s": replay_wall_s,
        "host": {
            "host_ios_per_s": _ratio(completed, replay_s),
            "host_pages_per_s": _ratio(pages, replay_s),
            "setup_s": prepared.setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "sim": simulated_metrics(prepared),
        "counts": layer_counts(prepared, before, after, replay_s),
        "self_check": delta_self_check(before, after),
        "error": error,
        "audited": 0,
        "audit_failure_count": 0,
        "audit_failures": [],
    }
    if check:
        audited, failures = audit(prepared)
        result.update(
            audited=audited, audit_failure_count=len(failures), audit_failures=failures[:20]
        )
    return result


def measure_traced(workload: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Traced pass: the same replay with the layer wrappers installed."""
    prepared = prepare(workload, seed, scale)
    tracer = LayerTracer()
    with tracer.installed():
        replay_s, replay_wall_s, error = _timed_replay(prepared)
    seconds = tracer.row_seconds()
    rows = {row: seconds.get(row, 0.0) for row in spec.SELF_TIME_ROWS}
    unknown = sorted(set(seconds) - set(rows))
    if unknown:
        raise AssertionError(f"spans charged to rows the spec does not list: {unknown}")
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "digest": prepared.digest,
        "traced_replay_s": replay_s,
        "traced_replay_wall_s": replay_wall_s,
        "host_pages": prepared.ssd.stats.host_read_pages + prepared.ssd.stats.host_write_pages,
        "sim": simulated_metrics(prepared),
        "rows": rows,
        "reclaim_self_s": tracer.reclaim_s,
        "calls": {
            "core.learn_calls": tracer.calls_of("LeaFTL.update_batch"),
            "core.lookup_calls": tracer.calls_of(
                "LeaFTL.translate", "LeaFTL.translate_range", "LeaFTL.resolve_misprediction"
            ),
            "sim.nand_reserve_calls": tracer.calls_of(
                "NANDScheduler.reserve", "NANDScheduler.reserve_run"
            ),
            "host.arbiter_picks": sum(
                count
                for row, count in zip(tracer.rows, tracer.calls)
                if row == "host.arbiter_self_s"
            ),
        },
        "spans": tracer.span_table(),
        "error": error,
    }
    return result


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
def run_task(task: Mapping[str, Any]) -> Dict[str, Any]:
    kind = task["task"]
    if kind == "plain":
        return measure_plain(
            task["workload"],
            task["seed"],
            task.get("scale", 1.0),
            task.get("telemetry", "off"),
            task.get("check", False),
        )
    if kind == "traced":
        return measure_traced(task["workload"], task["seed"], task.get("scale", 1.0))
    if kind == "micro":
        return run_micro(task["seed"], task["slice_s"])
    raise ValueError(f"unknown task {kind!r}")


def in_child(task: Mapping[str, Any], timeout_s: float = 170.0) -> Dict[str, Any]:
    """Run one task in a fresh interpreter and wait for it to end."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # A fixed hash seed keeps str-keyed dict layouts (and so host time)
    # comparable between children; the simulation does not depend on it.
    env["PYTHONHASHSEED"] = "0"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.measure", json.dumps(task)],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout_s,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"ledger child failed ({completed.returncode}) on {dict(task)}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m benchmarks.ledger.measure '<json task>'", file=sys.stderr)
        return 2
    print(json.dumps(run_task(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
