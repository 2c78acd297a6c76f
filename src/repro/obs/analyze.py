"""Turn telemetry artifacts into explanations: attribution, diffs, health.

:mod:`repro.obs` collects *what happened* — request spans, gauge series,
counter snapshots.  This module answers *why*:

* :func:`request_spans` / :func:`attribute_requests` — walk each completed
  request's trace span into an exact additive critical-path breakdown
  (queue/arbitration wait, translation, DRAM service, NAND service, GC
  interference, channel contention, flush backpressure, misprediction
  extra reads) and aggregate per-percentile attribution tables: "the p99
  read spends 78% of its latency waiting on GC".
* :func:`tail_blame` — cluster the top-k slowest requests by their
  dominant component, naming the subsystem responsible for the tail.
* :func:`diff_counters` / :func:`diff_metrics` / :func:`diff_runs` — a
  thresholded, structured regression report between two runs' counter
  snapshots (reusing :meth:`repro.obs.registry.CounterSnapshot.delta`)
  and metric series aligned on sim-time.
* :func:`namespace_scorecard` — per-namespace SLO health: burn rate
  against an error budget, violation windows over sim-time, and device
  saturation gauges from the metrics series.

Everything here is pure post-processing over artifacts (or live collector
objects): no simulator state is touched, outputs contain no wall-clock
timestamps or absolute paths, and every aggregate iterates in sorted or
canonical-component order — two same-seed runs analyze to byte-identical
JSON.  The exactness contract: for every request span, the components
(including the explicit ``other_us`` residual) sum to its end-to-end
latency up to float rounding; the residual itself stays within a few ULPs
because the device records components from the same additions that built
the latency.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ssd.stats import nearest_rank

#: Component -> human-readable label for rendered reports, in canonical
#: component order (report columns, tie-breaks, merge order).
COMPONENT_LABELS: Dict[str, str] = {
    "queue_wait_us": "queue/arbitration wait",
    "translate_us": "translation I/O",
    "dram_us": "DRAM service",
    "nand_us": "NAND service",
    "chan_wait_us": "channel contention",
    "gc_wait_us": "GC interference",
    "flush_wait_us": "flush backpressure",
    "extra_read_us": "misprediction extra reads",
    "other_us": "other/residual",
}
COMPONENT_ORDER: Tuple[str, ...] = tuple(COMPONENT_LABELS)

#: SLO error budget: the tolerated violation fraction.  A burn rate of
#: 1.0 means violations arrive exactly at budget; >1 eats into it.
SLO_ERROR_BUDGET = 0.01

#: Relative-change reporting threshold of the run differ, and the absolute
#: movement below which a counter counts as unchanged (float noise).
DIFF_THRESHOLD = 0.05
DIFF_ABS_FLOOR = 1e-9

#: How many of the slowest requests the tail-blame clustering takes.
TAIL_K = 12

#: Violation-window width (sim-us) of the scorecard.
WINDOW_US = 1000.0

#: Latency percentiles of the attribution tables (the ``p<N>`` levels).
PERCENTILES = (50.0, 95.0, 99.0)


class ArtifactError(ValueError):
    """A telemetry artifact is missing, truncated or malformed."""


# --------------------------------------------------------------------------- #
# Artifact loading
# --------------------------------------------------------------------------- #
def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: invalid JSON ({exc})") from exc


def load_trace(path: str) -> List[Any]:
    """The ``traceEvents`` list of a Chrome trace JSON file."""
    payload = _load_json(path)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        raise ArtifactError(f"{path}: no traceEvents list")
    return events


def load_metrics(path: str) -> Dict[str, Any]:
    """A ``metrics.json`` payload: ``{"series": {column: [...]}, ...}``."""
    payload = _load_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("series"), dict):
        raise ArtifactError(f"{path}: no series object")
    return payload


def load_counters(path: str) -> Dict[str, Any]:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path}: not a counter mapping")
    return payload


#: Artifact key -> (file name, loader), in ``write_artifacts`` order.
_ARTIFACT_LOADERS = {
    "trace_events": ("trace.json", load_trace),
    "metrics": ("metrics.json", load_metrics),
    "counters": ("counters.json", load_counters),
}


def load_artifacts(dirpath: str) -> Dict[str, Any]:
    """Load a telemetry artifact directory written by ``write_artifacts``.

    Returns ``{"trace_events": [...] | None, "metrics": {...} | None,
    "counters": {...} | None}`` — each ``None`` when the run did not
    produce that artifact.  Raises :class:`ArtifactError` when the
    directory does not exist, holds no artifacts at all, or any present
    artifact fails to parse.
    """
    if not os.path.isdir(dirpath):
        raise ArtifactError(f"{dirpath}: not a directory")
    out: Dict[str, Any] = {}
    for key, (filename, load) in _ARTIFACT_LOADERS.items():
        path = os.path.join(dirpath, filename)
        out[key] = load(path) if os.path.exists(path) else None
    if all(value is None for value in out.values()):
        raise ArtifactError(
            f"{dirpath}: no telemetry artifacts "
            "(expected trace.json / metrics.json / counters.json)"
        )
    return out


# --------------------------------------------------------------------------- #
# Span extraction
# --------------------------------------------------------------------------- #
def _thread_names(events: Sequence[Mapping[str, Any]]) -> Dict[Any, str]:
    names: Dict[Any, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            args = event.get("args") or {}
            names[event.get("tid")] = str(args.get("name", ""))
    return names


def _ordered_components(components: Mapping[str, float]) -> Dict[str, float]:
    """Canonical component order first, then any unknown keys sorted."""
    ordered: Dict[str, float] = {}
    for key in COMPONENT_ORDER:
        if key in components:
            ordered[key] = float(components[key])
    for key in sorted(components):
        if key not in ordered:
            ordered[key] = float(components[key])
    return ordered


def request_spans(events: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Completed request spans with exact additive component breakdowns.

    Walks the Chrome trace-event list for B/E pairs on ``io-slot-*``
    tracks.  Each returned span carries::

        op            "R" / "W"
        queue         namespace name (None on single-queue replays)
        start_us      issue timestamp (device clock)
        device_us     in-device latency (span duration)
        latency_us    end-to-end latency = queue wait + device latency
        components    ordered component -> us dict summing to latency_us

    ``components`` always includes an ``other_us`` residual — the span
    duration minus the device-recorded components — so the breakdown sums
    to the end-to-end latency by construction even for traces recorded
    without device breakdowns (there the whole duration is ``other_us``).
    """
    names = _thread_names(events)
    open_spans: Dict[Any, Mapping[str, Any]] = {}
    spans: List[Dict[str, Any]] = []
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        tid = event.get("tid")
        if not names.get(tid, "").startswith("io-slot-"):
            continue
        if phase == "B":
            open_spans[tid] = event
            continue
        begin = open_spans.pop(tid, None)
        if begin is None:
            continue
        args = begin.get("args") or {}
        device_us = float(event.get("ts", 0.0)) - float(begin.get("ts", 0.0))
        queue_wait = float(args.get("queue_wait_us", 0.0))
        breakdown = args.get("breakdown") or {}
        components: Dict[str, float] = {}
        if queue_wait > 0.0:
            components["queue_wait_us"] = queue_wait
        for key, value in breakdown.items():
            components[key] = components.get(key, 0.0) + float(value)
        recorded = math.fsum(float(v) for v in breakdown.values())
        components["other_us"] = device_us - recorded
        spans.append(
            {
                "op": str(begin.get("name", "?")),
                "queue": args.get("queue"),
                "start_us": float(begin.get("ts", 0.0)),
                "device_us": device_us,
                "latency_us": queue_wait + device_us,
                "components": _ordered_components(components),
            }
        )
    return spans


def recovery_summary(events: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Recovery-phase spans (``recovery_scan`` / ``recovery_replay``)."""
    names = _thread_names(events)
    phases: List[Dict[str, Any]] = []
    for event in events:
        if event.get("ph") != "X" or names.get(event.get("tid")) != "recovery":
            continue
        entry: Dict[str, Any] = {
            "phase": str(event.get("name", "?")),
            "start_us": float(event.get("ts", 0.0)),
            "makespan_us": float(event.get("dur", 0.0)),
        }
        args = event.get("args")
        if args:
            entry.update({key: args[key] for key in sorted(args)})
        phases.append(entry)
    return phases


def gc_stage_summary(
    events: Sequence[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Total occupancy per background-GC pipeline stage (``gc`` track)."""
    names = _thread_names(events)
    totals: Dict[str, Dict[str, float]] = {}
    open_begin: Dict[str, float] = {}
    for event in events:
        if names.get(event.get("tid")) != "gc":
            continue
        phase = event.get("ph")
        name = str(event.get("name", "?"))
        if phase == "B":
            open_begin[name] = float(event.get("ts", 0.0))
        elif phase == "E" and name in open_begin:
            start = open_begin.pop(name)
            entry = totals.setdefault(name, {"count": 0.0, "total_us": 0.0})
            entry["count"] += 1.0
            entry["total_us"] += float(event.get("ts", 0.0)) - start
    return {name: totals[name] for name in sorted(totals)}


# --------------------------------------------------------------------------- #
# Attribution
# --------------------------------------------------------------------------- #
def _component_means(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-component mean microseconds and share of mean latency."""
    if not spans:
        return {}
    count = len(spans)
    sums: Dict[str, float] = {}
    for span in spans:
        for key, value in span["components"].items():
            sums[key] = sums.get(key, 0.0) + value
    mean_total = math.fsum(s["latency_us"] for s in spans) / count
    out: Dict[str, Dict[str, float]] = {}
    for key in _ordered_components(sums):
        mean = sums[key] / count
        share = mean / mean_total if mean_total > 0.0 else 0.0
        out[key] = {"mean_us": mean, "share": share}
    return out


def dominant_component(components: Mapping[str, float]) -> str:
    """The largest component; canonical order breaks exact ties."""
    ordered = _ordered_components(components)
    return max(ordered, key=ordered.__getitem__, default="other_us")


def _level(latency_us: float, cohort: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """One attribution level: a cohort's mean components and the largest."""
    components = _component_means(cohort)
    return {
        "latency_us": latency_us,
        "count": len(cohort),
        "components": components,
        "dominant": dominant_component(
            {k: v["mean_us"] for k, v in components.items()}
        ),
    }


def attribute_requests(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Per-op, per-percentile attribution tables.

    For each op, the ``all`` level averages every request; each ``p<N>``
    level averages the requests at or above that latency percentile
    (nearest rank) — "what does the p99 cohort spend its time on".
    """
    ops: Dict[str, Any] = {}
    for op in sorted({str(s["op"]) for s in spans}):
        group = sorted(
            (s for s in spans if s["op"] == op),
            key=lambda s: (s["latency_us"], s["start_us"]),
        )
        latencies = [s["latency_us"] for s in group]
        levels = {"all": _level(math.fsum(latencies) / len(latencies), group)}
        for pct in PERCENTILES:
            threshold = latencies[nearest_rank(len(latencies), pct)]
            levels[f"p{pct:g}"] = _level(
                threshold, [s for s in group if s["latency_us"] >= threshold]
            )
        ops[op] = {"count": len(group), "levels": levels}
    return {"requests": len(spans), "ops": ops}


def tail_blame(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Cluster the :data:`TAIL_K` slowest requests by their dominant component."""
    ranked = sorted(
        spans, key=lambda s: (-s["latency_us"], s["start_us"], s["op"])
    )[:TAIL_K]
    details: List[Dict[str, Any]] = []
    clusters: Dict[str, List[Dict[str, Any]]] = {}
    for span in ranked:
        components = span["components"]
        dominant = dominant_component(components)
        latency = span["latency_us"]
        share = components.get(dominant, 0.0) / latency if latency > 0.0 else 0.0
        detail = {
            "op": span["op"],
            "queue": span["queue"],
            "start_us": span["start_us"],
            "latency_us": latency,
            "dominant": dominant,
            "dominant_share": share,
            "components": dict(components),
        }
        details.append(detail)
        clusters.setdefault(dominant, []).append(detail)
    cluster_rows = [
        {
            "component": component,
            "count": len(members),
            "mean_latency_us": math.fsum(m["latency_us"] for m in members)
            / len(members),
            "mean_share": math.fsum(m["dominant_share"] for m in members)
            / len(members),
            "ops": sorted({m["op"] for m in members}),
            "queues": sorted({str(m["queue"]) for m in members if m["queue"]}),
        }
        for component, members in clusters.items()
    ]
    cluster_rows.sort(key=lambda row: (-row["count"], row["component"]))
    return {"top_k": len(ranked), "clusters": cluster_rows, "requests": details}


# --------------------------------------------------------------------------- #
# SLO / health scorecard
# --------------------------------------------------------------------------- #
def _merge_windows(buckets: Mapping[int, int]) -> List[Dict[str, float]]:
    """Merge adjacent violating buckets into ``[start, end)`` windows."""
    windows: List[Dict[str, float]] = []
    for bucket in sorted(buckets):
        count = float(buckets[bucket])
        start = bucket * WINDOW_US
        if windows and windows[-1]["end_us"] == start:
            windows[-1]["end_us"] = start + WINDOW_US
            windows[-1]["violations"] += count
        else:
            windows.append(
                {"start_us": start, "end_us": start + WINDOW_US, "violations": count}
            )
    return windows


def _saturation(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """Device saturation gauges summarized from the metrics series."""
    series: Mapping[str, List[float]] = metrics.get("series", {})
    out: Dict[str, Any] = {"samples": len(series.get("time_us", []))}
    free = series.get("free_block_ratio")
    if free:
        out["min_free_block_ratio"] = min(free)
    gc_running = series.get("gc_running")
    if gc_running:
        out["gc_running_fraction"] = sum(
            1 for value in gc_running if value > 0.0
        ) / len(gc_running)
    backlog = series.get("gc_backlog")
    if backlog:
        out["max_gc_backlog"] = max(backlog)
    fill = series.get("write_buffer_fill")
    if fill:
        out["max_write_buffer_fill"] = max(fill)
    busy_peaks = [
        max(values)
        for column, values in sorted(series.items())
        if column.startswith("ch") and column.endswith("_busy_frac") and values
    ]
    if busy_peaks:
        out["max_channel_busy_frac"] = max(busy_peaks)
    inflight = {
        column[len("ns_") : -len("_inflight")]: max(values)
        for column, values in sorted(series.items())
        if column.startswith("ns_") and column.endswith("_inflight") and values
    }
    if inflight:
        out["max_inflight"] = inflight
    return out


def namespace_scorecard(
    counters: Mapping[str, float],
    gauges: Optional[Mapping[str, float]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    spans: Optional[Sequence[Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Per-namespace SLO health from a counter snapshot (or delta).

    ``counters`` supplies the activity counts (pass a measured-phase
    *delta* to score just that phase); ``gauges`` supplies configuration
    gauges (SLO thresholds, weights) that a delta would zero out —
    defaults to ``counters`` itself, which is right for absolute
    snapshots.  ``spans`` (from :func:`request_spans`) adds sim-time
    violation windows; ``metrics`` adds device saturation gauges.
    """
    gauges = counters if gauges is None else gauges
    names = sorted(
        {
            key.split(".")[1]
            for key in counters
            if key.startswith("ns.") and key.count(".") >= 2
        }
    )
    card: Dict[str, Any] = {"error_budget": SLO_ERROR_BUDGET, "namespaces": {}}
    for name in names:
        prefix = f"ns.{name}."

        def count(field: str) -> float:
            return float(counters.get(prefix + field, 0.0))

        completed = count("completed")
        violations = count("slo_violations_read")
        violation_rate = violations / completed if completed > 0.0 else 0.0
        burn_rate = violation_rate / SLO_ERROR_BUDGET
        if burn_rate < 1.0:
            status = "ok"
        elif burn_rate < 10.0:
            status = "warning"
        else:
            status = "critical"
        slo_read = float(gauges.get(prefix + "slo_read_us", 0.0))
        entry: Dict[str, Any] = {
            "submitted": count("submitted"),
            "completed": completed,
            "slo_read_us": slo_read,
            "slo_violations": violations,
            "violation_rate": violation_rate,
            "burn_rate": burn_rate,
            "status": status,
            "mean_queue_wait_us": (
                count("queue_wait_us") / completed if completed > 0.0 else 0.0
            ),
            "read_p99_us": count("read_latency.p99_us"),
            "write_p99_us": count("write_latency.p99_us"),
            "rate_limit_deferrals": count("rate_limit_deferrals"),
        }
        if spans:
            buckets: Dict[int, int] = {}
            for span in spans:
                if span.get("queue") != name or span["op"] != "R":
                    continue
                if slo_read <= 0.0 or span["latency_us"] <= slo_read:
                    continue
                finish = span["start_us"] + span["device_us"]
                bucket = int(finish // WINDOW_US)
                buckets[bucket] = buckets.get(bucket, 0) + 1
            entry["violation_windows"] = _merge_windows(buckets)
        card["namespaces"][name] = entry
    if metrics is not None:
        card["saturation"] = _saturation(metrics)
    return card


# --------------------------------------------------------------------------- #
# The analyzer entry point
# --------------------------------------------------------------------------- #
def analyze_artifacts(artifacts: Mapping[str, Any]) -> Dict[str, Any]:
    """One structured report over a loaded artifact directory.

    ``artifacts`` is :func:`load_artifacts` output (or a dict with live
    ``trace_events`` / ``metrics`` / ``counters`` values).  The report
    contains no paths or wall-clock data, so two same-seed runs produce
    byte-identical JSON.
    """
    events = artifacts.get("trace_events") or []
    counters = artifacts.get("counters")
    metrics = artifacts.get("metrics")
    spans = request_spans(events)
    report: Dict[str, Any] = {
        "schema": "repro.obs.analyze/1",
        "requests": attribute_requests(spans),
        "tail_blame": tail_blame(spans),
        "recovery": recovery_summary(events),
        "gc_stages": gc_stage_summary(events),
    }
    if counters is not None:
        report["scorecard"] = namespace_scorecard(
            counters, metrics=metrics, spans=spans
        )
    return report


# --------------------------------------------------------------------------- #
# Run differ
# --------------------------------------------------------------------------- #
def _relative(delta: float, base: float) -> Optional[float]:
    return delta / abs(base) if base != 0.0 else None


def _significant(rows: List[Dict[str, Any]], name_key: str) -> List[Dict[str, Any]]:
    """The rows whose ``rel`` reaches :data:`DIFF_THRESHOLD`, worst first.

    A ``rel`` of ``None`` (the base was zero, so any appearance is
    significant) always passes and sorts ahead of every finite change;
    ``name_key`` breaks ties.
    """
    kept = [
        row for row in rows if row["rel"] is None or abs(row["rel"]) >= DIFF_THRESHOLD
    ]
    kept.sort(
        key=lambda row: (
            -(abs(row["rel"]) if row["rel"] is not None else math.inf),
            row[name_key],
        )
    )
    return kept


def diff_counters(
    base: Mapping[str, float], current: Mapping[str, float]
) -> Dict[str, Any]:
    """Thresholded counter diff: which counters moved, worst first.

    A counter is reported when it moved by more than
    :data:`DIFF_ABS_FLOOR` and either its base was zero or its relative
    change reaches :data:`DIFF_THRESHOLD`.  Rows sort by descending
    relative magnitude (new counters first), then key.
    """
    moved: List[Dict[str, Any]] = []
    keys = sorted(set(base) | set(current))
    for key in keys:
        base_value = float(base.get(key, 0.0))
        current_value = float(current.get(key, 0.0))
        delta = current_value - base_value
        if abs(delta) <= DIFF_ABS_FLOOR:
            continue
        moved.append(
            {
                "counter": key,
                "base": base_value,
                "current": current_value,
                "delta": delta,
                "rel": _relative(delta, base_value),
            }
        )
    return {
        "threshold": DIFF_THRESHOLD,
        "compared": len(keys),
        "changed": _significant(moved, "counter"),
    }


def diff_metrics(
    base: Optional[Mapping[str, Any]], current: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Diff two metric series aligned on shared ``time_us`` samples.

    Either side may be ``None`` (that run sampled no metrics): nothing
    aligns and nothing is reported.
    """
    base_series: Mapping[str, List[float]] = (base or {}).get("series", {})
    current_series: Mapping[str, List[float]] = (current or {}).get("series", {})
    base_times = base_series.get("time_us", [])
    current_times = current_series.get("time_us", [])
    shared = sorted(set(base_times) & set(current_times))
    base_index = {t: i for i, t in enumerate(base_times)}
    current_index = {t: i for i, t in enumerate(current_times)}
    moved: List[Dict[str, Any]] = []
    columns = sorted((set(base_series) & set(current_series)) - {"time_us"})
    for column in columns if shared else ():
        base_values = [base_series[column][base_index[t]] for t in shared]
        current_values = [current_series[column][current_index[t]] for t in shared]
        max_abs = max(
            abs(c - b) for b, c in zip(base_values, current_values)
        )
        if max_abs <= 0.0:
            continue
        base_mean = math.fsum(base_values) / len(shared)
        current_mean = math.fsum(current_values) / len(shared)
        delta = current_mean - base_mean
        moved.append(
            {
                "column": column,
                "base_mean": base_mean,
                "current_mean": current_mean,
                "delta_mean": delta,
                "rel": _relative(delta, base_mean),
                "max_abs_diff": max_abs,
            }
        )
    return {
        "threshold": DIFF_THRESHOLD,
        "aligned_samples": len(shared),
        "changed": _significant(moved, "column"),
    }


def diff_runs(dir_a: str, dir_b: str) -> Dict[str, Any]:
    """Structured regression report between two artifact directories.

    ``dir_a`` is the base run, ``dir_b`` the candidate.  Requires both
    runs to have ``counters.json``; metric series are compared when both
    runs sampled them.  The report carries no paths, so diffing a run
    against itself is byte-stable (and empty).
    """
    base = load_artifacts(dir_a)
    current = load_artifacts(dir_b)
    if base["counters"] is None or current["counters"] is None:
        raise ArtifactError("both runs need counters.json to diff")
    counters = diff_counters(base["counters"], current["counters"])
    metrics = diff_metrics(base["metrics"], current["metrics"])
    return {
        "schema": "repro.obs.diff/1",
        "threshold": DIFF_THRESHOLD,
        "significant": bool(counters["changed"] or metrics["changed"]),
        "counters": counters,
        "metrics": metrics,
    }
