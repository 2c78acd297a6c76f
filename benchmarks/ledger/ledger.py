"""Orchestration: child processes in, named metrics out.

:func:`run_ledger` is the one measuring routine.  ``python -m
benchmarks.ledger`` calls it for every workload and both halves (end-to-end
and per-layer); ``run.py``, the PR driver's entry, calls it for one workload
and one half per invocation.  Repeat count, micro slice and telemetry-cost
runs are the constants below in both, so ``compare`` and the driver judge
the same numbers against the same bounds.

Every replay runs in a fresh child process, one at a time.  Untraced
repeats go round-robin across the workloads asked for, so machine drift
hits all of them alike.
"""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from benchmarks.ledger import spec
from benchmarks.ledger.measure import SIM_METRICS, in_child

#: Seconds of replay one workload's untraced repeats must add up to: the
#: ``run_seconds`` of ``BENCHMARK.json``, which the driver passes back as
#: ``--seconds``.  Repeats are made until that much is measured, at least
#: MIN_REPEATS and at most MAX_REPEATS.  A replay takes 3.3-3.6 s here when
#: the machine is quiet and up to 5.5 s when it is not: five repeats in a
#: quiet hour, four in a slow one, which keeps a driver run near 25 s.
RUN_SECONDS = 15.0
MIN_REPEATS = 4
MAX_REPEATS = 5
#: Seconds per slice of a micro benchmark (each is the median of 5 slices).
MICRO_SLICE_S = 0.1
#: The four telemetry-cost replays (``obs.*``) run ``steady_mixed`` at this
#: share of the run's scale: enough for a ratio, short enough for a driver run.
OBS_SCALE = 0.25
OBS_MODES = ("off", "trace", "metrics", "on")

Child = Callable[[Mapping[str, Any]], Dict[str, Any]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------- #
# Assembling one workload's metrics from its child results
# --------------------------------------------------------------------------- #
def end_to_end_of(plains: Sequence[Mapping[str, Any]], problems: List[str]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics from the untraced repeats.

    A host metric's ``value`` is its best repeat, not the median.  The
    replay is deterministic and single-threaded, so whatever else the
    machine does can only add CPU seconds to it, and here it does so in
    phases about a minute long that cover every repeat of a run (README.md
    has the measurements).  Median and quartiles are recorded beside it.
    """
    first = plains[0]
    name = first["workload"]
    for repeat, plain in enumerate(plains[1:], start=1):
        if plain["digest"] != first["digest"]:
            problems.append(f"{name}: repeat {repeat} replayed a different request list")
        for metric in SIM_METRICS:
            if plain["sim"][metric] != first["sim"][metric]:
                problems.append(
                    f"{name}: simulated {metric} differs between repeats "
                    f"({first['sim'][metric]!r} vs {plain['sim'][metric]!r})"
                )
    for repeat, plain in enumerate(plains):
        if plain["error"]:
            problems.append(f"{name}: repeat {repeat} raised {plain['error']}")
        problems.extend(f"{name}: counter self-check: {line}" for line in plain["self_check"])

    attempted = first["requests_attempted"] + first["audited"]
    failed = (
        max(p["requests_attempted"] - p["requests_completed"] for p in plains)
        + first["audit_failure_count"]
    )
    metrics: Dict[str, Dict[str, Any]] = {}
    for definition in spec.END_TO_END:
        if definition.name == "ops_failed_share":
            values = [failed / attempted]
        elif definition.clock == "host":
            values = [plain["host"][definition.name] for plain in plains]
        else:
            values = [first["sim"][definition.name]]
        q1, median, q3 = quartiles(values)
        metrics[definition.name] = {
            "value": max(values) if definition.better == "higher" else min(values),
            "unit": definition.unit,
            "clock": definition.clock,
            "better": definition.better,
            "bound": definition.bound,
            "values": values,
            "n": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
        }
    metrics["ops_failed_share"].update(
        attempted=attempted, failed=failed, audit_failures=first["audit_failures"]
    )
    return metrics


def obs_metrics(seed: int, scale: float, child: Child, problems: List[str]) -> Dict[str, float]:
    """Telemetry tax: replay seconds of each mode over the ``off`` run's."""
    runs = {
        mode: child(
            {"task": "plain", "workload": "steady_mixed", "seed": seed,
             "scale": scale * OBS_SCALE, "telemetry": mode}
        )
        for mode in OBS_MODES
    }
    off = runs["off"]
    unchanged = all(
        runs[mode]["sim"][metric] == off["sim"][metric]
        for mode in OBS_MODES
        for metric in SIM_METRICS
    )
    if not unchanged:
        problems.append("obs: a telemetry mode changed a simulated end-to-end metric")
    metrics = {
        f"obs.{mode}_slowdown": runs[mode]["replay_s"] / off["replay_s"]
        for mode in OBS_MODES
        if mode != "off"
    }
    metrics["obs.sim_metrics_unchanged"] = 1.0 if unchanged else 0.0
    return metrics


def per_layer_of(
    plain: Mapping[str, Any],
    traced: Mapping[str, Any],
    micro: Mapping[str, float],
    obs: Mapping[str, float],
    problems: List[str],
) -> Dict[str, float]:
    """Every per-layer metric of one workload, by name."""
    name = plain["workload"]
    if traced["error"]:
        problems.append(f"{name}: traced pass raised {traced['error']}")
    if traced["digest"] != plain["digest"]:
        problems.append(f"{name}: traced pass replayed a different request list")
    for metric in SIM_METRICS:
        if traced["sim"][metric] != plain["sim"][metric]:
            problems.append(
                f"{name}: traced pass changed simulated {metric} "
                f"({plain['sim'][metric]!r} -> {traced['sim'][metric]!r})"
            )
    rows = traced["rows"]
    # Spans are timed on the wall clock (a CPU-time read per span would cost
    # more than the spans), so their sum is held against the wall replay.
    attributed = sum(rows.values()) / traced["traced_replay_wall_s"]
    if attributed < spec.MIN_ATTRIBUTED_SHARE:
        problems.append(f"{name}: traced rows cover only {attributed:.4f} of the traced replay")
    values: Dict[str, float] = dict(plain["counts"])
    values.update(rows)
    values["ssd.reclaim_self_s"] = traced["reclaim_self_s"]
    values.update({key: float(count) for key, count in traced["calls"].items()})
    values.update(micro)
    values.update(obs)
    values["bench.trace_overhead_ratio"] = traced["traced_replay_s"] / plain["replay_s"]
    values["bench.attributed_share"] = attributed
    missing = sorted(set(spec.PER_LAYER_BY_NAME) - set(values))
    extra = sorted(set(values) - set(spec.PER_LAYER_BY_NAME))
    if missing or extra:
        raise AssertionError(f"per-layer metrics out of step with spec: missing {missing}, extra {extra}")
    return {metric.name: values[metric.name] for metric in spec.PER_LAYER}


def layer_shares(traced: Mapping[str, Any]) -> List[Tuple[str, float]]:
    """Self-time rows as shares of the traced replay, largest first."""
    total = traced["traced_replay_wall_s"]
    shares = [(row, seconds / total) for row, seconds in traced["rows"].items()]
    shares.append(("ssd.reclaim_self_s (by cause, overlaps the rows)", traced["reclaim_self_s"] / total))
    return sorted(shares, key=lambda item: -item[1])


# --------------------------------------------------------------------------- #
# The one measuring routine
# --------------------------------------------------------------------------- #
def untraced_repeats(
    workloads: Sequence[str], seed: int, seconds: float, scale: float, child: Child,
    log: Callable[[str], None],
) -> Dict[str, List[Dict[str, Any]]]:
    """Round-robin repeats until each workload has ``seconds`` of replay."""
    plains: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}

    def wanted(name: str) -> bool:
        done = plains[name]
        return len(done) < MIN_REPEATS or (
            len(done) < MAX_REPEATS and sum(plain["replay_s"] for plain in done) < seconds
        )

    while any(wanted(name) for name in workloads):
        for name in workloads:
            if wanted(name):
                log(f"untraced repeat {len(plains[name]) + 1}: {name}")
                plains[name].append(
                    child({"task": "plain", "workload": name, "seed": seed,
                           "scale": scale, "check": not plains[name]})
                )
    return plains


def run_ledger(
    seed: int,
    workloads: Sequence[str] = tuple(spec.WORKLOADS),
    seconds: float = RUN_SECONDS,
    end_to_end: bool = True,
    per_layer: bool = True,
    scale: float = 1.0,
    micro_slice_s: float = MICRO_SLICE_S,
    child: Child = in_child,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, Any]:
    """Measure ``workloads``; returns the result document (see README.md).

    ``end_to_end=False`` makes one untraced repeat per workload, which is
    all the per-layer half needs (counter deltas, the tracing overhead's
    base); the document's end-to-end entries then have ``n`` = 1.
    ``scale`` and ``micro_slice_s`` are for the smoke test.
    """
    problems: List[str] = []
    if end_to_end:
        plains = untraced_repeats(workloads, seed, seconds, scale, child, log)
    else:
        plains = {
            name: [child({"task": "plain", "workload": name, "seed": seed,
                          "scale": scale, "check": True})]
            for name in workloads
        }
    document: Dict[str, Any] = {
        "schema": 2,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        **environment(),
        "digests": {name: plains[name][0]["digest"] for name in workloads},
        "workloads": {
            name: {"why": spec.WORKLOADS[name], "end_to_end": end_to_end_of(plains[name], problems)}
            for name in workloads
        },
        "problems": problems,
    }
    if per_layer:
        log("micro benchmarks")
        micro = child({"task": "micro", "seed": seed, "slice_s": micro_slice_s})
        log("telemetry cost")
        obs = obs_metrics(seed, scale, child, problems)
        for name in workloads:
            log(f"traced pass: {name}")
            traced = child({"task": "traced", "workload": name, "seed": seed, "scale": scale})
            document["workloads"][name].update(
                per_layer=per_layer_of(plains[name][0], traced, micro, obs, problems),
                layer_shares=layer_shares(traced),
                host_pages=traced["host_pages"],
                traced_replay_s=traced["traced_replay_s"],
                traced_replay_wall_s=traced["traced_replay_wall_s"],
                spans=traced["spans"],
            )
    return document


def driver_result(document: Mapping[str, Any], workload: str, trace: bool) -> Dict[str, Any]:
    """The JSON object ``run.py`` prints last: one workload, one half."""
    result = document["workloads"][workload]
    end_to_end = result["end_to_end"]
    if trace:
        values = dict(result["per_layer"])
        values.update({name: end_to_end[name]["value"] for name in spec.ZERO_VALUED})
    else:
        values = {
            name: entry["value"] for name, entry in end_to_end.items()
            if name not in spec.ZERO_VALUED
        }
    failed = end_to_end["ops_failed_share"]["failed"] + len(document["problems"])
    return {
        "correct": failed == 0,
        "attempted": end_to_end["ops_failed_share"]["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]} for name, value in values.items()
        },
    }
