"""``python -m repro.obs`` — run, check, analyze and diff telemetry runs.

Four subcommands:

``run --scenario {multi_tenant,steady_state} --out DIR``
    Runs a named, GC-contended scenario with telemetry fully enabled and
    writes the artifacts into ``DIR``: ``trace.json`` (Chrome trace-event
    JSON — load in Perfetto), ``metrics.json`` (the sampled gauge
    time-series) and ``counters.json`` (the final registry snapshot).
    The run cross-checks the sampled series against the final scalar
    statistics before returning — the last sample's WAF and free-block
    ratio must equal the end-of-run values.

``check TRACE [METRICS]``
    Schema sanity check used by CI: the trace must be valid JSON with
    non-decreasing timestamps and balanced, properly nested B/E pairs per
    (pid, tid) track; the ``metrics.json`` series must have at least one
    sample, columns of equal length and strictly increasing ``time_us``.

``analyze ARTIFACTS [--out DIR]``
    Post-processes an artifact directory into a latency-attribution and
    health report (:mod:`repro.obs.analyze`): per-percentile critical-path
    breakdowns, tail-blame clustering, recovery/GC summaries and the
    per-namespace SLO scorecard.  With ``--out`` writes ``report.json``
    and ``report.md``; always prints the p99 headline blame.  Exit code 2
    on missing or malformed artifacts.

``diff RUN_A RUN_B [--out DIR]``
    Compares two runs' counter snapshots and metric series (aligned on
    sim-time) into a regression report of what moved by 5 % or more.
    With ``--out`` writes ``diff.json`` and ``diff.md``.  Exit code 2 on
    missing or malformed artifacts; 0 whether or not anything moved (the
    report itself says what changed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.analyze import (
    ArtifactError,
    analyze_artifacts,
    diff_runs,
    load_artifacts,
    load_metrics,
    load_trace,
)
from repro.obs.report import render_diff, render_report
from repro.obs.session import attach_telemetry

# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
def run_multi_tenant(scale: float, seed: int) -> Tuple[Any, Any]:
    """The verification scenario, instrumented: a Zipf reader and a bursty
    sequential writer under WRR arbitration with background GC active.

    Returns ``(ssd, telemetry)`` after the run completes.
    """
    from repro.experiments.multi_tenant import (
        build_tenant_host,
        reader_tenant,
        writer_tenant,
    )
    from repro.verify import VERIFY_ARBITER, verify_scenario

    scenario = verify_scenario(seed=seed, scale=scale)
    ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
    telemetry = attach_telemetry(ssd, "on", host=host)
    # A scenario driver, not an observer: driving the sim is its job.
    tenants = {"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)}
    host.run(tenants)  # simlint: disable=SIM008
    return ssd, telemetry


def run_steady_state(scale: float, seed: int) -> Tuple[Any, Any]:
    """A single-tenant aged device replaying an overwrite-heavy Zipf mix
    at queue depth 8 with background GC — the classic WAF/GC-interference
    study, instrumented.
    """
    from repro.experiments.common import ExperimentSetup, aged_device

    setup = ExperimentSetup(
        capacity_bytes=48 * 1024 * 1024,
        channels=4,
        dies_per_channel=4,
        pages_per_block=64,
        queue_depth=8,
        gc_mode="background",
    )
    ssd, requests = aged_device(
        setup,
        num_requests=max(64, int(4000 * scale)),
        aging_seed=seed,
        workload_seed=seed,
    )
    telemetry = attach_telemetry(ssd, "on")
    ssd.run(requests)  # simlint: disable=SIM008
    return ssd, telemetry


#: Scenario registry of the ``run`` subcommand.
SCENARIOS = {"multi_tenant": run_multi_tenant, "steady_state": run_steady_state}


def _cross_check(ssd: Any, telemetry: Any) -> List[str]:
    """The acceptance cross-check: last sampled gauges == final scalars."""
    sampler = telemetry.sampler
    if sampler is None or sampler.samples == 0:
        return ["no metrics samples were taken"]
    finals = {
        "waf": ssd.stats.write_amplification,
        "free_blocks": float(ssd.allocator.free_block_count()),
        "total_flash_page_writes": float(ssd.stats.total_flash_page_writes),
    }
    return [
        f"last sampled {column} {sampler.last(column)!r} != final {final!r}"
        for column, final in finals.items()
        if sampler.last(column) != final
    ]


# --------------------------------------------------------------------------- #
# Artifact checks
# --------------------------------------------------------------------------- #
def check_trace_events(events: List[Dict[str, Any]]) -> List[str]:
    """Schema problems in a Chrome trace-event list (empty = clean)."""
    if not events:
        return ["empty trace"]
    problems: List[str] = []
    last_ts: Optional[float] = None
    stacks: Dict[Tuple[int, int], List[str]] = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index}: missing {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {index}: ts {ts!r} decreases (previous {last_ts!r})"
            )
        last_ts = float(ts)
        track = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(track, []).append(event.get("name", ""))
        elif phase == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {index}: E with no open B on track {track}")
            else:
                opened = stack.pop()
                if opened != event.get("name", ""):
                    problems.append(
                        f"event {index}: E {event.get('name')!r} closes B "
                        f"{opened!r} on track {track}"
                    )
        elif phase == "X":
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"event {index}: X without numeric dur")
        elif phase == "i":
            pass
        else:
            problems.append(f"event {index}: unknown phase {phase!r}")
    for track, stack in sorted(stacks.items()):
        if stack:
            problems.append(f"track {track}: {len(stack)} unclosed B event(s)")
    return problems


def check_metrics_series(metrics: Mapping[str, Any]) -> List[str]:
    """Schema problems in a ``metrics.json`` payload (empty = clean)."""
    series: Mapping[str, List[float]] = metrics["series"]
    times = series.get("time_us")
    if not times:
        return ["no time_us samples"]
    problems = [
        f"column {column!r} has {len(values)} samples, time_us has {len(times)}"
        for column, values in sorted(series.items())
        if len(values) != len(times)
    ]
    for index in range(1, len(times)):
        if times[index] <= times[index - 1]:
            problems.append(
                f"sample {index}: time_us {times[index]!r} does not increase"
            )
    return problems


def check_file(
    path: str,
    load: Callable[[str], Any],
    check: Callable[[Any], List[str]],
) -> List[str]:
    """Load one artifact file and run its schema check; problems name the path."""
    try:
        return [f"{path}: {problem}" for problem in check(load(path))]
    except ArtifactError as exc:
        return [str(exc)]


def check_trace_file(path: str) -> List[str]:
    return check_file(path, load_trace, check_trace_events)


# --------------------------------------------------------------------------- #
# Analysis commands
# --------------------------------------------------------------------------- #
def _write_report_pair(
    outdir: str, stem: str, payload: Dict[str, Any], markdown: str
) -> None:
    os.makedirs(outdir, exist_ok=True)
    json_path = os.path.join(outdir, f"{stem}.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    md_path = os.path.join(outdir, f"{stem}.md")
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(markdown)
    print(f"{stem}: {json_path}")
    print(f"{stem}.md: {md_path}")


def _analyze_command(args: argparse.Namespace) -> int:
    artifacts = load_artifacts(args.artifacts)
    report = analyze_artifacts(artifacts)
    if args.out:
        _write_report_pair(args.out, "report", report, render_report(report))
    for op, table in report["requests"].get("ops", {}).items():
        p99 = table["levels"].get("p99")
        if p99 is None:
            continue
        print(
            f"{op}: p99 {p99['latency_us']:.3f} us over {table['count']} "
            f"requests, dominant component {p99['dominant']}"
        )
    clusters = report["tail_blame"].get("clusters", [])
    if clusters:
        top = clusters[0]
        print(
            f"tail blame: {top['component']} dominates "
            f"{top['count']}/{report['tail_blame']['top_k']} slowest requests"
        )
    for entry in report.get("recovery", []):
        print(f"recovery: {entry['phase']} {entry['makespan_us']:.3f} us")
    for name, ns in report.get("scorecard", {}).get("namespaces", {}).items():
        print(
            f"namespace {name}: {ns['status']} "
            f"(burn rate {ns['burn_rate']:.2f}, "
            f"{int(ns['slo_violations'])} violations)"
        )
    return 0


def _diff_command(args: argparse.Namespace) -> int:
    diff = diff_runs(args.run_a, args.run_b)
    if args.out:
        _write_report_pair(args.out, "diff", diff, render_diff(diff))
    counters = diff["counters"]
    metrics = diff["metrics"]
    print(
        f"counters: {len(counters['changed'])} of {counters['compared']} moved "
        f"past {counters['threshold']:.0%}"
    )
    print(
        f"metrics: {len(metrics['changed'])} series moved "
        f"({metrics['aligned_samples']} aligned samples)"
    )
    for row in counters["changed"][:10]:
        rel = "new" if row["rel"] is None else f"{row['rel']:+.1%}"
        print(f"  {row['counter']}: {row['base']:g} -> {row['current']:g} ({rel})")
    return 0


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run traced scenarios and sanity-check telemetry artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario with telemetry on")
    run_parser.add_argument("--scenario", choices=SCENARIOS, default="multi_tenant")
    run_parser.add_argument("--out", required=True, help="artifact directory")
    run_parser.add_argument("--scale", type=float, default=1.0)
    run_parser.add_argument("--seed", type=int, default=1234)

    check_parser = sub.add_parser("check", help="sanity-check emitted artifacts")
    check_parser.add_argument("trace", help="path to a Chrome trace JSON")
    check_parser.add_argument("metrics", nargs="?", help="path to a metrics.json")

    analyze_parser = sub.add_parser(
        "analyze", help="attribution + health report over an artifact directory"
    )
    analyze_parser.add_argument("artifacts", help="artifact directory from `run`")
    analyze_parser.add_argument("--out", help="write report.json / report.md here")

    diff_parser = sub.add_parser(
        "diff", help="regression report between two artifact directories"
    )
    diff_parser.add_argument("run_a", help="base artifact directory")
    diff_parser.add_argument("run_b", help="candidate artifact directory")
    diff_parser.add_argument("--out", help="write diff.json / diff.md here")

    args = parser.parse_args(argv)

    if args.command in ("analyze", "diff"):
        try:
            if args.command == "analyze":
                return _analyze_command(args)
            return _diff_command(args)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "run":
        ssd, telemetry = SCENARIOS[args.scenario](scale=args.scale, seed=args.seed)
        problems = _cross_check(ssd, telemetry)
        written = telemetry.write_artifacts(args.out)
        for name, path in sorted(written.items()):
            print(f"{name}: {path}")
        tracer = telemetry.tracer
        sampler = telemetry.sampler
        print(
            f"trace records={tracer.recorded} dropped={tracer.dropped} "
            f"samples={sampler.samples}"
        )
        for problem in problems:
            print(f"CROSS-CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0

    problems = check_trace_file(args.trace)
    if args.metrics:
        problems.extend(check_file(args.metrics, load_metrics, check_metrics_series))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"{args.trace}: trace schema ok")
        if args.metrics:
            print(f"{args.metrics}: metrics schema ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
