"""Double-run determinism harness: ``python -m repro.verify``.

The static rules in ``tools/simlint`` forbid the constructs that make a
simulation depend on process state — wall-clock reads, unseeded RNGs,
set-iteration order, float-equality on timestamps.  This module is the
dynamic witness that those rules actually protect the property they
claim: it builds a scenario that exercises the event engine end to end
(mixed read/write tenants, background garbage collection, weighted-
round-robin arbitration), runs it twice from the same configuration and
seed, and compares a SHA-256 digest of the full processed-event trace and
another of the device's whole counter snapshot
(:func:`repro.obs.registry.device_snapshot`: the device, FTL, mapping-table,
cache, write-buffer, allocator and per-namespace counters, not a hand-kept
subset).  Any nondeterminism that slips past the
linter — a new set iteration on a scheduling path, an unkeyed tie-break,
a clock read — shows up here as a digest mismatch.

The event digest hashes ``(time_us, kind, priority, seq)`` of every
event the loop processes, in processing order, with times rendered via
``float.hex()`` so the comparison is bit-exact.  The observer attaches
through :attr:`repro.ssd.ssd.SimulatedSSD.event_observer`, which covers
closed-loop, open-loop and multi-queue replays alike.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.multi_tenant import (
    NOISY_NEIGHBOR_DEVICE,
    NoisyNeighborScenario,
    build_tenant_host,
    reader_tenant,
    writer_tenant,
)
from repro.experiments.recovery import (
    RecoveryScenario,
    crash_workload,
    recover_checked,
    run_to_crash,
)
from repro.obs.registry import device_snapshot
from repro.sim.events import Event

#: Arbiter exercised by the harness: weighted round-robin is the policy
#: with the most ordering-sensitive state (per-queue deficit counters).
VERIFY_ARBITER = "weighted_round_robin"


class EventTraceDigest:
    """Streaming SHA-256 over the processed-event sequence.

    Attach :meth:`observe` as an event-loop observer; the digest then
    commits to the exact interleaving the simulation executed — two runs
    with the same digest processed the same events, at the same times,
    in the same order.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.events_observed = 0

    def observe(self, event: Event) -> None:
        record = "|".join(
            (
                event.time_us.hex(),
                event.kind,
                str(event.priority),
                str(event.seq),
            )
        )
        self._sha.update(record.encode("utf-8"))
        self._sha.update(b"\n")
        self.events_observed += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def stats_digest(ssd: Any, host: Any = None) -> str:
    """SHA-256 of the device's whole counter snapshot (exact float reprs).

    The payload is :func:`repro.obs.registry.device_snapshot` — every
    registered ``*Stats`` counter reachable from the device (``ssd.*``,
    ``ftl.*``, ``leaftl.*``, ``mapping_table.*``, ``cache.*``,
    ``write_buffer.*``, ``allocator.*``, the ``device.*`` gauges and, with
    ``host``, ``ns.<tenant>.*``) — so a counter added anywhere is digested
    with no edit here, and a pinned stats digest moves when one is added.
    """
    counters = device_snapshot(ssd, host).as_dict()
    payload = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunReport:
    """Everything one verification run commits to."""

    event_digest: str
    events_observed: int
    stats_digest: str
    #: The digested counters, by registry key (``ssd.host_read_pages``, ...).
    summary: Dict[str, float]

    def matches(self, other: "RunReport") -> bool:
        return (
            self.event_digest == other.event_digest
            and self.events_observed == other.events_observed
            and self.stats_digest == other.stats_digest
        )


def _report(trace: EventTraceDigest, ssd: Any, host: Any = None) -> RunReport:
    return RunReport(
        event_digest=trace.hexdigest(),
        events_observed=trace.events_observed,
        stats_digest=stats_digest(ssd, host),
        summary=device_snapshot(ssd, host).as_dict(),
    )


def verify_scenario(seed: int = 1234, scale: float = 1.0) -> NoisyNeighborScenario:
    """The canonical verification scenario.

    A small two-tenant device: a Zipf reader and a bursty sequential
    writer sharing channels under WRR arbitration, with background GC
    enabled and the writer namespace pre-filled far enough that reclaim
    actually runs during the measured phase.  ``seed`` perturbs the
    reader's Zipf stream; ``scale`` shrinks request counts for quick
    smoke runs.
    """
    return NoisyNeighborScenario(
        device=replace(
            NOISY_NEIGHBOR_DEVICE,
            capacity_bytes=64 * 1024 * 1024,
            channels=4,
            dies_per_channel=4,
            gc_mode="background",
        ),
        reader_pages=4096,
        reader_requests=max(16, int(1200 * scale)),
        reader_seed=seed,
        writer_requests=max(16, int(480 * scale)),
        writer_burst_length=16,
        writer_burst_gap_us=4_000.0,
        writer_prefill_fraction=0.75,
    )


def run_once(seed: int = 1234, scale: float = 1.0) -> RunReport:
    """One full run of the verification scenario; returns its report.

    The trace digest covers the measured phase only (warm-up fills run
    before the observer attaches), so reports are comparable even if the
    warm-up machinery changes shape.
    """
    scenario = verify_scenario(seed=seed, scale=scale)
    ssd, host = build_tenant_host(scenario, VERIFY_ARBITER)
    trace = EventTraceDigest()
    ssd.event_observer = trace.observe
    host.run({"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)})
    return _report(trace, ssd, host)


def run_recovery_once(seed: int = 1234, scale: float = 1.0) -> RunReport:
    """One crash-and-recover run of the recovery determinism scenario.

    A small LeaFTL device under an overwrite-skewed burst with background
    GC and periodic mapping checkpoints is power-failed mid-burst (the
    crash timer chains behind the digest observer, so the crashing event
    itself is digested before it raises), then recovered via checkpoint +
    replay.  The event digest commits to the exact pre-crash interleaving;
    the stats digest commits to the post-recovery device state, including
    a full read-back of every acked LPA — so a nondeterministic recovery
    path (an unordered scan, an unstable replay order) shows up as a
    digest mismatch exactly like a nondeterministic scheduler would.
    """
    base = RecoveryScenario(seed=seed, num_requests=max(64, int(2200 * scale)))
    requests = len(crash_workload(base))
    crash_at = max(32, min(requests - 64, base.crash_after_completions))
    scenario = replace(base, crash_after_completions=crash_at)
    trace = EventTraceDigest()
    ssd, oracle = run_to_crash(scenario, 512, trace.observe)
    recover_checked(ssd, oracle, "checkpoint_replay")
    # Read back every acked LPA: folds the whole recovered translation
    # path (table, cache, OOB corrections) into the stats digest.
    for lpa in sorted(oracle):
        ssd.read(lpa)
    return _report(trace, ssd)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of an N-run comparison."""

    identical: bool
    reports: Sequence[RunReport]

    @property
    def first(self) -> RunReport:
        return self.reports[0]


#: Scenario name -> single-run driver.  ``base`` is the multi-tenant WRR
#: scenario; ``recovery`` crashes and recovers a LeaFTL device.
SCENARIOS = {
    "base": run_once,
    "recovery": run_recovery_once,
}


def verify(
    seed: int = 1234, scale: float = 1.0, runs: int = 2, scenario: str = "base"
) -> VerifyResult:
    """Run a scenario ``runs`` times and compare every report."""
    if runs < 2:
        raise ValueError("verification needs at least two runs to compare")
    driver = SCENARIOS[scenario]
    reports: List[RunReport] = [driver(seed=seed, scale=scale) for _ in range(runs)]
    identical = all(report.matches(reports[0]) for report in reports[1:])
    return VerifyResult(identical=identical, reports=tuple(reports))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Run the determinism scenario twice from the same seed and "
            "compare event-trace and stats digests; exit 1 on mismatch."
        ),
    )
    parser.add_argument("--seed", type=int, default=1234, help="workload seed")
    parser.add_argument(
        "--runs", type=int, default=2, help="number of runs to compare (default 2)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="request-count scale factor (smaller = faster smoke run)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the reports as JSON"
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="all",
        help="which determinism scenario(s) to run (default: all)",
    )
    args = parser.parse_args(argv)

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    results = {
        name: verify(seed=args.seed, scale=args.scale, runs=args.runs, scenario=name)
        for name in names
    }
    all_identical = all(result.identical for result in results.values())
    if args.json:
        payload = {
            "identical": all_identical,
            "scenarios": {
                name: {
                    "identical": result.identical,
                    "runs": [
                        {
                            "event_digest": report.event_digest,
                            "events_observed": report.events_observed,
                            "stats_digest": report.stats_digest,
                        }
                        for report in result.reports
                    ],
                }
                for name, result in results.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, result in results.items():
            for index, report in enumerate(result.reports):
                print(
                    f"{name} run {index}: events={report.events_observed} "
                    f"trace={report.event_digest[:16]}… "
                    f"stats={report.stats_digest[:16]}…"
                )
            verdict = "identical" if result.identical else "MISMATCH"
            print(f"{name}: {len(result.reports)} runs {verdict}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
