"""Crash-recovery experiment: recovery time and checkpoint cost vs interval.

The paper stores LeaFTL's learned mapping in DRAM and relies on the durable
OOB reverse mappings to survive power loss.  This experiment quantifies the
trade the checkpointing design makes explicit:

* a **full OOB scan** needs no checkpoints (zero write amplification
  overhead) but reads every programmed page's spare area at recovery time;
* **checkpoint + replay** pays periodic checkpoint page writes (visible in
  the WAF) to bound the post-crash scan to the pages programmed since the
  last image.

Sweeping the checkpoint interval maps the frontier: short intervals buy
fast recovery with a higher WAF, long intervals degrade toward the full
scan.  The crash itself lands mid-write-burst via
:class:`repro.ssd.recovery.CrashTimer`, so the measured state is a device
caught with GC in flight — not a convenient idle one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentSetup, build_ssd
from repro.sim.events import Event
from repro.ssd.recovery import (
    CrashTimer,
    PowerFailure,
    RecoveryResult,
    attach_checkpointer,
    recover,
)
from repro.ssd.ssd import SimulatedSSD

#: Checkpoint intervals (data pages between images) swept by the benchmark.
DEFAULT_INTERVALS = (256, 1024, 4096)


#: The device every recovery measurement crashes: ``SSDConfig.tiny``'s
#: geometry at 24 MB with thin over-provisioning, so the overwrite burst
#: has background GC in flight when the power fails.
RECOVERY_DEVICE = ExperimentSetup(
    capacity_bytes=24 * 1024 * 1024,
    channels=4,
    pages_per_block=64,
    dram_bytes=2 * 1024 * 1024,
    write_buffer_bytes=256 * 1024,
    overprovisioning=0.10,
    gamma=4,
    compaction_interval_writes=20_000,
    queue_depth=8,
    gc_mode="background",
)


@dataclass(frozen=True)
class RecoveryScenario:
    """Workload + crash point for one recovery measurement."""

    #: Overwrite-skewed requests after the sequential fill pass.
    num_requests: int = 2200
    #: Crash at the N-th host request completion (mid-write-burst).
    crash_after_completions: int = 2600
    seed: int = 20


@dataclass(frozen=True)
class RecoveryOutcome:
    """One crashed-and-recovered run, with the costs on both sides."""

    #: ``oob_scan`` or ``checkpoint_replay``.
    mode: str
    #: Checkpoint interval in pages (``None`` for the scan baseline).
    interval_pages: Optional[int]
    recovery_time_us: float
    flash_reads: int
    checkpoint_pages_read: int
    replayed_pages: int
    recovered_lpas: int
    checkpoints_taken: int
    #: Checkpoint flash writes accumulated before the crash.
    checkpoint_page_writes: int
    #: Device WAF at the crash, inclusive of checkpoint writes.
    write_amplification: float


def crash_workload(scenario: RecoveryScenario) -> List[Tuple[str, int, int]]:
    """Sequential fill then Zipf-skewed overwrites (keeps GC busy)."""
    rng = random.Random(scenario.seed)
    footprint = int(RECOVERY_DEVICE.ssd_config().logical_pages * 0.9)
    requests: List[Tuple[str, int, int]] = []
    for lpa in range(0, footprint - 8, 8):
        requests.append(("W", lpa, 8))
    for _ in range(scenario.num_requests):
        span = rng.randint(1, 8)
        lpa = int((rng.random() ** 4) * (footprint - span))
        requests.append(("W", lpa, span))
    return requests


def run_to_crash(
    scenario: RecoveryScenario,
    interval_pages: Optional[int],
    observe: Optional[Callable[[Event], None]],
) -> Tuple[SimulatedSSD, Dict[int, int]]:
    """Run the workload into the injected power failure.

    ``interval_pages`` enables checkpointing during the run (its writes are
    charged to the WAF whether or not recovery then uses the image).
    ``observe`` sees every processed event *before* the crash timer does, so
    a digest observer commits to the crashing event too.  Returns the
    powered-off device and the durability oracle (acked LPA -> PPA).
    """
    ssd = build_ssd("LeaFTL", RECOVERY_DEVICE)
    if interval_pages is not None:
        attach_checkpointer(ssd, interval_pages=interval_pages)

    timer = CrashTimer(
        after_kind="request_complete", kind_count=scenario.crash_after_completions
    )

    def chained(event: Event) -> None:
        observe(event)
        timer(event)

    ssd.event_observer = timer if observe is None else chained
    try:
        ssd.run(crash_workload(scenario))
    except PowerFailure:
        pass
    if not timer.fired:
        raise RuntimeError(
            "workload finished before the injected crash; raise num_requests "
            "or lower crash_after_completions"
        )
    return ssd, ssd.power_fail()


def recover_checked(
    ssd: SimulatedSSD, oracle: Dict[int, int], mode: str
) -> RecoveryResult:
    """Recover a powered-off device and check it against the oracle.

    A recovery that lost an acked page fails loudly here, not by skewing a
    figure (or a digest) quietly.
    """
    result = recover(ssd, mode=mode)
    if ssd.live_mappings() != oracle:
        raise RuntimeError(f"{result.mode} recovery lost acked pages")
    return result


def run_crash_recovery(
    scenario: RecoveryScenario,
    interval_pages: Optional[int] = None,
    mode: str = "oob_scan",
) -> RecoveryOutcome:
    """Run the workload, crash mid-burst, recover, and report the costs."""
    ssd, oracle = run_to_crash(scenario, interval_pages, None)
    result = recover_checked(ssd, oracle, mode)
    checkpointer = ssd.checkpointer
    return RecoveryOutcome(
        mode=result.mode,
        interval_pages=interval_pages,
        recovery_time_us=result.recovery_time_us,
        flash_reads=result.flash_reads,
        checkpoint_pages_read=result.checkpoint_pages_read,
        replayed_pages=result.replayed_pages,
        recovered_lpas=result.recovered_lpas,
        checkpoints_taken=checkpointer.checkpoints_taken if checkpointer else 0,
        checkpoint_page_writes=ssd.stats.checkpoint_page_writes,
        write_amplification=ssd.stats.write_amplification,
    )


def recovery_interval_sweep(
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    scenario: Optional[RecoveryScenario] = None,
) -> Dict[str, RecoveryOutcome]:
    """Scan baseline plus checkpoint+replay at each interval.

    Keys: ``"oob_scan"`` for the baseline (no checkpointing at all, so its
    WAF is the checkpoint-free reference), ``"interval=N"`` per sweep
    point.
    """
    scenario = scenario or RecoveryScenario()
    outcomes: Dict[str, RecoveryOutcome] = {
        "oob_scan": run_crash_recovery(scenario, mode="oob_scan")
    }
    for interval in intervals:
        outcomes[f"interval={interval}"] = run_crash_recovery(
            scenario, interval_pages=interval, mode="checkpoint_replay"
        )
    return outcomes
