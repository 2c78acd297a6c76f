"""Multi-tenant QoS experiments: noisy neighbors, arbitration, rate limits.

The scenario every experiment here builds on: one device, two namespaces.

* **reader** — a latency-sensitive tenant issuing steady, Zipf-skewed
  open-loop reads over its (pre-filled) namespace, with a read SLO;
* **writer** — a noisy neighbor streaming bursts of large sequential
  writes into the other namespace.

The writer's damage travels two paths: its queued commands occupy device
slots and (without arbitration) the shared submission queue ahead of the
reader's arrivals, and its buffered flushes plus the GC they trigger keep
the flash channels busy under the reader's data reads.  Submission-queue
arbitration can undo the first path entirely and most of the second's
queueing component — which is precisely what :func:`noisy_neighbor_sweep`
quantifies, arbiter by arbiter, against the reader's solo run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentSetup, build_ssd, reset_measurement
from repro.host.arbiter import ARBITERS, TokenBucket
from repro.host.interface import HostInterface
from repro.obs.analyze import namespace_scorecard
from repro.obs.registry import CounterSnapshot, device_snapshot
from repro.ssd.ssd import SimulatedSSD
from repro.workloads.multi_tenant import (
    fill_namespace,
    latency_sensitive_reader,
    sequential_writer,
)
from repro.workloads.trace import Trace

#: Arbiters compared by the sweep, baseline (no QoS) first.
ARBITER_CHOICES: Tuple[str, ...] = ARBITERS


#: The device the QoS experiments share: small and 8-channel, so the
#: whole sweep (solo + four arbiters) runs in seconds.
NOISY_NEIGHBOR_DEVICE = ExperimentSetup(
    capacity_bytes=192 * 1024 * 1024,
    channels=8,
    # Many dies per channel keep the program *bus* share small
    # (``write_latency / dies``), so flush bursts contend with reads
    # through queueing rather than monopolising the buses outright —
    # the regime where admission arbitration has leverage.
    dies_per_channel=32,
    pages_per_block=64,
    dram_bytes=2 * 1024 * 1024,
    # Small write buffer: short flush batches keep per-channel busy
    # windows brief (a flush programs its open block serially).
    write_buffer_bytes=128 * 1024,
    # Device slots (NVMe queue depth shared by all tenants).  Modest on
    # purpose: every slot a writer command holds has its flush chained
    # onto the channel reservations, so deep queues let the noisy
    # neighbor reserve the NAND far ahead of the reader's arrivals.
    queue_depth=4,
    gamma=4,
)

# What no experiment varies about the two tenants.
READER_INTERARRIVAL_US = 150.0
READER_NPAGES = 16
READER_ZIPF_ALPHA = 0.9
READER_WEIGHT = 8
READER_SLO_US = 1000.0
WRITER_NPAGES = 32
WRITER_INTERARRIVAL_US = 30.0


@dataclass(frozen=True)
class NoisyNeighborScenario:
    """Device + tenant parameters of the noisy-neighbor experiments.

    The defaults pair :data:`NOISY_NEIGHBOR_DEVICE` with a reader namespace
    large enough to defeat the data cache and a writer whose bursts
    transiently exceed the device's flush bandwidth without permanently
    saturating it.
    """

    #: The LeaFTL device under test; the determinism harness runs it with
    #: background GC so that event interleaving is covered by the double run.
    device: ExperimentSetup = NOISY_NEIGHBOR_DEVICE

    # Reader tenant (latency-sensitive).
    reader_pages: int = 8192
    reader_requests: int = 2000
    reader_seed: int = 101

    # Writer tenant (noisy neighbor).
    writer_requests: int = 640
    writer_burst_length: int = 32
    writer_burst_gap_us: float = 15_000.0
    #: Fraction of the writer namespace pre-filled during warm-up.
    writer_prefill_fraction: float = 0.1


def build_tenant_host(
    scenario: NoisyNeighborScenario, arbiter: str
) -> Tuple[SimulatedSSD, HostInterface]:
    """A warmed-up device with reader/writer namespaces carved out.

    Warm-up runs *through the host interface* (closed-loop sequential
    fills), so the multi-queue admission path is exercised end to end;
    statistics are then reset so the measured phase reports steady state
    only.
    """
    ssd = build_ssd("LeaFTL", scenario.device)
    host = HostInterface(ssd, arbiter=arbiter)
    host.add_namespace(
        "reader",
        size_pages=scenario.reader_pages,
        weight=READER_WEIGHT,
        priority=0,
        slo_read_us=READER_SLO_US,
    )
    host.add_namespace("writer", weight=1, priority=1)
    writer_fill = int(
        host.namespace("writer").size_pages * scenario.writer_prefill_fraction
    )
    fills = {"reader": fill_namespace(scenario.reader_pages)}
    if writer_fill > 0:
        fills["writer"] = fill_namespace(writer_fill)
    host.run(fills)
    ssd.quiesce()
    reset_measurement(ssd)
    host.reset_stats()
    return ssd, host


def reader_tenant(scenario: NoisyNeighborScenario) -> Trace:
    """The reader namespace's stream (timestamped: replays open-loop)."""
    return latency_sensitive_reader(
        scenario.reader_pages,
        scenario.reader_requests,
        interarrival_us=READER_INTERARRIVAL_US,
        zipf_alpha=READER_ZIPF_ALPHA,
        npages=READER_NPAGES,
        seed=scenario.reader_seed,
    )


def writer_tenant(scenario: NoisyNeighborScenario) -> Trace:
    """The writer namespace's stream (timestamped: replays open-loop)."""
    writer_pages = max(
        WRITER_NPAGES,
        scenario.device.ssd_config().logical_pages - scenario.reader_pages,
    )
    return sequential_writer(
        writer_pages,
        scenario.writer_requests,
        npages=WRITER_NPAGES,
        interarrival_us=WRITER_INTERARRIVAL_US,
        burst_length=scenario.writer_burst_length,
        burst_gap_us=scenario.writer_burst_gap_us,
    )


def _tables(
    ssd: SimulatedSSD,
    host: HostInterface,
    before: CounterSnapshot,
    tenants: Iterable[str],
) -> Dict[str, Dict[str, object]]:
    """One cell's tables, all read off the registry snapshot after the run.

    ``"device"`` is every counter's delta over the measured phase (GC
    traffic, WAF inputs, cache behaviour and the ``ns.<tenant>.*`` rows
    alike), ``"scorecard"`` the SLO health judged from it, and each tenant
    that ran gets its own ``ns.<tenant>.*`` counters with the prefix
    dropped — ``table["reader"]["read_latency.p99_us"]``.
    """
    after = device_snapshot(ssd, host=host)
    counters = after.as_dict()
    table: Dict[str, Dict[str, object]] = {}
    for tenant in tenants:
        prefix = f"ns.{tenant}."
        table[tenant] = {
            key[len(prefix):]: value
            for key, value in counters.items()
            if key.startswith(prefix)
        }
    table["device"] = after.delta(before).as_dict()
    # Activity counts come from the measured-phase delta (so warmup
    # violations don't pollute the burn rate), the configuration gauges
    # (SLO thresholds, weights) from the absolute end snapshot — a delta
    # zeroes unchanged gauges out.
    table["scorecard"] = namespace_scorecard(table["device"], gauges=counters)["namespaces"]
    return table


def run_noisy_neighbor(
    arbiter: str,
    scenario: Optional[NoisyNeighborScenario] = None,
    include_writer: bool = True,
) -> Dict[str, Dict[str, object]]:
    """One cell: tenant -> metrics under the given arbiter.

    ``include_writer=False`` is the solo baseline: the reader alone on the
    (identically warmed-up) device — its p99 is the isolation yardstick.
    """
    scenario = scenario or NoisyNeighborScenario()
    ssd, host = build_tenant_host(scenario, arbiter)
    tenants = {"reader": reader_tenant(scenario)}
    if include_writer:
        tenants["writer"] = writer_tenant(scenario)
    before = device_snapshot(ssd, host=host)
    host.run(tenants)
    return _tables(ssd, host, before, tenants)


def noisy_neighbor_sweep(
    arbiters: Sequence[str] = ARBITER_CHOICES,
    scenario: Optional[NoisyNeighborScenario] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """arbiter -> tenant -> metrics, plus the reader's ``"solo"`` baseline.

    The isolation claim the QoS benchmark pins: under weighted-round-robin
    or strict-priority arbitration the reader's p99 (measured against
    arrival times, so submission-queue waiting counts) stays within a small
    constant factor of its solo p99, while FIFO shared-queue admission
    lets the writer's bursts inflate it by orders of magnitude.
    """
    scenario = scenario or NoisyNeighborScenario()
    table: Dict[str, Dict[str, Dict[str, object]]] = {
        "solo": run_noisy_neighbor(
            "round_robin", scenario, include_writer=False
        )
    }
    for arbiter in arbiters:
        table[arbiter] = run_noisy_neighbor(arbiter, scenario)
    return table


def rate_limit_comparison(
    scenario: Optional[NoisyNeighborScenario] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Token-bucket QoS: the same scenario with and without a writer cap.

    Arbitration (plain round-robin here) shares the *admission* fairly but
    cannot stop an admitted write burst from flooding the write buffer and
    flash channels; a bandwidth token bucket on the writer namespace
    (60 k pages/s) throttles the burst at the source.  Returns
    ``{"uncapped": ..., "capped": ...}`` tenant metric tables; expect the
    capped writer to show rate-limit deferrals and the reader a lower p99.
    """
    scenario = scenario or NoisyNeighborScenario()
    table: Dict[str, Dict[str, Dict[str, object]]] = {}
    for label, capped in (("uncapped", False), ("capped", True)):
        ssd, host = build_tenant_host(scenario, "round_robin")
        if capped:
            host.namespace("writer").limiters.append(
                TokenBucket(60_000.0, burst=WRITER_NPAGES * 4, unit="pages")
            )
        before = device_snapshot(ssd, host=host)
        tenants = {"reader": reader_tenant(scenario), "writer": writer_tenant(scenario)}
        host.run(tenants)
        table[label] = _tables(ssd, host, before, tenants)
    return table
