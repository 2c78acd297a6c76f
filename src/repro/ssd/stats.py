"""Statistics collected by the SSD simulator.

The benchmarks derive every paper figure from this single statistics object:

* request latencies  → Figure 16/17/21/22 (average, normalized) and
  Figure 18 (latency CDF);
* flash operation counters → Figure 25 (write amplification factor);
* translation counters → DFTL/SFTL translation-page overhead;
* misprediction counters → Figure 24;
* the mapping-table footprint peak → Figure 15/19.

Every quantity has one counter: host traffic is counted in pages
(``host_read_pages`` / ``host_write_pages``; commands are
``requests_submitted`` / ``requests_completed``), and a host page read from
flash through a translation is ``flash_reads_for_host``, the denominator of
the misprediction ratio.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Iterable, List, Optional


def nearest_rank(count: int, pct: float) -> int:
    """Index of percentile ``pct`` (0-100) among ``count`` ascending samples.

    The one nearest-rank rule of the tree: ``LatencyRecorder``, the figure
    analysis and the telemetry attribution all pick the same sample.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    return min(count - 1, int(round(pct / 100.0 * (count - 1))))


class LatencyRecorder:
    """Records per-request latencies with a bounded-memory reservoir.

    All latencies contribute to the running sum/count (exact mean), while a
    reservoir of at most ``reservoir_size`` samples supports percentile
    queries without storing millions of floats.  Once the reservoir is
    full, uniform reservoir sampling (Vitter's algorithm R) keeps every
    recorded latency equally likely to be retained — unlike every-k-th
    striding, which systematically misses periodic tail events.  The
    sampling RNG is a fixed per-instance seed, so percentile results are
    reproducible run-to-run even past the reservoir bound (golden pins no
    longer depend on the sample count staying under ``reservoir_size``).
    """

    def __init__(self, reservoir_size: int = 100_000, seed: int = 0x1A7E) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        #: The reservoir as 8-byte doubles, not a list of float objects.
        self._samples = array("d")
        #: Sorted view of the reservoir, rebuilt lazily on the first
        #: percentile query after a record (summaries ask for several
        #: percentiles back to back; one sort serves them all).
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, latency_us: float) -> None:
        self.record_many((latency_us,))

    def record_many(self, latencies_us: Iterable[float]) -> None:
        """Record each latency in order (the one body behind ``record``)."""
        count = self._count
        total = self._sum
        high = self._max
        size = self._reservoir_size
        samples = self._samples
        getrandbits = self._rng.getrandbits
        for latency_us in latencies_us:
            count += 1
            total += latency_us
            if latency_us > high:
                high = latency_us
            if count <= size:
                samples.append(latency_us)
            else:
                # Algorithm R: replace a random slot with probability
                # size/count.  The draw is ``Random.randrange(count)``
                # unrolled to its ``getrandbits`` rejection loop (pinned by
                # a test).
                bits = count.bit_length()
                slot = getrandbits(bits)
                while slot >= count:
                    slot = getrandbits(bits)
                if slot < size:
                    samples[slot] = latency_us
        self._count = count
        self._sum = total
        self._max = high
        self._sorted = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_us(self) -> float:
        return self._sum

    @property
    def mean_us(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max_us(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0-100), from the reservoir."""
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted[nearest_rank(len(self._sorted), pct)]

    def samples(self) -> List[float]:
        """A copy of the sampled latencies (for plotting/analysis)."""
        return self._samples.tolist()


@dataclass
class SSDStats:
    """All counters exposed by :class:`repro.ssd.ssd.SimulatedSSD`."""

    # Host-visible traffic.
    host_read_pages: int = 0
    host_write_pages: int = 0
    unmapped_reads: int = 0
    #: Pages of host requests that ran past the end of the logical space and
    #: were clipped (not served).  Non-zero means the trace was not scaled
    #: to the device — silently invisible before this counter existed.
    clipped_pages: int = 0

    # Where reads were served from.
    buffer_hits: int = 0
    cache_hits: int = 0
    flash_reads_for_host: int = 0

    # Flash traffic breakdown (pages).
    data_page_writes: int = 0
    gc_page_reads: int = 0
    gc_page_writes: int = 0
    gc_block_erases: int = 0
    wl_page_moves: int = 0
    translation_page_reads: int = 0
    translation_page_writes: int = 0
    #: Pages programmed to persist mapping checkpoints (zero unless a
    #: :class:`repro.ssd.recovery.MappingCheckpointer` is attached).  These
    #: count toward :attr:`total_flash_page_writes`, so enabling periodic
    #: checkpoints shows up in the write-amplification factor.
    checkpoint_page_writes: int = 0

    # Durability events (power-fail injection, :mod:`repro.ssd.recovery`).
    #: Injected power failures survived by this device.
    power_failures: int = 0
    #: Buffered (unflushed, never host-durable) pages discarded at power
    #: failure.  These writes were acknowledged from DRAM only; losing them
    #: is within the crash contract, but the count makes the loss visible.
    buffered_pages_lost: int = 0
    #: Flash pages whose OOB was read by recovery scans.
    oob_scan_reads: int = 0

    # Address translation behaviour.
    mispredictions: int = 0
    misprediction_extra_reads: int = 0

    # Background activity.
    buffer_flushes: int = 0
    gc_invocations: int = 0
    #: GC activations that ran as a background event pipeline (a subset of
    #: ``gc_invocations``; the remainder ran synchronously).
    gc_background_runs: int = 0
    #: Victim blocks accepted for migration by GC (background or sync).
    gc_victim_blocks: int = 0
    #: Urgent (hard-watermark) synchronous reclaims that throttled writes.
    gc_urgent_collections: int = 0
    #: Total time host writes were stalled behind urgent reclaims (us).
    gc_write_throttle_us: float = 0.0

    # Concurrency (the replay engine, :mod:`repro.sim.frontend`).
    #: Host requests admitted by the replay frontend (commands, not pages).
    requests_submitted: int = 0
    #: Host requests whose completion the frontend observed.
    requests_completed: int = 0
    #: Time foreground data reads spent queued behind busy channels (us) —
    #: the direct measure of reads delayed by flush/GC/other-request traffic.
    read_stall_us: float = 0.0
    #: Events the replay's event loop dispatched.  A completion taken in
    #: place by the frontend is observed but not dispatched, so a depth-1
    #: replay under sync GC counts 0.
    events_processed: int = 0
    #: Largest number of host requests simultaneously outstanding (1 for a
    #: depth-1 replay once it has replayed anything).
    max_outstanding_requests: int = 0

    # Timing.
    #: Absolute device clock at the end of the replay (includes warm-up).
    simulated_time_us: float = 0.0
    #: Replay makespan since the last ``SimulatedSSD.begin_measurement()``
    #: (equals ``simulated_time_us`` when no measurement anchor was set).
    measured_time_us: float = 0.0

    # Mapping-table footprint.
    #: Largest resident size (bytes) seen at a buffer flush.
    peak_mapping_bytes: int = 0

    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    write_latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def cache_hit_ratio(self) -> float:
        served = self.buffer_hits + self.cache_hits + self.flash_reads_for_host
        if served == 0:
            return 0.0
        return (self.buffer_hits + self.cache_hits) / served

    @property
    def total_flash_page_writes(self) -> int:
        """Every flash page program issued, regardless of purpose."""
        return (
            self.data_page_writes
            + self.gc_page_writes
            + self.wl_page_moves
            + self.translation_page_writes
            + self.checkpoint_page_writes
        )

    @property
    def write_amplification(self) -> float:
        """WAF = physical flash writes / host page writes (Figure 25)."""
        if self.host_write_pages == 0:
            return 0.0
        return self.total_flash_page_writes / self.host_write_pages

    @property
    def misprediction_ratio(self) -> float:
        """Fraction of translated flash-page accesses that mispredicted (Fig. 24)."""
        if self.flash_reads_for_host == 0:
            return 0.0
        return self.mispredictions / self.flash_reads_for_host

    @property
    def mean_latency_us(self) -> float:
        """Mean latency over reads and writes combined."""
        total = self.read_latency.count + self.write_latency.count
        if total == 0:
            return 0.0
        return (self.read_latency.total_us + self.write_latency.total_us) / total
