"""Namespaces: disjoint LPA regions sharing one simulated device.

An NVMe namespace carves a private logical address space out of the shared
device.  Tenants address pages relative to their namespace; the host
interface translates to device LPAs before submission, so several tenants
share the same FTL, write buffer, data cache and GC machinery — which is
exactly what makes the noisy-neighbor question interesting: one tenant's
flush/GC traffic contends with another tenant's reads at the flash channels
even though their address spaces never overlap.

Each namespace records its own latency/SLO statistics, so per-tenant p50/p99
and SLO-violation counts fall out of a single shared replay.

This module must stay importable without triggering the device model
(``repro.ssd.ssd``): it imports only the statistics submodule directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.host.arbiter import TokenBucket
from repro.ssd.stats import LatencyRecorder

#: Reservoir seed offsets so a namespace's read and write recorders draw
#: different (but fixed) sample streams.
_READ_SEED = 0x5EED
_WRITE_SEED = 0xF1005


@dataclass
class NamespaceStats:
    """Per-tenant counters collected during a host-interface replay."""

    #: Requests handed to the device / completed by it.
    submitted: int = 0
    completed: int = 0
    read_pages: int = 0
    write_pages: int = 0
    #: Pages clipped because a request ran past the end of the namespace.
    clipped_pages: int = 0
    #: Total time requests waited in the submission queue before the
    #: arbiter granted them a device slot (us).
    queue_wait_us: float = 0.0
    #: Times the namespace's token bucket deferred an admission.
    rate_limit_deferrals: int = 0
    #: Read completions whose latency exceeded the namespace's read SLO.
    slo_violations_read: int = 0
    read_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(seed=_READ_SEED)
    )
    write_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(seed=_WRITE_SEED)
    )


class Namespace:
    """One tenant's logical address region plus its QoS attributes.

    ``weight`` feeds weighted-round-robin arbitration, ``priority`` feeds
    strict-priority arbitration (lower value = more urgent), and the token
    buckets appended to ``limiters`` cap the namespace's admission rate
    regardless of the arbiter in use.  An SLO is a positive, finite
    latency bound; ``None`` means no SLO.
    """

    def __init__(
        self,
        name: str,
        base_lpa: int,
        size_pages: int,
        weight: int = 1,
        priority: int = 0,
        slo_read_us: Optional[float] = None,
    ) -> None:
        if base_lpa < 0:
            raise ValueError("base_lpa must be non-negative")
        if size_pages <= 0:
            raise ValueError("size_pages must be positive")
        if weight < 1:
            raise ValueError("weight must be at least 1")
        # A nan or inf bound would never count a violation.
        if slo_read_us is not None and not 0.0 < slo_read_us < math.inf:
            raise ValueError(
                f"SLO thresholds must be positive and finite, got {slo_read_us!r}"
            )
        self.name = name
        self.base_lpa = base_lpa
        self.size_pages = size_pages
        self.weight = weight
        self.priority = priority
        self.slo_read_us = slo_read_us
        self.limiters: List[TokenBucket] = []
        self.stats = NamespaceStats()

    @property
    def end_lpa(self) -> int:
        """One past the last device LPA owned by this namespace."""
        return self.base_lpa + self.size_pages

    def translate(self, lpa: int, npages: int) -> Tuple[int, int]:
        """Map a namespace-relative request to device LPAs.

        Returns ``(device_lpa, npages)`` with the page count clipped to the
        namespace boundary (clipped pages are counted, mirroring the
        device-level ``stats.clipped_pages`` convention).  Requests starting
        outside the namespace are errors, not clips.
        """
        if not 0 <= lpa < self.size_pages:
            raise ValueError(
                f"LPA {lpa} outside namespace {self.name!r} "
                f"({self.size_pages} pages)"
            )
        allowed = min(npages, self.size_pages - lpa)
        if allowed < npages:
            self.stats.clipped_pages += npages - allowed
        return self.base_lpa + lpa, allowed

    def reset_stats(self) -> NamespaceStats:
        """Fresh statistics (call between a warm-up and a measured phase)."""
        self.stats = NamespaceStats()
        return self.stats

    def record_completion(self, op: str, latency_us: float) -> None:
        """Record one completed request's latency and check a read's SLO."""
        if op == "R":
            self.stats.read_latency.record(latency_us)
            if self.slo_read_us is not None and latency_us > self.slo_read_us:
                self.stats.slo_violations_read += 1
        else:
            self.stats.write_latency.record(latency_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Namespace({self.name!r}, base={self.base_lpa}, "
            f"pages={self.size_pages}, weight={self.weight}, "
            f"priority={self.priority})"
        )
