"""Per-tenant workload streams for multi-namespace replays.

The multi-queue host interface (:mod:`repro.host`) replays one stream per
tenant; this module builds those streams.  Two canonical tenants cover the
noisy-neighbor scenario the QoS experiments study:

* :func:`latency_sensitive_reader` — an open-loop stream of small,
  Zipf-skewed reads arriving at a steady pace (a key-value / OLTP front
  end).  Its p99-versus-arrival latency is the quantity QoS arbitration
  protects.
* :func:`sequential_writer` — the noisy neighbor: large sequential write
  bursts (a backup, compaction or analytics ingest job) whose buffered
  flushes and GC fallout monopolise flash channels and, without
  arbitration, the shared submission queue.

The host interface takes them as one ``{namespace: trace}`` mapping, and
a trace's timestamps pick its admission mode: both tenants above carry
timestamps and replay open-loop, while :func:`fill_namespace` (a warm-up)
carries none and replays closed-loop.  Any other :class:`Trace` can play a
tenant too (``trace.with_interarrival()`` stamps a synthetic one for
open-loop admission).

All generators are deterministic given their seeds, and every stream
addresses *namespace-relative* LPAs starting at 0 — the host interface
relocates them into the tenant's region of the device.
"""

from __future__ import annotations

import random
from typing import List

from repro.workloads.synthetic import zipf_lpa
from repro.workloads.trace import IORequest, READ, Trace, WRITE


def latency_sensitive_reader(
    footprint_pages: int,
    num_requests: int,
    interarrival_us: float = 200.0,
    zipf_alpha: float = 0.9,
    npages: int = 8,
    seed: int = 101,
    name: str = "reader",
) -> Trace:
    """Steady Zipf-skewed reads over an (already written) working set."""
    if footprint_pages <= npages:
        raise ValueError("footprint_pages must exceed npages")
    rng = random.Random(seed)
    requests: List[IORequest] = []
    upper = max(1, footprint_pages - npages)
    for index in range(num_requests):
        lpa = zipf_lpa(rng, upper, zipf_alpha)
        requests.append(
            IORequest(READ, lpa, npages, timestamp_us=index * interarrival_us)
        )
    return Trace(name, requests)


def sequential_writer(
    footprint_pages: int,
    num_requests: int,
    npages: int = 32,
    interarrival_us: float = 20.0,
    burst_length: int = 0,
    burst_gap_us: float = 0.0,
    name: str = "writer",
) -> Trace:
    """Large sequential writes cycling over the namespace (noisy neighbor).

    With ``burst_length == 0`` the commands arrive uniformly every
    ``interarrival_us``.  Otherwise they arrive in bursts of
    ``burst_length`` commands spaced ``interarrival_us`` apart, separated
    by ``burst_gap_us`` of silence — the bursty ingest pattern that makes
    shared-queue head-of-line blocking visible without permanently
    saturating the device.
    """
    if footprint_pages < npages:
        raise ValueError("footprint_pages must be at least npages")
    requests: List[IORequest] = []
    lpa = 0
    clock = 0.0
    in_burst = 0
    for _ in range(num_requests):
        requests.append(IORequest(WRITE, lpa, npages, timestamp_us=clock))
        lpa += npages
        if lpa + npages > footprint_pages:
            lpa = 0
        in_burst += 1
        if burst_length > 0 and in_burst >= burst_length:
            in_burst = 0
            clock += burst_gap_us
        else:
            clock += interarrival_us
    return Trace(name, requests)


def fill_namespace(size_pages: int, extent: int = 64, name: str = "fill") -> Trace:
    """A sequential fill of a namespace (warm-up phase).

    Writes the whole region once in ``extent``-page commands so subsequent
    reads hit programmed flash instead of being served as zeroes.  The
    requests carry no timestamps, so the fill replays closed-loop.
    """
    if size_pages <= 0:
        raise ValueError("size_pages must be positive")
    extent = max(1, min(extent, size_pages))
    requests = [
        IORequest(WRITE, lpa, min(extent, size_pages - lpa))
        for lpa in range(0, size_pages, extent)
    ]
    return Trace(name, requests)
