"""The four ledger workloads: seeded request lists and the devices they run on.

Every request list — the aging pass included — is generated here from the
seed with ``random.Random`` only and handed to the device as bare
``(op, lpa, npages)`` tuples or :class:`IORequest` objects.  The figure
harness helpers (``repro.experiments.common.precondition`` and friends) and
the ``repro.workloads`` generators are deliberately not used: an edit to
them must not change what this benchmark measures.  A SHA-256 over the
canonical text of each workload's lists is recorded with every result, and
``compare`` refuses result files whose digests differ.

``scale`` shrinks the device and the request counts together (smoke test,
telemetry-cost runs); ``scale=1.0`` is the benchmark proper: a 256 MB
device, 8 channels x 4 dies, 128 pages per block, 1 MB write buffer.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.host.interface import HostInterface
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from repro.workloads.trace import IORequest, ReplayItem, Trace

MB = 1024 * 1024

Request = Tuple[str, int, int]

#: Smallest device the scaled-down runs use (an eighth of the full one):
#: below this GC runs out of blocks to breathe with.
MIN_SIZE_FACTOR = 0.125

#: Fraction of the logical space the aging pass fills (then overwrites once).
AGED_FILL = 0.92
AGING_EXTENT = 256
AGING_OVERWRITE_SPAN = 4

#: Share of the logical space given to the latency-sensitive reader tenant.
READER_SHARE = 0.25
WRITER_PREFILL = 0.75
READER_SLO_US = 1000.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Device knobs and request count of one workload at scale 1.0."""

    name: str
    requests: int
    dram_bytes: int
    gamma: int
    queue_depth: int
    gc_mode: str = "sync"
    aged: bool = True
    tenants: bool = False


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("steady_mixed", 58_000, 2 * MB, gamma=0, queue_depth=8),
        WorkloadSpec("read_lookup", 45_000, 1 * MB, gamma=4, queue_depth=8),
        WorkloadSpec(
            "seq_stream", 14_000, 2 * MB, gamma=0, queue_depth=1, aged=False
        ),
        WorkloadSpec(
            "tenants_wrr",
            42_000,
            2 * MB,
            gamma=4,
            queue_depth=4,
            gc_mode="background",
            aged=False,
            tenants=True,
        ),
    )
}


@dataclass
class Prepared:
    """A device aged and quiesced, plus the call the ledger times."""

    ssd: SimulatedSSD
    host: Optional[HostInterface]
    #: The timed region, exactly: ``ssd.run(...)`` / ``host.run(...)``,
    #: drain flush included.
    replay: Callable[[], None]
    #: Host commands the timed replay attempts.
    requests: int
    #: Shadow set: every device LPA the aging pass or the replay writes.
    written_lpas: Set[int]
    digest: str
    gamma: int
    setup_s: float


def zipf_index(rng: random.Random, upper: int, alpha: float) -> int:
    """A Zipf-skewed index in ``[0, upper)``, small indices hottest."""
    position = int((rng.random() ** (1.0 / (1.0 - alpha))) * upper)
    return min(upper - 1, position)


def size_factor(scale: float) -> float:
    return min(1.0, max(MIN_SIZE_FACTOR, scale))


def device_config(spec: WorkloadSpec, scale: float) -> SSDConfig:
    factor = size_factor(scale)
    return SSDConfig(
        capacity_bytes=int(256 * MB * factor),
        page_size=4096,
        pages_per_block=128,
        channels=8,
        dies_per_channel=4,
        dram_size=int(spec.dram_bytes * factor),
        write_buffer_bytes=max(128 * 1024, int(1 * MB * factor)),
    )


def build_device(spec: WorkloadSpec, scale: float, telemetry: str = "off") -> SimulatedSSD:
    config = device_config(spec, scale)
    budget = DRAMBudget(dram_bytes=config.dram_size)
    ftl = LeaFTL(
        LeaFTLConfig(gamma=spec.gamma, compaction_interval_writes=200_000),
        mapping_budget_bytes=budget.mapping_budget(),
    )
    options = SSDOptions(
        queue_depth=spec.queue_depth,
        gc_mode=spec.gc_mode,
        arbiter="weighted_round_robin",
        telemetry=telemetry,
    )
    return SimulatedSSD(config=config, ftl=ftl, dram_budget=budget, options=options)


def request_count(spec: WorkloadSpec, scale: float) -> int:
    return max(64, int(spec.requests * scale))


# --------------------------------------------------------------------------- #
# Request lists
# --------------------------------------------------------------------------- #
def aged_footprint(logical_pages: int) -> int:
    return int(logical_pages * AGED_FILL) // AGING_EXTENT * AGING_EXTENT


def aging_requests(rng: random.Random, logical_pages: int) -> List[Request]:
    """Sequential fill of 92% of the space, then one Zipf-0.8 overwrite of it.

    The fill leaves every block fully valid; the skewed 4-page overwrite
    spreads invalid pages unevenly, which is the steady state GC victim
    selection and migration cost depend on.
    """
    footprint = aged_footprint(logical_pages)
    requests: List[Request] = [
        ("W", lpa, AGING_EXTENT) for lpa in range(0, footprint, AGING_EXTENT)
    ]
    upper = footprint - AGING_OVERWRITE_SPAN
    for _ in range(footprint // AGING_OVERWRITE_SPAN):
        requests.append(("W", zipf_index(rng, upper, 0.8), AGING_OVERWRITE_SPAN))
    return requests


def steady_mixed_requests(rng: random.Random, footprint: int, count: int) -> List[Request]:
    """60% writes / 40% reads, Zipf-0.85 over the aged footprint, 1-8 pages."""
    upper = footprint - 8
    requests: List[Request] = []
    for _ in range(count):
        lpa = zipf_index(rng, upper, 0.85)
        op = "W" if rng.random() < 0.6 else "R"
        requests.append((op, lpa, rng.randint(1, 8)))
    return requests


def read_lookup_requests(rng: random.Random, footprint: int, count: int) -> List[Request]:
    """95% uniform-random reads of 1/4/16 pages, 5% small Zipf writes."""
    requests: List[Request] = []
    for _ in range(count):
        if rng.random() < 0.95:
            npages = rng.choice((1, 4, 16))
            requests.append(("R", rng.randrange(footprint - npages), npages))
        else:
            requests.append(("W", zipf_index(rng, footprint - 4, 0.85), rng.randint(1, 4)))
    return requests


def seq_stream_requests(rng: random.Random, logical_pages: int, count: int) -> List[Request]:
    """64-page commands: three sequential writes to one read of written data.

    The write cursor wraps the logical space many times.  After the first
    lap every 48th write skips an extent, which keeps its data from the
    previous lap: GC victims are fully invalid but for those few pages
    (reclaim is erase-dominated, WAF stays within a few percent of 1).
    The skips are counted, not drawn, so WAF and the table's size do not
    move with the seed's luck; the seed sets where the cursor starts and
    which extents are read.
    """
    extent = 64
    slots = logical_pages // extent
    cursor = rng.randrange(slots)
    written = 0
    requests: List[Request] = []
    for index in range(count):
        if index % 4 == 3:
            # Read one of the extents written so far (all of them once the
            # cursor has wrapped).
            back = rng.randrange(1, min(written, slots) + 1)
            requests.append(("R", ((cursor - back) % slots) * extent, extent))
        else:
            if written >= slots and written % 48 == 0:
                cursor = (cursor + 1) % slots
            requests.append(("W", cursor * extent, extent))
            cursor = (cursor + 1) % slots
            written += 1
    return requests


def tenant_requests(
    rng: random.Random, reader_pages: int, writer_pages: int, count: int
) -> Tuple[List[IORequest], List[IORequest]]:
    """Open-loop reader (Zipf-0.9, 16-page reads) and bursty 32-page writer.

    Namespace-relative LPAs.  The reader sends one command every 200 us;
    the writer sends bursts of 8 sequential 32-page writes 30 us apart, one
    burst every 20 ms, cycling over its namespace from a seeded start
    offset and skipping a 32-page slot before every 12th write, so
    background GC finds victims with a few valid pages left to migrate.  Both streams span the
    same simulated time, so 2 commands in 27 are the writer's.  The
    writer's mean rate (12.8k pages/s) is about 60% of what one open
    block's channel can program: bursts overrun the device for a while,
    the backlog drains before the next one.
    """
    writer_count = max(8, count * 2 // 27)
    reader_count = count - writer_count
    reader = [
        IORequest("R", zipf_index(rng, reader_pages - 16, 0.9), 16, timestamp_us=i * 200.0)
        for i in range(reader_count)
    ]
    writer: List[IORequest] = []
    slots = writer_pages // 32
    cursor = rng.randrange(slots)
    clock = 0.0
    for index in range(writer_count):
        if index % 12 == 11:
            cursor = (cursor + 1) % slots
        writer.append(IORequest("W", cursor * 32, 32, timestamp_us=clock))
        cursor = (cursor + 1) % slots
        clock += 20_000.0 - 7 * 30.0 if index % 8 == 7 else 30.0
    return reader, writer


def digest_of(lists: Sequence[Sequence[ReplayItem]]) -> str:
    """SHA-256 over the canonical text of the request lists, in order."""
    sha = hashlib.sha256()
    for requests in lists:
        for request in requests:
            record: Tuple[object, ...] = (
                request.as_tuple() + (request.timestamp_us.hex(),)
                if isinstance(request, IORequest)
                else request
            )
            sha.update(repr(record).encode("ascii"))
            sha.update(b"\n")
        sha.update(b"--\n")
    return sha.hexdigest()


def _written(requests: Sequence[ReplayItem], base_lpa: int = 0) -> Set[int]:
    lpas: Set[int] = set()
    for request in requests:
        op, lpa, npages = request.as_tuple() if isinstance(request, IORequest) else request
        if op == "W":
            lpas.update(range(base_lpa + lpa, base_lpa + lpa + npages))
    return lpas


# --------------------------------------------------------------------------- #
# Set-up: build, age, quiesce
# --------------------------------------------------------------------------- #
def prepare(name: str, seed: int, scale: float = 1.0, telemetry: str = "off") -> Prepared:
    """Generate the workload's requests and bring its device to the start line.

    Everything in here is ``setup_s``; the returned ``replay`` callable is
    the timed region.
    """
    started = time.process_time()
    spec = SPECS[name]
    # One stream per (workload, seed): string seeds hash stably in Random.
    rng = random.Random(f"ledger/{name}/{seed}")
    ssd = build_device(spec, scale, telemetry)
    logical_pages = ssd.config.logical_pages
    count = request_count(spec, scale)
    host: Optional[HostInterface] = None

    if spec.tenants:
        reader_pages = int(logical_pages * READER_SHARE)
        writer_pages = logical_pages - reader_pages
        prefill = int(writer_pages * WRITER_PREFILL) // 64 * 64
        aging: List[Request] = [("W", lpa, 64) for lpa in range(0, reader_pages, 64)]
        aging += [("W", reader_pages + lpa, 64) for lpa in range(0, prefill, 64)]
        reader, writer = tenant_requests(rng, reader_pages, writer_pages, count)
        digest = digest_of([aging, reader, writer])
        written = _written(aging) | _written(writer, base_lpa=reader_pages)
        host = HostInterface(ssd)
        host.add_namespace(
            "reader", size_pages=reader_pages, weight=8, slo_read_us=READER_SLO_US
        )
        host.add_namespace("writer", weight=1, priority=1)
        tenants = {"reader": Trace("reader", reader), "writer": Trace("writer", writer)}
        bound_host = host

        def replay() -> None:
            bound_host.run(tenants)

    else:
        if spec.aged:
            aging = aging_requests(rng, logical_pages)
            footprint = aged_footprint(logical_pages)
            generate = (
                steady_mixed_requests if name == "steady_mixed" else read_lookup_requests
            )
            measured = generate(rng, footprint, count)
        else:
            aging = []
            measured = seq_stream_requests(rng, logical_pages, count)
        digest = digest_of([aging, measured])
        written = _written(aging) | _written(measured)

        def replay() -> None:
            ssd.run(measured)

    if aging:
        # Serial path regardless of the workload's queue depth: aging is
        # state preparation, not something the ledger measures.
        ssd.run(aging, queue_depth=1)
    ssd.quiesce()
    ssd.begin_measurement()
    if host is not None:
        host.reset_stats()
    return Prepared(
        ssd=ssd,
        host=host,
        replay=replay,
        requests=count,
        written_lpas=written,
        digest=digest,
        gamma=spec.gamma,
        setup_s=time.process_time() - started,
    )
