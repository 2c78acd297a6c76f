"""``[micro]`` metrics: each layer's public API driven alone, seeded inputs.

Every figure is operations per host second, the median of
:data:`REPEATS` slices of at least ``slice_s`` seconds each
(``core.table_compact_s`` is the median of five single compactions).  A
*body* performs one fixed batch of work and returns ``(operations, seconds
spent inside the layer calls)``; preparation a body needs between batches
(erasing the flash half it just invalidated, rebuilding a table) is not
timed.  The host clock is CPU time, as for the end-to-end host metrics.

These numbers say how fast a layer *can* go; the traced pass says how much
of a replay it *does* take.  A layer change should move both.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.config import LeaFTLConfig, SSDConfig
from repro.core.mapping_table import LogStructuredMappingTable
from repro.core.plr import PLRLearner
from repro.flash.flash_array import FlashArray
from repro.host.arbiter import WeightedRoundRobinArbiter
from repro.sim.events import Event, EventLoop
from repro.sim.nand import NANDScheduler
from repro.ssd.cache import LRUDataCache
from repro.ssd.write_buffer import WriteBuffer

from benchmarks.ledger.workloads import prepare, zipf_index

REPEATS = 5
clock = time.process_time

Body = Callable[[], Tuple[int, float]]
Mappings = List[Tuple[int, int]]


def median_rate(body: Body, slice_s: float) -> float:
    """Median over the slices of operations per second."""
    rates: List[float] = []
    for _ in range(REPEATS):
        operations, seconds = body()
        while seconds < slice_s:
            done, spent = body()
            operations += done
            seconds += spent
        rates.append(operations / seconds)
    return statistics.median(rates)


# --------------------------------------------------------------------------- #
# core
# --------------------------------------------------------------------------- #
BATCH = 256
TABLE_SPACE = 4_096
BATCHES = 16


def plr_batches(rng: random.Random, pattern: str) -> List[Mappings]:
    """Flush-shaped batches: ascending LPAs onto consecutive PPAs."""
    batches: List[Mappings] = []
    for index in range(BATCHES):
        base, ppa = index * 4096, index * BATCH
        if pattern == "sequential":
            lpas: Sequence[int] = range(base, base + BATCH)
        elif pattern == "strided":
            lpas = range(base, base + 4 * BATCH, 4)
        else:
            lpas = sorted(rng.sample(range(base, base + 4096), BATCH))
        batches.append([(lpa, ppa + offset) for offset, lpa in enumerate(lpas)])
    return batches


def plr_body(batches: List[Mappings]) -> Body:
    learner = PLRLearner(gamma=0)

    def body() -> Tuple[int, float]:
        started = clock()
        for batch in batches:
            learner.learn(batch)
        return BATCHES * BATCH, clock() - started

    return body


def table_batches(rng: random.Random) -> List[Mappings]:
    """Random-write flushes over a 4k-page space: levels pile up."""
    return [
        [
            (lpa, index * BATCH + offset)
            for offset, lpa in enumerate(sorted(rng.sample(range(TABLE_SPACE), BATCH)))
        ]
        for index in range(BATCHES)
    ]


def populated_table(batches: List[Mappings]) -> LogStructuredMappingTable:
    table = LogStructuredMappingTable(LeaFTLConfig(gamma=4))
    for batch in batches:
        table.update(batch)
    return table


def table_update_body(batches: List[Mappings]) -> Body:
    def body() -> Tuple[int, float]:
        table = LogStructuredMappingTable(LeaFTLConfig(gamma=4))
        started = clock()
        for batch in batches:
            table.update(batch)
        return BATCHES * BATCH, clock() - started

    return body


def table_lookup_body(table: LogStructuredMappingTable, lpas: List[int]) -> Body:
    def body() -> Tuple[int, float]:
        lookup = table.lookup
        started = clock()
        for lpa in lpas:
            lookup(lpa)
        return len(lpas), clock() - started

    return body


def table_lookup_range_body(table: LogStructuredMappingTable, lpas: List[int]) -> Body:
    def body() -> Tuple[int, float]:
        lookup_range = table.lookup_range
        started = clock()
        for lpa in lpas:
            lookup_range(lpa, 16)
        return 16 * len(lpas), clock() - started

    return body


def table_compact_seconds(batches: List[Mappings]) -> float:
    seconds: List[float] = []
    for _ in range(REPEATS):
        table = populated_table(batches)
        started = clock()
        table.compact()
        seconds.append(clock() - started)
    return statistics.median(seconds)


# --------------------------------------------------------------------------- #
# flash
# --------------------------------------------------------------------------- #
class FlashHalves:
    """A 64-block array whose live data ping-pongs between its two halves.

    Programming one half names the other half's pages as the old copies,
    so the timed ``program_run`` calls do the invalidation the write path
    does, and the half left fully invalid is erased (untimed) for the next
    round.
    """

    PAGES_PER_BLOCK = 128
    HALF_BLOCKS = 32

    def __init__(self) -> None:
        pages = 2 * self.HALF_BLOCKS * self.PAGES_PER_BLOCK
        config = SSDConfig(
            capacity_bytes=pages * 4096,
            pages_per_block=self.PAGES_PER_BLOCK,
            channels=8,
            dies_per_channel=4,
            overprovisioning=0.0,
        )
        self.flash = FlashArray(config)
        if self.flash.geometry.total_blocks != 2 * self.HALF_BLOCKS:
            raise AssertionError("micro flash array geometry drifted")
        self.half_pages = self.HALF_BLOCKS * self.PAGES_PER_BLOCK
        self.live_half = 1
        self.program()  # first round: nothing to invalidate yet

    def program(self) -> Tuple[int, float]:
        flash, per_block = self.flash, self.PAGES_PER_BLOCK
        target = 1 - self.live_half
        target_base, old_base = target * self.half_pages, self.live_half * self.half_pages
        first_round = flash.counters.page_writes == 0
        spent = 0.0
        for block in range(self.HALF_BLOCKS):
            start = block * per_block
            lpas = list(range(start, start + per_block))
            old: List = [None] * per_block if first_round else [old_base + lpa for lpa in lpas]
            started = clock()
            flash.program_run(target_base + start, lpas, old, 0, {}, 0.0)
            spent += clock() - started
        if not first_round:
            for block in range(self.HALF_BLOCKS):
                flash.erase_block(self.live_half * self.HALF_BLOCKS + block)
        self.live_half = target
        return self.half_pages, spent

    def read(self) -> Tuple[int, float]:
        flash, per_block = self.flash, self.PAGES_PER_BLOCK
        base = self.live_half * self.half_pages
        runs = [
            list(range(base + block * per_block, base + (block + 1) * per_block))
            for block in range(self.HALF_BLOCKS)
        ]
        started = clock()
        for run in runs:
            flash.read_page_run(run, 0.0)
        return self.half_pages, clock() - started

    def erase(self) -> Tuple[int, float]:
        """Erase the empty half over and over (an empty block may be erased)."""
        flash = self.flash
        first = (1 - self.live_half) * self.HALF_BLOCKS
        started = clock()
        for _ in range(16):
            for block in range(first, first + self.HALF_BLOCKS):
                flash.erase_block(block, 0.0)
        return 16 * self.HALF_BLOCKS, clock() - started


# --------------------------------------------------------------------------- #
# sim, ssd, host
# --------------------------------------------------------------------------- #
def _noop(event: Event) -> None:
    return None


def event_loop_body(times: List[float]) -> Body:
    def body() -> Tuple[int, float]:
        loop = EventLoop()
        started = clock()
        schedule = loop.schedule
        for time_us in times:
            schedule(time_us, "tick", _noop)
        loop.run()
        return len(times), clock() - started

    return body


def nand_body(rng: random.Random) -> Body:
    scheduler = NANDScheduler(8, 4)
    operations = [
        (rng.randrange(8), index * 5.0, rng.randrange(4)) for index in range(20_000)
    ]

    def body() -> Tuple[int, float]:
        reserve = scheduler.reserve
        started = clock()
        for channel, at_us, die in operations:
            reserve(channel, at_us, 20.0, die=die)
        return len(operations), clock() - started

    return body


def cache_body(keys: List[int]) -> Body:
    cache = LRUDataCache(capacity_pages=512)

    def body() -> Tuple[int, float]:
        lookup, insert = cache.lookup, cache.insert
        started = clock()
        for key in keys:
            if not lookup(key):
                insert(key)
        return len(keys), clock() - started

    return body


def write_buffer_body(lpas: List[int]) -> Body:
    buffer = WriteBuffer(capacity_pages=256)

    def body() -> Tuple[int, float]:
        started = clock()
        for lpa in lpas:
            buffer.add(lpa)
            if buffer.is_full:
                buffer.drain()
        return len(lpas), clock() - started

    return body


def gc_select_body(seed: int) -> Body:
    """Victim selection on an allocator aged by the ledger's own aging pass."""
    ssd = prepare("steady_mixed", seed, scale=0.125).ssd

    def body() -> Tuple[int, float]:
        select = ssd.gc_policy.select_victims
        started = clock()
        for _ in range(100):
            select(ssd.flash, ssd.allocator)
        return 100, clock() - started

    return body


class _Queue:
    """The arbiter's view of a submission queue (``ArbitratedQueue``)."""

    def __init__(self, weight: int, order: int) -> None:
        self.weight = weight
        self.priority = order
        self._order = order

    def head_key(self) -> Tuple[float, int]:
        return (0.0, self._order)


def arbiter_body(rng: random.Random) -> Body:
    queues = [_Queue(weight, order) for order, weight in enumerate((8, 1, 2, 4))]
    arbiter = WeightedRoundRobinArbiter()
    arbiter.bind(queues)
    candidate_sets = [
        rng.sample(queues, rng.randint(1, len(queues))) for _ in range(10_000)
    ]

    def body() -> Tuple[int, float]:
        select = arbiter.select
        started = clock()
        for candidates in candidate_sets:
            select(candidates)
        return len(candidate_sets), clock() - started

    return body


def run_micro(seed: int, slice_s: float) -> Dict[str, float]:
    """Every ``[micro]`` metric by name."""
    rng = random.Random(f"ledger/micro/{seed}")
    batches = table_batches(rng)
    table = populated_table(batches)
    point_lpas = [rng.randrange(TABLE_SPACE) for _ in range(2_000)]
    range_lpas = [rng.randrange(TABLE_SPACE - 16) for _ in range(500)]
    halves = FlashHalves()
    zipf_keys = [zipf_index(rng, 65_536, 0.85) for _ in range(20_000)]
    event_times = [rng.random() * 1e6 for _ in range(10_000)]
    results = {
        f"core.plr_fit_points_per_s.{pattern}": median_rate(
            plr_body(plr_batches(rng, pattern)), slice_s
        )
        for pattern in ("sequential", "strided", "random")
    }
    results.update(
        {
            "core.table_update_pages_per_s": median_rate(table_update_body(batches), slice_s),
            "core.table_lookup_per_s": median_rate(table_lookup_body(table, point_lpas), slice_s),
            "core.table_lookup_range_pages_per_s": median_rate(
                table_lookup_range_body(table, range_lpas), slice_s
            ),
            "core.table_compact_s": table_compact_seconds(batches),
            "flash.program_run_pages_per_s": median_rate(halves.program, slice_s),
            "flash.read_run_pages_per_s": median_rate(halves.read, slice_s),
            "flash.erase_blocks_per_s": median_rate(halves.erase, slice_s),
            "sim.event_schedule_dispatch_per_s": median_rate(event_loop_body(event_times), slice_s),
            "sim.nand_reserve_per_s": median_rate(nand_body(rng), slice_s),
            "ssd.cache_insert_lookup_per_s": median_rate(cache_body(zipf_keys), slice_s),
            "ssd.write_buffer_pages_per_s": median_rate(write_buffer_body(zipf_keys), slice_s),
            "ssd.gc_select_victims_per_s": median_rate(gc_select_body(seed), slice_s),
            "host.arbiter_select_per_s": median_rate(arbiter_body(rng), slice_s),
        }
    )
    return results
