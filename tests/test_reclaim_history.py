"""Reclaim on a 24-block device: histories that make every trigger fire.

The device is small enough (4 MB logical, 25 % over-provisioning, 64-page
blocks) that a hot-spot write mix reclaims all the time: one buffer flush
is a whole block, and the hard watermark is below one block.  A wear pass
and a power failure meet in the same history here, and the background
pipeline races the host for the last free blocks.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

import pytest

from repro.config import LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ssd.recovery import recover
from repro.ssd.ssd import SimulatedSSD, SSDOptions
from tests.test_device_machine import assert_gc_invariants

MB = 1024 * 1024

Request = Tuple[str, int, int]


def small_device(gc_mode: str, queue_depth: int = 1, mb: int = 4, op: float = 0.25) -> SimulatedSSD:
    config = replace(SSDConfig.tiny(), capacity_bytes=mb * MB, overprovisioning=op)
    return SimulatedSSD(
        config,
        LeaFTL(LeaFTLConfig(gamma=2)),
        options=SSDOptions(gc_mode=gc_mode, queue_depth=queue_depth),
    )


def fill(ssd: SimulatedSSD) -> List[Request]:
    n = ssd.logical_pages
    return [("W", lpa, 16) for lpa in range(0, n - 16, 16)]


def hot_spot(
    ssd: SimulatedSSD,
    seed: int,
    count: int,
    hot: int = 16,
    write_share: float = 0.9,
    max_pages: int = 8,
) -> List[Request]:
    """Short writes into the first ``1 / hot`` of the LPAs, else 4-page reads."""
    n = ssd.logical_pages
    rng = random.Random(seed)
    requests: List[Request] = []
    for _ in range(count):
        if rng.random() < write_share:
            requests.append(("W", rng.randrange(n // hot), rng.randint(1, max_pages)))
        else:
            requests.append(("R", rng.randrange(n - 8), 4))
    return requests


def test_wear_passes_survive_a_power_failure():
    """The wear window is device history: a crash between two passes must
    neither restart nor lose it.  Every pass migrates into the cold stream,
    and every acked LPA reads back at the end."""
    ssd = small_device("sync")
    ssd.run(fill(ssd))
    history = hot_spot(ssd, seed=5, count=8000)
    pages_per_block = ssd.flash.geometry.pages_per_block
    purposes: List[str] = []
    cold_pages = [0]

    program_batch = ssd._program_batch

    def tagged_batch(lpas, purpose, at_us=None):
        purposes.append(purpose)
        try:
            return program_batch(lpas, purpose=purpose, at_us=at_us)
        finally:
            purposes.pop()

    program_run = ssd.flash.program_run

    def watched_run(first_ppa, lpas, *args):
        if purposes and purposes[-1] == "wear":
            block = first_ppa // pages_per_block
            assert ssd.allocator.stream_block("cold") == block
            assert ssd.allocator.stream_block("hot") != block
            cold_pages[0] += len(lpas)
        return program_run(first_ppa, lpas, *args)

    ssd._program_batch = tagged_batch
    ssd.flash.program_run = watched_run

    ssd.run(history[:4000])
    assert ssd.stats.wl_page_moves == 64
    oracle = ssd.power_fail()
    recover(ssd, "oob_scan")
    assert ssd.live_mappings() == oracle
    ssd.run(history[4000:])

    assert ssd.stats.wl_page_moves == 128
    assert cold_pages[0] == 128
    assert ssd.flash.counters.block_erases == 195
    assert_gc_invariants(ssd)
    for lpa in ssd.live_mappings():
        ssd.read(lpa)


def test_hard_watermark_covers_a_flush_and_two_blocks():
    """On 24 blocks 4 % is under one block, so urgent reclaim used to start
    only once the pool was empty.  The floor is one flush (one block here)
    plus the pipeline's in-flight migration plus urgent reclaim's own
    destination: three blocks."""
    ssd = small_device("background")
    allocator = ssd.allocator
    assert allocator.total_blocks == 24
    assert ssd.config.write_buffer_pages == ssd.flash.geometry.pages_per_block
    while allocator.free_block_count() > 3:
        allocator.allocate_block()
    assert not ssd.gc.below_hard_watermark()
    allocator.allocate_block()
    assert ssd.gc.below_hard_watermark()


def test_background_reclaim_keeps_a_small_device_writable():
    """The reproduction: background reclaim let a host flush run out of
    blocks while six fully invalid blocks waited for the pipeline."""
    ssd = small_device("background", queue_depth=4)
    ssd.run(fill(ssd))
    ssd.run(hot_spot(ssd, seed=1, count=8000))
    assert ssd.stats.gc_urgent_collections > 0
    assert not ssd.gc.active
    assert_gc_invariants(ssd)
    for lpa in ssd.live_mappings():
        ssd.read(lpa)


def test_urgent_reclaim_counts_progress_in_pages():
    """Garbage spread thin (victims about half valid): a batch whose
    migration opens a fresh cold block frees no block net, yet leaves that
    block's room to the next batch.  Stopping there, as a block count did,
    left the pool a block short and the reclaim itself ran dry."""
    ssd = small_device("background", queue_depth=8, op=0.15)
    assert ssd.allocator.total_blocks == 20
    ssd.run(fill(ssd))
    ssd.run(hot_spot(ssd, seed=491, count=3000, hot=4, write_share=0.5, max_pages=16))
    assert ssd.stats.gc_urgent_collections > 0
    assert_gc_invariants(ssd)


#: The background runs of the 4 / 5 / 6 MB x OP 0.2 / 0.25 / 0.3 x depth
#: 2 / 4 / 8 x seed 1-2 sweep that ran out of blocks, each replayed a
#: little past the request it died at; synchronous reclaim survived all 54
#: runs.  All 16 are 4 MB devices, and OP 0.3 rounds to the same 24 blocks
#: as OP 0.25 (``test_op_03_is_the_op_025_device``), so its five failures
#: replay the five listed here request for request.
SWEEP_FAILURES = [
    # (op, queue depth, seed, requests)
    (0.2, 2, 1, 1000),
    (0.2, 2, 2, 500),
    (0.2, 4, 1, 500),
    (0.2, 4, 2, 1000),
    (0.2, 8, 1, 500),
    (0.2, 8, 2, 500),
    (0.25, 2, 1, 7000),
    (0.25, 4, 1, 2000),
    (0.25, 4, 2, 3000),
    (0.25, 8, 1, 1500),
    (0.25, 8, 2, 2500),
]


def test_op_03_is_the_op_025_device():
    a, b = small_device("background", op=0.25), small_device("background", op=0.3)
    assert a.config.total_blocks == b.config.total_blocks == 24
    assert a.logical_pages == b.logical_pages


@pytest.mark.parametrize("op, queue_depth, seed, requests", SWEEP_FAILURES)
def test_background_reclaim_survives_the_small_device_sweep(op, queue_depth, seed, requests):
    ssd = small_device("background", queue_depth=queue_depth, op=op)
    ssd.run(fill(ssd))
    ssd.run(hot_spot(ssd, seed=seed, count=8000)[:requests])
    assert_gc_invariants(ssd)
