"""Differential tests for the one write path.

``submit("W", lpa, n)`` serves the whole command in one
``_write_command`` pass — buffer-fulls of pages at a time.  Its reference
is the same command issued page by page through the public one-page
entries ``write()`` / ``read()`` on a twin device: every observable piece
of state must come out identical, whatever the run straddles.
"""

from __future__ import annotations

import random
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ftl.dftl import DFTL
from repro.ssd.ssd import SimulatedSSD
from repro.ssd.stats import LatencyRecorder

KB = 1024
LOGICAL_PAGES = 512

FTLS = {
    "LeaFTL-g0": lambda: LeaFTL(LeaFTLConfig(gamma=0, compaction_interval_writes=300)),
    "LeaFTL-g4": lambda: LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=300)),
    "DFTL": lambda: DFTL(mapping_budget_bytes=64, entries_per_translation_page=8),
}


def small_device(ftl_name: str, cache_pages: int) -> SimulatedSSD:
    """512 logical pages, 16-page blocks, an 8-page write buffer."""
    config = SSDConfig(
        capacity_bytes=LOGICAL_PAGES * 4 * KB,
        pages_per_block=16,
        channels=2,
        dies_per_channel=2,
        write_buffer_bytes=8 * 4 * KB,
    )
    # The cache gets ``min_cache_bytes`` whatever the mapping table takes.
    budget = DRAMBudget(dram_bytes=1, min_cache_bytes=cache_pages * 4 * KB)
    return SimulatedSSD(config=config, ftl=FTLS[ftl_name](), dram_budget=budget)


def page_by_page(ssd: SimulatedSSD, op: str, lpa: int, npages: int) -> None:
    """The reference: one public one-page call per page, back to back."""
    if op == "W":
        for page in range(lpa, min(lpa + npages, LOGICAL_PAGES)):
            ssd.write(page)
    elif npages == 1:
        ssd.read(lpa)
    else:
        # A multi-page read is not n one-page reads (its pages issue
        # together and translate as runs), so both twins take the command.
        ssd.submit("R", lpa, npages)


def recorder_state(recorder: LatencyRecorder):
    return (
        recorder.count,
        recorder.total_us,
        recorder.max_us,
        recorder.samples(),
        recorder._rng.getstate(),
    )


def device_state(ssd: SimulatedSSD):
    stats = {}
    for field in fields(ssd.stats):
        value = getattr(ssd.stats, field.name)
        stats[field.name] = recorder_state(value) if isinstance(value, LatencyRecorder) else value
    # Only submit() clips; the reference clips by hand.
    del stats["clipped_pages"]
    return {
        "stats": stats,
        "now_us": ssd.now_us,
        "buffer": list(ssd.write_buffer._pages),
        "buffer_stats": asdict(ssd.write_buffer.stats),
        "cache": list(ssd.cache._entries.items()),
        "cache_stats": asdict(ssd.cache.stats),
        "flash": asdict(ssd.flash.counters),
        "mapping_bytes": ssd.ftl.full_mapping_bytes(),
        "ftl_stats": asdict(ssd.ftl.stats),
    }


def assert_twins_agree(ftl_name: str, cache_pages: int, commands) -> SimulatedSSD:
    commanded = small_device(ftl_name, cache_pages)
    reference = small_device(ftl_name, cache_pages)
    assert commanded.cache.capacity_pages == cache_pages
    for op, lpa, npages in commands:
        commanded.submit(op, lpa, npages)
        page_by_page(reference, op, lpa, npages)
        assert device_state(commanded) == device_state(reference), (op, lpa, npages)
    return commanded


commands_strategy = st.lists(
    st.tuples(
        st.sampled_from(["W", "W", "W", "R"]),
        # Dense low range (rewrites of buffered LPAs) or the end of the
        # logical space (clipped commands).
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=LOGICAL_PAGES - 12, max_value=LOGICAL_PAGES - 1),
        ),
        st.integers(min_value=1, max_value=28),
    ),
    max_size=40,
)


@pytest.mark.parametrize("ftl_name", FTLS)
@given(commands=commands_strategy, cache_pages=st.sampled_from([1, 6, 64]))
@settings(max_examples=30, deadline=None)
def test_command_equals_page_by_page(ftl_name, commands, cache_pages):
    """Runs straddling one or several flushes (8-page buffer, up to 28-page
    commands), rewrites of buffered LPAs, clipped tails, a one-page cache."""
    assert_twins_agree(ftl_name, cache_pages, commands)


@pytest.mark.parametrize("ftl_name", FTLS)
def test_command_equals_page_by_page_through_gc(ftl_name):
    """A history long enough to reclaim blocks under both twins."""
    rng = random.Random(16)
    commands = []
    for _ in range(700):
        op = "W" if rng.random() < 0.8 else "R"
        commands.append((op, rng.randrange(LOGICAL_PAGES), rng.choice((1, 3, 8, 19, 40))))
    ssd = assert_twins_agree(ftl_name, 6, commands)
    assert ssd.stats.gc_block_erases > 0
    assert ssd.stats.clipped_pages > 0
    assert ssd.write_buffer.stats.overwrites > 0
