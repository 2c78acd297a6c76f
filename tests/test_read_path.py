"""Differential tests for the one read path: sensing by the channel chunk.

The device senses each channel chunk of a read run in one
``FlashArray.read_chunk`` call, which checks every predicted page's reverse
mapping from the page array and asks the device for a misprediction's
correction reads (``SimulatedSSD._misprediction_reads``) only when that check
fails.  Its reference is the per-page path it replaced, kept here as a
test-only subclass: per page, ``_read_resolved_page`` senses through
``FlashArray.read_page``, ``_timed_host_read`` accounts the stall and
``_correct_misprediction`` reads the sensed page's OOB window and then the
fix, each read one scheduler reservation.  Both devices replay the same
histories on a tiny aged device, and everything observable must be equal:
per-page latencies, flash counters, device / FTL / LeaFTL stats, every
channel's timeline, the scheduler probe's stream and the breakdown dicts.

Both follow one rule: a page answers for an LPA only while it is VALID.
The whole-device machine's read oracle (``tests/test_device_machine.py``)
checks the device against the ground truth after every batch: each host
read's last sensed page is the LPA's live page, and the FTL predicts every
live LPA within ±gamma of it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, fields, replace
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.flash.flash_array import PageState
from repro.ftl.pagemap import PageLevelFTL
from repro.ssd.ssd import SimulatedSSD, SimulationError, SSDOptions
from repro.ssd.stats import LatencyRecorder
from tests.test_device_machine import (
    FixCounting, answers_for, check_fix_bound, check_predictions, check_reads,
)

KB = 1024
#: 512 logical pages on 28 channels of two 16-page blocks: a read run
#: crosses blocks and channels often, a ±4 window reaches the neighbouring
#: block from half of a block's pages, and every other block edge is a
#: channel edge, so some fixes read on another channel than the sensed
#: page.  The spare space keeps background GC ahead of the write bursts on
#: so small a device.
CONFIG = SSDConfig(
    capacity_bytes=512 * 4 * KB,
    pages_per_block=16,
    channels=28,
    dies_per_channel=2,
    write_buffer_bytes=8 * 4 * KB,
    overprovisioning=0.4,
)
#: LPAs at or above this are never written: their reads are unmapped.
WRITTEN = 400


class _PerPageReference(SimulatedSSD):
    """The read path before chunked sensing, page by page (the reference)."""

    def _read_run_from_flash(
        self, pages: Sequence[int], start: float, want_attr: bool
    ) -> Tuple[float, Optional[Dict[str, float]]]:
        ftl_stats = self.ftl.stats
        reads, writes = ftl_stats.translation_page_reads, ftl_stats.translation_page_writes
        predicted = self.ftl.translate_range(pages[0], len(pages))
        clock = self._charge_translation(start, reads, writes, foreground=True)
        translate_us = clock - start if clock > start else 0.0
        stats = self.stats
        finish = start
        critical: Optional[Dict[str, float]] = None
        latencies: List[float] = []
        sensed: List[int] = []
        chunks: Dict[int, List[Tuple[int, int]]] = {}
        for page, ppa in zip(pages, predicted):
            if ppa is None:
                stats.unmapped_reads += 1
                latency = translate_us + self.config.dram_latency_us
                latencies.append(latency)
                finish = start + latency
                if want_attr:
                    critical = {"dram_us": self.config.dram_latency_us}
                continue
            channel = min(max(ppa, 0), self._total_pages - 1) // self._pages_per_channel
            chunks.setdefault(channel, []).append((page, ppa))
        for channel in sorted(chunks):
            for page, ppa in chunks[channel]:
                page_attr: Optional[Dict[str, float]] = {} if want_attr else None
                page_finish = self._read_resolved_page(page, ppa, clock, page_attr)
                sensed.append(page)
                latencies.append(page_finish - start)
                if page_finish >= finish:
                    finish = page_finish
                    critical = page_attr
        stats.flash_reads_for_host += len(sensed)
        self.cache.insert_many(sensed)
        stats.read_latency.record_many(latencies)
        if critical is not None and translate_us > 0.0:
            critical["translate_us"] = translate_us
        return finish, critical

    def _timed_host_read(
        self, ppa: int, clock: float, page_attr: Optional[Dict[str, float]]
    ) -> float:
        finish = self.flash.read_page(ppa, now_us=clock)
        stall = finish - clock - self.config.read_latency_us
        if stall > 0.0:
            self.stats.read_stall_us += stall
        if page_attr is not None:
            nand_us = finish - clock
            if stall > 0.0:
                page_attr["gc_wait_us" if self.gc.active else "chan_wait_us"] = stall
                nand_us -= stall
            page_attr["nand_us"] = nand_us
        return finish

    def _read_resolved_page(
        self, lpa: int, ppa: int, clock: float, page_attr: Optional[Dict[str, float]]
    ) -> float:
        flash = self.flash
        sensed: Optional[int] = ppa
        if not 0 <= ppa < self._total_pages or flash.is_free(ppa):
            sensed = self._nearest_page(ppa)
            if sensed is None:
                self._fail(lpa, ppa)
        finish = self._timed_host_read(sensed, clock, page_attr)
        if not answers_for(self, sensed, lpa):
            corrected = self._correct_misprediction(lpa, ppa, sensed, finish)
            if page_attr is not None and corrected > finish:
                page_attr["extra_read_us"] = corrected - finish
            finish = corrected
        return finish

    def _nearest_page(self, predicted_ppa: int) -> Optional[int]:
        gamma = max(self._oob_window, 1)
        for distance in range(0, gamma + 1):
            for candidate in (predicted_ppa - distance, predicted_ppa + distance):
                if 0 <= candidate < self._total_pages and not self.flash.is_free(candidate):
                    return candidate
        return None

    def _correct_misprediction(
        self, lpa: int, predicted_ppa: int, read_ppa: int, clock: float
    ) -> float:
        self.stats.mispredictions += 1
        window = self.flash.oob_window_of(read_ppa)
        for correct_ppa in self.ftl.resolve_misprediction(lpa, read_ppa, window):
            if 0 <= correct_ppa < self._total_pages and answers_for(self, correct_ppa, lpa):
                self.stats.misprediction_extra_reads += 1
                return self.flash.read_page(correct_ppa, now_us=clock)
        gamma = max(self._oob_window, 1)
        finish = clock
        for candidate in range(predicted_ppa - gamma, predicted_ppa + gamma + 1):
            if candidate == read_ppa or not 0 <= candidate < self._total_pages:
                continue
            if self.flash.is_free(candidate):
                continue
            finish = self.flash.read_page(candidate, now_us=finish)
            self.stats.misprediction_extra_reads += 1
            if answers_for(self, candidate, lpa):
                return finish
        self._fail(lpa, predicted_ppa)

    def _fail(self, lpa: int, predicted_ppa: int) -> NoReturn:
        raise SimulationError(f"unrecoverable misprediction for LPA {lpa}: {predicted_ppa}")


class _Breakdowns:
    """A telemetry stand-in that keeps only what the device reports."""

    wants_breakdowns = True

    def __init__(self) -> None:
        self.requests: List[Tuple[List[Tuple[str, float]], float, float]] = []

    def note_request_breakdown(
        self, components: Dict[str, float], start: float, finish: float
    ) -> None:
        self.requests.append((list(components.items()), start, finish))

    def note_translation(self, *args: object) -> None:
        pass

    def pump(self, now_us: float) -> None:
        pass

    def observe(self, event: object) -> None:
        pass

    def finalize(self, end_us: float) -> None:
        pass


def aging(rng: random.Random) -> List[Tuple[str, int, int]]:
    """A fill, then overwrites until blocks were reclaimed."""
    history = [("W", lpa, 8) for lpa in range(0, WRITTEN, 8)]
    return history + [("W", rng.randrange(WRITTEN - 8), rng.randint(1, 8)) for _ in range(200)]


def aged_device(cls: type, gamma: int, gc_mode: str, history) -> SimulatedSSD:
    ssd = cls(
        CONFIG,
        LeaFTL(LeaFTLConfig(gamma=gamma, compaction_interval_writes=400)),
        dram_budget=DRAMBudget(dram_bytes=1, min_cache_bytes=2 * 4 * KB),
        options=SSDOptions(gc_mode=gc_mode),
    )
    ssd.run(history, queue_depth=1)
    ssd.quiesce()
    return ssd


def aged_pair(gamma: int, gc_mode: str, seed: int) -> Tuple[SimulatedSSD, SimulatedSSD]:
    """Two identical aged devices, probe and breakdowns on."""
    history = aging(random.Random(seed))
    devices = []
    for cls in (FixCounting, _PerPageReference):
        ssd = aged_device(cls, gamma, gc_mode, history)
        ssd.set_telemetry(_Breakdowns())
        spans: List[Tuple[int, float, float]] = []
        ssd.scheduler.probe = lambda *span, spans=spans: spans.append(span)
        ssd.probe_spans = spans  # type: ignore[attr-defined]
        devices.append(ssd)
    return devices[0], devices[1]


def _recorder(recorder: LatencyRecorder) -> tuple:
    return (recorder.count, recorder.total_us, recorder.max_us, recorder.samples())


def observed(ssd: SimulatedSSD) -> dict:
    stats = {
        field.name: _recorder(value) if isinstance(value, LatencyRecorder) else value
        for field in fields(ssd.stats)
        for value in (getattr(ssd.stats, field.name),)
    }
    channels = range(ssd.config.channels)
    return {
        "stats": stats,
        "flash": asdict(ssd.flash.counters),
        "ftl": asdict(ssd.ftl.stats),
        "leaftl": asdict(ssd.ftl.lea_stats),
        "busy_until": [ssd.scheduler.busy_until(channel) for channel in channels],
        "bus_time": [ssd.scheduler.bus_time_us(channel) for channel in channels],
        "probe": ssd.probe_spans,
        "breakdowns": ssd.telemetry.requests,
        "cache": list(ssd.cache),
        "now_us": ssd.now_us,
    }


def replay_both(gamma: int, gc_mode: str, seed: int, batches, queue_depth: int) -> FixCounting:
    chunked, reference = aged_pair(gamma, gc_mode, seed)
    assert observed(chunked) == observed(reference)
    for batch in batches:
        for ssd in (chunked, reference):
            ssd.run(batch, drain=False, queue_depth=queue_depth)
            check_predictions(ssd, gamma)  # on both, so their stats stay equal
        assert observed(chunked) == observed(reference), batch
        check_reads(chunked)
    check_fix_bound(chunked, gamma)
    return chunked


lpas = st.integers(min_value=0, max_value=CONFIG.logical_pages - 1)
command = st.one_of(
    st.tuples(st.just("R"), lpas, st.integers(min_value=1, max_value=24)),
    st.tuples(st.just("W"), lpas, st.integers(min_value=1, max_value=8)),
)


@pytest.mark.parametrize("gamma", [0, 1, 4])
@given(
    batches=st.lists(st.lists(command, min_size=1, max_size=12), min_size=1, max_size=4),
    gc_mode=st.sampled_from(["sync", "background"]),
    queue_depth=st.sampled_from([1, 4]),
    seed=st.integers(0, 3),
)
@settings(max_examples=20, deadline=None)
def test_chunked_reads_equal_the_per_page_reference(gamma, batches, gc_mode, queue_depth, seed):
    """Runs crossing block and channel edges, unmapped LPAs, reads queued
    behind flushes and background GC, with the probe and breakdowns on."""
    replay_both(gamma, gc_mode, seed, batches, queue_depth)


@pytest.mark.parametrize("gamma", [1, 4])
def test_chunked_reads_equal_the_reference_through_stale_edge_windows(gamma):
    """A long history that reaches every branch of the read path.

    Blocks are reclaimed and reprogrammed under pages whose OOB windows
    still name their old LPAs, so some corrections fail over to the window
    scan; the coverage asserts keep the history honest.
    """
    rng = random.Random(33)
    batches = [
        [
            ("W", rng.randrange(CONFIG.logical_pages), rng.randint(1, 8))
            if rng.random() < 0.2
            else ("R", rng.randrange(CONFIG.logical_pages), rng.randint(1, 24))
            for _ in range(40)
        ]
        for _ in range(12)
    ]
    ssd = replay_both(gamma, "background", 3, batches, 4)
    stats, lea = ssd.stats, ssd.ftl.lea_stats
    assert stats.unmapped_reads > 0
    assert stats.gc_block_erases > 0
    assert stats.read_stall_us > 0.0
    assert lea.oob_corrections > 0
    assert any(reads == 1 for named, reads in ssd.fixes if named)
    assert ssd.cross_channel_fixes > 0
    assert lea.oob_correction_failures > 0
    assert any(reads > 1 for _, reads in ssd.fixes) or gamma == 1
    components = {name for parts, _, _ in ssd.telemetry.requests for name, _ in parts}
    assert {"nand_us", "chan_wait_us", "gc_wait_us", "extra_read_us", "dram_us"} <= components


def test_a_window_naming_the_lpa_twice_lands_on_the_valid_copy():
    """Page 7's window names LPA 30 at PPA 3 (superseded) and at PPA 6 (live):
    the fix reads 6, with one extra read."""
    ssd = FixCounting(
        replace(SSDConfig.tiny(), write_buffer_bytes=16 * KB), LeaFTL(LeaFTLConfig(gamma=4))
    )
    for lpa in (10, 11, 12, 30, 4, 5, 30, 31):  # two 4-page flushes
        ssd.write(lpa)
    assert ssd.live_mappings()[30] == 6
    assert ssd.flash.page_state(3) is PageState.INVALID and ssd.flash.lpa_of(3) == 30
    window = ssd.flash.oob_window_of(7)
    assert window.tolist() == [30, 4, 5, 30, 31]
    assert LeaFTL(LeaFTLConfig(gamma=4)).resolve_misprediction(30, 7, window) == [3, 6]
    assert ssd.ftl.translate_range(30, 1) == [7]
    ssd.cache.invalidate(30)
    ssd.read(30)
    assert ssd.last_sensed == [(30, 6, 6)]
    assert ssd.fixes == [(True, 1)]


#: Histories whose reads predict an LPA onto a superseded (INVALID) copy
#: of it: (gamma, seed, LPAs written and read, read share, pages per
#: command at most, commands) and the (LPA, stale page, live page) hit.
#: Since reclaim carries whole segments instead of refitting them, the
#: gamma 1 case of the gamma 4 history (272 predicted at 544, live at 543)
#: no longer occurs; a hot 24-LPA range reproduces the condition there.
SUPERSEDED_HITS = [
    ((1, 159, 24, 0.7, 8, 600), (14, 240, 239)),
    ((4, 8, 500, 0.6, 16, 300), (272, 544, 543)),
]


@pytest.mark.parametrize("history, hit", SUPERSEDED_HITS, ids=["1", "4"])
def test_a_prediction_on_a_superseded_copy_is_a_misprediction(history, hit):
    """Predicted on a page that still holds the LPA but is INVALID (the live
    copy is its neighbour): the read is a misprediction fixed on the live
    page, not a hit on the stale one."""
    gamma, seed, lpas, reads, pages, count = history
    lpa, stale, live = hit
    rng = random.Random(seed)
    ssd = aged_device(FixCounting, gamma, "sync", aging(rng))
    requests = [
        ("R" if rng.random() < reads else "W", rng.randrange(lpas), rng.randint(1, pages))
        for _ in range(count)
    ]
    stale_hits = []
    real = ssd._misprediction_reads

    def watch(read_lpa: int, ppa: int) -> Tuple[int, Sequence[int]]:
        if (read_lpa, ppa) == (lpa, stale):
            stale_hits.append((ssd.flash.page_state(stale), ssd.live_mappings()[lpa]))
        return real(read_lpa, ppa)

    ssd._misprediction_reads = watch  # type: ignore[method-assign]
    ssd.run(requests, queue_depth=4)
    check_reads(ssd)
    assert stale_hits and set(stale_hits) == {(PageState.INVALID, live)}
    check_fix_bound(ssd, gamma)


class _Mispredicts(PageLevelFTL):
    """An exact page map with a ±gamma OOB window that predicts one LPA at a
    chosen PPA; its OOB names nothing, so every fix is the error-window scan."""

    def __init__(self, gamma: int) -> None:
        super().__init__()
        self.gamma = gamma
        self.wrong: Dict[int, int] = {}

    def oob_window(self) -> int:
        return self.gamma

    def translate_range(self, lpa: int, npages: int) -> List[Optional[int]]:
        ppas = super().translate_range(lpa, npages)
        for page, ppa in self.wrong.items():
            if lpa <= page < lpa + npages:
                ppas[page - lpa] = ppa
        return ppas


@pytest.mark.parametrize(
    "flushes, lpa, predicted, live, reads",
    [
        # The scan from PPA 2 passes LPA 30's superseded copy at 3 on the way to 6.
        ([[10, 11, 12, 30], [4, 5, 30, 31]], 30, 2, 6, 6),
        # Predicted off the array: the nearest programmed page, 0, is LPA 10's
        # superseded copy, so the read is a misprediction fixed at 1.
        ([[10], [10]], 10, -1, 1, 1),
    ],
)
def test_the_scan_and_the_nearest_page_skip_a_superseded_copy(flushes, lpa, predicted, live, reads):
    ftl = _Mispredicts(gamma=4)
    ssd = FixCounting(replace(SSDConfig.tiny(), write_buffer_bytes=16 * KB), ftl)
    for batch in flushes:
        for page in batch:
            ssd.write(page)
        ssd.flush()
    assert ssd.live_mappings()[lpa] == live
    ftl.wrong[lpa] = predicted
    ssd.cache.invalidate(lpa)
    ssd.read(lpa)
    assert ssd.last_sensed == [(lpa, live, live)]
    assert ssd.fixes == [(False, reads)]
