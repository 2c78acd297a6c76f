"""Tests for first-class multi-page commands and open-loop replay.

Covers the three layers of the refactor:

* ``FTL.translate_range`` — the one translation method: batched accounting
  (one lookup per mapping structure resolution, one translation-page fetch
  per chunk) and, above all, *equivalence*: the batched PPAs must match
  one-page lookups (LeaFTL's Algorithm-1 ``translate``) even when newer
  segments shadow older ones mid-run;
* ``SimulatedSSD.submit`` — one read path (the device translates only
  through ``translate_range``); multi-page reads are striped across
  channels and complete faster than the serial per-page baseline, and
  direct ``read()``/``write()`` calls stay bit-exact with ``run()``;
* open-loop replay — requests admitted at (scaled) trace timestamps, with
  latency measured against arrival times.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.config import LeaFTLConfig
from repro.core.leaftl import LeaFTL
from repro.ftl.dftl import DFTL
from repro.ftl.pagemap import PageLevelFTL
from repro.ftl.sftl import SFTL
from repro.obs.registry import device_snapshot
from repro.sim.events import EventLoop
from repro.sim.frontend import OpenLoopFrontend
from repro.ssd.ssd import SSDOptions
from repro.workloads.trace import IORequest, Trace
from tests.conftest import make_ssd


# --------------------------------------------------------------------------- #
# translate_range: batched accounting and per-page equivalence
# --------------------------------------------------------------------------- #
#: Every built-in FTL, by name; ``budget`` is the mapping budget in bytes
#: (LeaFTL and PageMap are unbudgeted).
FTL_FACTORIES = {
    "LeaFTL": lambda budget=None: LeaFTL(LeaFTLConfig(gamma=4)),
    "DFTL": lambda budget=None: DFTL(mapping_budget_bytes=budget, entries_per_translation_page=4),
    "SFTL": lambda budget=None: SFTL(
        mapping_budget_bytes=budget, entries_per_translation_page=4
    ),
    "PageMap": lambda budget=None: PageLevelFTL(),
}


class TestTranslateRangeContract:
    @pytest.mark.parametrize("name", FTL_FACTORIES)
    @pytest.mark.parametrize("npages", [0, -3])
    def test_rejects_non_positive_npages(self, name, npages):
        ftl = FTL_FACTORIES[name]()
        ftl.update_batch([(lpa, 10 + lpa) for lpa in range(8)])
        with pytest.raises(ValueError):
            ftl.translate_range(0, npages)


class TestFTLContract:
    """The contract of ``ftl/base.py`` as the device calls it, per scheme."""

    #: ``stats.lookups`` of ``translate_range(8, 8)`` after LPAs 0..63 went
    #: in as one ascending batch: one learned segment, two 4-entry
    #: translation pages (the factories' page size), one table probe.
    LOOKUPS_OF_AN_8_PAGE_RUN = {"LeaFTL": 1, "DFTL": 2, "SFTL": 2, "PageMap": 1}

    @pytest.mark.parametrize("name", FTL_FACTORIES)
    def test_update_translate_rebuild_agree_with_a_dict(self, name):
        """``update_batch`` → ``translate_range`` → ``rebuild_from_oob`` →
        ``translate_range`` against a dict oracle; ``updates`` charged once
        per pair, ``lookups`` once per resolution (never more than once per
        page), the rebuild charge-free.  gamma = 0 so LeaFTL is exact, a
        64-byte budget so DFTL / SFTL evict throughout."""
        rng = random.Random(11)
        ftl = LeaFTL(LeaFTLConfig(gamma=0)) if name == "LeaFTL" else FTL_FACTORIES[name](64)
        oracle, next_ppa, pairs = {}, 0, 0
        for _ in range(40):
            batch = []
            for lpa in sorted(rng.sample(range(400), rng.randint(1, 48))):
                batch.append((lpa, next_ppa))
                oracle[lpa] = next_ppa
                next_ppa += 1
            ftl.update_batch(batch)
            pairs += len(batch)
        assert ftl.stats.updates == pairs

        def check_against_oracle():
            for _ in range(150):
                lpa, npages = rng.randrange(420), rng.randint(1, 24)
                before = ftl.stats.lookups
                assert ftl.translate_range(lpa, npages) == [
                    oracle.get(page) for page in range(lpa, lpa + npages)
                ]
                assert 1 <= ftl.stats.lookups - before <= npages

        check_against_oracle()
        stats_before = dataclasses.replace(ftl.stats)
        ftl.rebuild_from_oob(sorted((lpa, ppa) for lpa, ppa in oracle.items()))
        assert ftl.stats == stats_before
        check_against_oracle()
        assert ftl.stats.updates == pairs
        assert ftl.full_mapping_bytes() >= ftl.resident_bytes() > 0

    @pytest.mark.parametrize("name", FTL_FACTORIES)
    def test_lookups_are_charged_per_resolution_not_per_page(self, name):
        ftl = FTL_FACTORIES[name]()
        ftl.update_batch([(lpa, 1000 + lpa) for lpa in range(64)])
        ftl.translate_range(8, 8)
        assert ftl.stats.lookups == self.LOOKUPS_OF_AN_8_PAGE_RUN[name]

    def test_every_contract_method_has_a_caller_outside_the_ftls(self):
        """The contract cannot regrow uncalled methods: every public method
        ``FTL`` declares is named somewhere outside ``src/repro/ftl``,
        ``src/repro/core`` and the tests (``tools.reader_census`` counts)."""
        repo = Path(__file__).resolve().parent.parent
        if str(repo) not in sys.path:
            sys.path.insert(0, str(repo))
        from tools.reader_census import definitions, readers

        ftl_dir, core_dir = repo / "src/repro/ftl", repo / "src/repro/core"
        declared = [
            name.rsplit(".", 1)[1]
            for name in definitions(ftl_dir)[0]
            if name.startswith("base.FTL.")
        ]
        assert "translate_range" in declared and len(declared) >= 8
        outside_ftl, inside_core = readers(ftl_dir)[0], readers(core_dir)[0]["pkg"]
        uncalled = [
            method
            for method in declared
            if outside_ftl["lib"][method] - inside_core[method] + outside_ftl["examples"][method] <= 0
        ]
        assert uncalled == []


class TestLeaFTLTranslateRange:
    def _learned_ftl(self, gamma=0):
        ftl = LeaFTL(LeaFTLConfig(gamma=gamma))
        ftl.update_batch([(lpa, 1000 + lpa) for lpa in range(64)])
        return ftl

    def test_contiguous_run_charges_one_lookup(self):
        """Acceptance: an 8-page run on one segment grows lookups by 1."""
        ftl = self._learned_ftl()
        before = ftl.stats.lookups
        ppas = ftl.translate_range(8, 8)
        assert ftl.stats.lookups - before == 1
        assert ppas == [1008 + i for i in range(8)]

    def test_matches_per_page_translate(self):
        ftl = self._learned_ftl(gamma=4)
        batched = ftl.translate_range(0, 64)
        for offset, ppa in enumerate(batched):
            assert ppa == ftl.translate(offset).ppa

    def test_newer_segment_shadows_older_one_mid_run(self):
        """A page overwritten after the initial run must resolve through the
        newer (higher-level) segment, not the stale run segment."""
        ftl = self._learned_ftl()
        ftl.update_batch([(20, 5000)])  # single-point overwrite inside the run
        ppas = ftl.translate_range(16, 8)
        assert ppas[3:6] == [1019, 5000, 1021]

    def test_segment_change_mid_run_charges_per_resolution(self):
        ftl = self._learned_ftl()
        ftl.update_batch([(20, 5000)])
        before = ftl.stats.lookups
        ftl.translate_range(16, 8)
        # Three resolutions: old-segment run, the overwrite, old-segment run.
        assert ftl.stats.lookups - before == 3

    def test_miss_pages_return_none(self):
        ftl = self._learned_ftl()
        ppas = ftl.translate_range(60, 8)  # 60-63 mapped, 64-67 not
        assert [ppa is not None for ppa in ppas] == [True] * 4 + [False] * 4

    def test_range_spanning_groups(self):
        ftl = LeaFTL(LeaFTLConfig(gamma=0))
        ftl.update_batch([(lpa, 2000 + lpa) for lpa in range(250, 262)])
        ppas = ftl.translate_range(250, 12)  # crosses the 256 boundary
        assert ppas == [2250 + i for i in range(12)]

    def test_random_history_equivalence(self):
        """Batched and per-page translation agree after a messy history: the
        same PPA per page, and the table is charged once per resolution run
        at the levels its pages' walk searched.  A run is a stretch of pages
        the walk answers from one segment, a miss gap split at group edges."""
        rng = random.Random(42)
        ftl = LeaFTL(LeaFTLConfig(gamma=4))
        ppa = 0
        for _ in range(60):
            start = rng.randrange(0, 900)
            length = rng.randint(1, 40)
            ftl.update_batch([(lpa, ppa + i) for i, lpa in enumerate(range(start, start + length))])
            ppa += length
        walked = [ftl.translate(lpa) for lpa in range(960)]
        runs, levels, histogram = 0, 0, Counter()
        previous: object = walked  # no page's segment
        for lpa, single in enumerate(walked):
            assert single.levels_searched >= 1
            if single.segment is not previous or (single.segment is None and lpa % 256 == 0):
                runs += 1
                levels += single.levels_searched
                histogram[single.levels_searched] += single.segment is not None
            previous = single.segment
        before = dataclasses.replace(ftl.table.stats)
        before_histogram = Counter(before.levels_histogram)  # replace shares the dict
        assert ftl.translate_range(0, 960) == [single.ppa for single in walked]
        after = ftl.table.stats
        assert after.lookups - before.lookups == runs
        assert after.lookup_levels_total - before.lookup_levels_total == levels
        assert Counter(after.levels_histogram) == before_histogram + histogram


    @pytest.mark.parametrize("gamma", [0, 4])
    def test_one_page_range_matches_translate(self, gamma):
        """A one-page range is answered from the owner index, ``translate``
        by the Algorithm-1 walk: same answer and the same charge on every
        statistics object."""
        rng = random.Random(7)
        scalar, ranged = LeaFTL(LeaFTLConfig(gamma=gamma)), LeaFTL(LeaFTLConfig(gamma=gamma))
        ppa = 0
        for _ in range(60):
            start = rng.randrange(0, 900)
            lpas = sorted({start + rng.randrange(0, 60) for _ in range(rng.randint(1, 40))})
            batch = [(lpa, ppa + i) for i, lpa in enumerate(lpas)]
            ppa += len(lpas)
            scalar.update_batch(batch)
            ranged.update_batch(batch)
        for lpa in (rng.randrange(0, 1200) for _ in range(600)):
            assert scalar.translate(lpa).ppa == ranged.translate_range(lpa, 1)[0]
            # The levels searched are charged to the table and the histogram.
            assert scalar.stats == ranged.stats
            assert scalar.lea_stats == ranged.lea_stats
            assert scalar.table.stats == ranged.table.stats


class TestDFTLTranslateRange:
    def _cold_dftl(self, entries=16, per_tp=4):
        ftl = DFTL(mapping_budget_bytes=None, entries_per_translation_page=per_tp)
        for lpa in range(entries):
            ftl._flash_table[lpa] = 100 + lpa  # flash-resident, CMT cold
        return ftl

    def test_one_fetch_serves_all_entries_of_a_translation_page(self):
        ftl = self._cold_dftl()
        before = ftl.stats.translation_page_reads
        ppas = ftl.translate_range(0, 4)  # all on translation page 0
        assert ppas == [100, 101, 102, 103]
        assert ftl.stats.translation_page_reads - before == 1

    def test_lookups_charged_per_translation_page_chunk(self):
        ftl = self._cold_dftl()
        before = ftl.stats.lookups
        ftl.translate_range(0, 8)  # two translation pages
        assert ftl.stats.lookups - before == 2

    def test_matches_per_page_translate(self):
        ftl = self._cold_dftl()
        batched = ftl.translate_range(0, 16)
        fresh = self._cold_dftl()
        assert batched == [fresh.translate_range(lpa, 1)[0] for lpa in range(16)]

    def test_unmapped_entries_do_not_fetch(self):
        ftl = self._cold_dftl(entries=2)
        before = ftl.stats.translation_page_reads
        ppas = ftl.translate_range(4, 4)  # translation page 1: nothing mapped
        assert ppas == [None] * 4
        assert ftl.stats.translation_page_reads == before


class TestSFTLTranslateRange:
    def test_one_admission_serves_the_chunk(self):
        ftl = SFTL(mapping_budget_bytes=None)
        ftl.update_batch([(lpa, 300 + lpa) for lpa in range(32)])
        before = ftl.stats.lookups
        ppas = ftl.translate_range(0, 16)
        assert ppas == [300 + i for i in range(16)]
        assert ftl.stats.lookups - before == 1  # one condensed-page chunk

    def test_matches_per_page_translate(self):
        ftl = SFTL(mapping_budget_bytes=None)
        ftl.update_batch([(lpa, 300 + 2 * lpa) for lpa in range(0, 40, 2)])
        batched = ftl.translate_range(0, 40)
        assert batched == [ftl.translate_range(lpa, 1)[0] for lpa in range(40)]


class TestPageMapTranslateRange:
    def test_single_probe_for_the_run(self):
        ftl = PageLevelFTL()
        ftl.update_batch([(lpa, 40 + lpa) for lpa in range(8)])
        before = ftl.stats.lookups
        ppas = ftl.translate_range(2, 4)
        assert ppas == [42, 43, 44, 45]
        assert ftl.stats.lookups - before == 1


# --------------------------------------------------------------------------- #
# SimulatedSSD.submit: striping, per-page stats, clipping, regression anchor
# --------------------------------------------------------------------------- #
def _fill_blocks(ssd, pages):
    """Fill ``pages`` LPAs via whole-block writes (one block per flush)."""
    per_block = ssd.config.pages_per_block
    for lpa in range(0, pages, per_block):
        ssd.submit("W", lpa, per_block)
    ssd.flush()


def _drop_dram_copies(ssd, pages):
    for lpa in range(pages):
        ssd.cache.invalidate(lpa)


class TestMultiPageSubmit:
    def test_striped_read_beats_serial_per_page_baseline(self):
        """Acceptance: a read spanning k channels completes faster than the
        same span issued as serial single-page commands."""
        span = 256  # 4 blocks of 64 pages -> 4 channels in the tiny config

        def run(requests):
            ssd = make_ssd()
            _fill_blocks(ssd, 2048)
            _drop_dram_copies(ssd, span)
            start = ssd.now_us
            ssd.run(requests, drain=False)
            return ssd, ssd.now_us - start

        ssd_batched, batched = run([("R", 0, span)])
        ssd_serial, serial = run([("R", lpa, 1) for lpa in range(span)])
        # Same flash work either way...
        assert (
            ssd_batched.stats.flash_reads_for_host
            == ssd_serial.stats.flash_reads_for_host
        )
        # ...but the batched command overlaps channels.
        assert batched < serial * 0.75
        # The span really striped over more than one channel.
        busy = [
            ssd_batched.flash.channel_busy_until(c)
            for c in range(ssd_batched.config.channels)
        ]
        assert sum(1 for b in busy if b > 0.0) > 1

    def test_multi_page_read_records_per_page_latencies(self):
        ssd = make_ssd()
        _fill_blocks(ssd, 512)
        _drop_dram_copies(ssd, 64)
        before = ssd.stats.read_latency.count
        ssd.submit("R", 0, 8)
        assert ssd.stats.read_latency.count - before == 8
        assert ssd.stats.host_read_pages == 8

    def test_leaftl_multi_page_read_resolves_in_one_lookup(self):
        """Acceptance, end to end: the 8-page flash read grows the FTL
        lookup counter by 1, not 8."""
        ssd = make_ssd()
        _fill_blocks(ssd, 512)
        _drop_dram_copies(ssd, 64)
        before = ssd.ftl.stats.lookups
        ssd.submit("R", 8, 8)
        assert ssd.ftl.stats.lookups - before == 1

    @pytest.mark.parametrize("name", FTL_FACTORIES)
    def test_device_translates_only_through_translate_range(self, name, monkeypatch):
        """One read path: over a mixed 1/4/16-page replay served from flash
        the device never calls LeaFTL's ``translate`` and calls
        ``translate_range`` exactly once per contiguous flash run."""
        ftl = FTL_FACTORIES[name]()
        ssd = make_ssd(ftl=ftl)
        _fill_blocks(ssd, 2048)
        rng = random.Random(3)
        requests = [
            ("R", rng.randrange(2000), rng.choice([1, 4, 16])) for _ in range(300)
        ]
        calls = {"translate": 0, "translate_range": []}
        real_range = ftl.translate_range

        def spy_translate(lpa):
            calls["translate"] += 1

        def spy_range(lpa, npages):
            calls["translate_range"].append((lpa, npages))
            return real_range(lpa, npages)

        # Only LeaFTL has a ``translate``; the spy stands in on every scheme.
        monkeypatch.setattr(ftl, "translate", spy_translate, raising=False)
        monkeypatch.setattr(ftl, "translate_range", spy_range)
        expected = []
        for op, lpa, npages in requests:
            # Re-reading a page would hit the data cache and split the run.
            _drop_dram_copies(ssd, 2048)
            ssd.submit(op, lpa, npages)
            expected.append((lpa, npages))
        assert calls["translate"] == 0
        assert calls["translate_range"] == expected
        assert {npages for _lpa, npages in expected} == {1, 4, 16}
        assert ssd.stats.flash_reads_for_host == sum(n for _l, n in expected)

    def test_single_page_replay_is_bit_exact_with_direct_primitives(self):
        """Acceptance: queue_depth=1 single-page replay through the reworked
        submit() reproduces the pre-refactor read()/write() path exactly."""
        rng = random.Random(13)
        ops = []
        for _ in range(3000):
            lpa = rng.randrange(10_000)
            ops.append(("W" if rng.random() < 0.5 else "R", lpa, 1))

        replayed = make_ssd()
        replayed.run(ops)

        direct = make_ssd()
        for op, lpa, _ in ops:
            if op == "W":
                direct.write(lpa)
            else:
                direct.read(lpa)
        direct.flush()
        direct.stats.simulated_time_us = direct._horizon_us()

        def signature(ssd):
            stats = ssd.stats
            return (
                stats.read_latency.count,
                stats.read_latency.total_us,
                stats.read_latency.max_us,
                stats.write_latency.count,
                stats.write_latency.total_us,
                stats.data_page_writes,
                stats.gc_page_reads,
                stats.gc_page_writes,
                stats.buffer_flushes,
                stats.buffer_hits,
                stats.cache_hits,
                stats.simulated_time_us,
                ssd.flash.counters.page_reads,
                ssd.flash.counters.page_writes,
                ssd.ftl.stats.lookups,
            )

        assert signature(replayed) == signature(direct)

    def test_clipped_pages_are_counted(self):
        ssd = make_ssd()
        logical = ssd.config.logical_pages
        ssd.submit("W", logical - 2, 8)        # 6 pages run past the end
        assert ssd.stats.clipped_pages == 6
        assert ssd.stats.host_write_pages == 2  # the in-range pages served
        ssd.submit("R", logical + 10, 4)       # fully out of range
        assert ssd.stats.clipped_pages == 10
        assert ssd.stats.host_read_pages == 0
        assert device_snapshot(ssd)["ssd.clipped_pages"] == 10.0

    def test_negative_lpa_rejected_on_every_sub_path(self):
        ssd = make_ssd()
        for op, npages in (("R", 1), ("R", 8), ("W", 1), ("W", 8)):
            with pytest.raises(ValueError):
                ssd.submit(op, -4, npages)

    def test_multi_page_write_still_streams_through_the_buffer(self):
        ssd = make_ssd()
        ssd.submit("W", 0, 100)
        assert ssd.stats.host_write_pages == 100
        ssd.flush()
        assert ssd.stats.data_page_writes == 100


# --------------------------------------------------------------------------- #
# Open-loop replay
# --------------------------------------------------------------------------- #
class _RecordingDevice:
    """Fixed-latency device that records issue times."""

    def __init__(self, latency_us=10.0):
        self.latency_us = latency_us
        self.issues = []

    def submit(self, op, lpa, npages, at_us):
        self.issues.append((at_us, op, lpa))
        return at_us + self.latency_us


class TestOpenLoopFrontend:
    def _requests(self, interarrival):
        return [
            IORequest("R", lpa, 1, timestamp_us=1000.0 + lpa * interarrival)
            for lpa in range(4)
        ]

    def test_requests_issued_at_relative_timestamps(self):
        device = _RecordingDevice()
        frontend = OpenLoopFrontend(device, EventLoop())
        stats = frontend.run(self._requests(50.0))
        assert [t for t, _, _ in device.issues] == [0.0, 50.0, 100.0, 150.0]
        assert stats.submitted == stats.completed == 4
        assert stats.max_outstanding == 1  # arrivals slower than service

    def test_each_request_is_an_arrival_an_issue_and_a_completion(self):
        """The single queue admits like the multi-queue path: an arrival
        joins the backlog and is submitted inside the arrival's callback,
        so a request is two events, its arrival and its completion."""
        loop = EventLoop()
        kinds = []
        loop.observer = lambda event: kinds.append(event.kind)
        OpenLoopFrontend(_RecordingDevice(), loop).run(self._requests(50.0))
        assert kinds == ["request_arrival", "request_complete"] * 4

    def test_time_scale_compresses_arrivals(self):
        device = _RecordingDevice()
        frontend = OpenLoopFrontend(device, EventLoop(), time_scale=0.1)
        frontend.run(self._requests(50.0))
        assert [t for t, _, _ in device.issues] == [0.0, 5.0, 10.0, 15.0]

    def test_admission_does_not_wait_for_completions(self):
        device = _RecordingDevice(latency_us=1000.0)  # far slower than arrivals
        frontend = OpenLoopFrontend(device, EventLoop())
        stats = frontend.run(self._requests(50.0))
        assert [t for t, _, _ in device.issues] == [0.0, 50.0, 100.0, 150.0]
        assert stats.max_outstanding == 4  # the backlog is the measurement

    def test_tuples_degenerate_to_simultaneous_arrival(self):
        device = _RecordingDevice()
        frontend = OpenLoopFrontend(device, EventLoop())
        frontend.run([("R", lpa, 1) for lpa in range(3)])
        assert [t for t, _, _ in device.issues] == [0.0, 0.0, 0.0]

    def test_invalid_time_scale_rejected(self):
        for time_scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="time_scale"):
                OpenLoopFrontend(_RecordingDevice(), EventLoop(), time_scale=time_scale)


class TestOpenLoopReplay:
    def _stamped_trace(self, count=2000, interarrival=5.0, footprint=20_000):
        rng = random.Random(7)
        requests = [
            IORequest(
                "W" if rng.random() < 0.4 else "R",
                rng.randrange(footprint),
                rng.randint(1, 8),
                timestamp_us=i * interarrival,
            )
            for i in range(count)
        ]
        return Trace("stamped", requests)

    def test_run_accepts_io_requests_open_loop(self):
        ssd = make_ssd()
        _fill_blocks(ssd, 20_000)
        ssd.begin_measurement()
        trace = self._stamped_trace()
        stats = ssd.run(trace, replay_mode="open")
        # The replay cannot finish before the last request arrived.
        last_arrival = trace[-1].timestamp_us - trace[0].timestamp_us
        assert stats.measured_time_us >= last_arrival
        assert stats.events_processed > 0
        assert stats.host_read_pages + stats.host_write_pages == sum(
            r.npages for r in trace
        )

    def test_saturation_grows_backlog_and_latency(self):
        def run(interarrival):
            ssd = make_ssd()
            _fill_blocks(ssd, 20_000)
            ssd.begin_measurement()
            ssd.run(self._stamped_trace(interarrival=interarrival), replay_mode="open")
            return ssd.stats

        relaxed = run(200.0)
        saturated = run(2.0)
        assert saturated.max_outstanding_requests > relaxed.max_outstanding_requests
        assert saturated.read_latency.mean_us > relaxed.read_latency.mean_us

    def test_time_scale_stretches_the_replay(self):
        def run(scale):
            ssd = make_ssd()
            _fill_blocks(ssd, 20_000)
            ssd.begin_measurement()
            return ssd.run(
                self._stamped_trace(interarrival=100.0),
                replay_mode="open",
                time_scale=scale,
            )

        slow = run(2.0)
        fast = run(0.5)
        assert slow.measured_time_us > fast.measured_time_us

    def test_open_loop_replay_is_deterministic(self):
        def run():
            ssd = make_ssd()
            _fill_blocks(ssd, 20_000)
            stats = ssd.run(self._stamped_trace(), replay_mode="open")
            return (
                stats.read_latency.total_us,
                stats.write_latency.total_us,
                stats.simulated_time_us,
                stats.max_outstanding_requests,
                ssd.flash.counters.page_reads,
            )

        assert run() == run()

    def test_closed_loop_run_accepts_io_requests_and_traces(self):
        trace = Trace("t", [IORequest("W", lpa, 4) for lpa in range(0, 256, 4)])
        serial = make_ssd()
        serial.run(trace)
        events = make_ssd(options=SSDOptions(queue_depth=4))
        events.run(trace)
        assert serial.stats.host_write_pages == 256
        assert events.stats.host_write_pages == 256

    def test_invalid_replay_mode_rejected(self):
        ssd = make_ssd()
        with pytest.raises(ValueError):
            ssd.run([], replay_mode="looped")
        for time_scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="time_scale"):
                ssd.run([], replay_mode="open", time_scale=time_scale)
        # Replay parameters belong to run(), not to the device's options.
        with pytest.raises(TypeError):
            SSDOptions(replay_mode="open")
        with pytest.raises(TypeError):
            SSDOptions(time_scale=2.0)
