"""Differential bit-exactness goldens for the hot-path data layouts.

The flat-array ``FlashArray`` (bitmap page state, lazy OOB synthesis),
the ``EventLoop``'s queue (a per-timestamp calendar in PR 6, one heap
since PR 19 — these goldens held across both), and the
vectorized/analytic segment paths are all pure representation changes:
the PR that introduced them promised byte-identical behaviour.  These
tests pin that promise to concrete digests recorded on the pre-overhaul
tree, so any future "optimization" that changes event ordering, float
operation sequences, GC victim choice or stats accounting — however
slightly — fails loudly instead of silently drifting the science.

Two scenarios cover the two engines the goldens care about:

* the stock ``repro.verify`` multi-tenant run (background GC, WRR
  arbitration, event engine) at scale 0.25, and
* a small synchronous-GC device driven hard enough that collections
  fire and write amplification climbs well above 1 (the layout most
  sensitive to the lazy-OOB and valid-page-counter rewrites).

If a deliberate semantic change lands (new scheduling policy, different
latency model), re-record the constants below in that PR and say so in
its description — they are expected values, not checksums of the code.
"""

from repro.experiments.common import (
    ExperimentSetup,
    build_ssd,
    precondition,
    steady_state_workload,
)
from repro.obs.registry import device_snapshot
from repro.verify import EventTraceDigest, run_once, stats_digest

# Golden digests recorded before the flat-array/calendar-queue overhaul
# (PR 6 tree) and required to hold forever after it.  The *stats* digests
# were re-recorded three times, all pure reporting changes: when the 50-key
# SSDStats.summary() gained its full counter set, when the digest moved
# to the whole ``device_snapshot`` (every summary() value is
# in it unchanged under ``ssd.*``; it adds the FTL, mapping-table, cache,
# write-buffer, allocator and per-namespace counters), and when four
# duplicate keys left the snapshot (``ssd.host_reads`` /
# ``host_writes`` / ``translation_lookups`` / ``total_requests``, each equal
# to a surviving counter; every other value unchanged).  The event counts
# and event digests are the originals and did not move.
VERIFY_EVENTS = 1380
VERIFY_EVENT_DIGEST = (
    "556fc4383ddfa9528115f8177041028c4d090c588260961dab61ec71e9c7a4c3"
)
VERIFY_STATS_DIGEST = (
    "c50cb2917c532d1110c2ccda056b3805784de6a098dcb08154039009b7c2e33f"
)

GC_SYNC_EVENTS = 6036
GC_SYNC_EVENT_DIGEST = (
    "416ab881a529b2a0196077d951c69619062704242acfe86b570b73f676da9465"
)
GC_SYNC_STATS_DIGEST = (
    "118762fff93cc3aa0f369562a41e9d407dbd4e89f2411b4e25380c109a9c721e"
)


class TestVerifyScenarioGolden:
    """The stock multi-tenant verify run must keep its exact trace."""

    def test_event_and_stats_digests_pinned(self):
        report = run_once(seed=1234, scale=0.25)
        assert report.events_observed == VERIFY_EVENTS
        assert report.event_digest == VERIFY_EVENT_DIGEST
        assert report.stats_digest == VERIFY_STATS_DIGEST


class TestSyncGCGolden:
    """A GC-heavy synchronous device pins the flash-layout hot paths."""

    def _run(self):
        setup = ExperimentSetup(
            capacity_bytes=32 * 1024 * 1024,
            channels=4,
            dies_per_channel=2,
            pages_per_block=64,
            dram_bytes=512 * 1024,
            queue_depth=8,
            gc_mode="sync",
            warmup=False,
        )
        ssd = build_ssd("LeaFTL", setup)
        trace = EventTraceDigest()
        ssd.event_observer = trace.observe
        footprint = precondition(ssd, seed=7)
        requests = steady_state_workload(footprint, 3000, seed=13, read_ratio=0.4)
        ssd.run(requests)
        ssd.quiesce()
        return ssd, trace

    def test_gc_heavy_trace_pinned(self):
        ssd, trace = self._run()
        summary = device_snapshot(ssd)
        # The scenario must actually stress GC, or the golden proves little:
        # synchronous collections fired and relocated enough valid pages to
        # push write amplification well above 1.
        assert summary["ssd.gc_invocations"] > 0
        assert summary["ssd.write_amplification"] > 1.5
        assert trace.events_observed == GC_SYNC_EVENTS
        assert trace.hexdigest() == GC_SYNC_EVENT_DIGEST
        assert stats_digest(ssd) == GC_SYNC_STATS_DIGEST
