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
# to a surviving counter; every other value unchanged).  The event counts,
# the event digests and both stats digests moved together once, when
# admission stopped scheduling a ``request_issue`` event per request and
# submitted inline instead (1380 -> 960 and 6036 -> 3036 events): every
# other event kept its time, kind and priority in order, and
# ``ssd.events_processed`` was the only counter that changed.  They moved
# together once more when flush programs and blocking-reclaim erases stopped
# scheduling a ``*_done`` event (960 -> 840 and 3036 -> 3000 events): the
# remaining events hash equal over ``(time, kind, priority)`` before and
# after, and the snapshot lost ``ssd.background_completions`` and
# ``ssd.mean_mapping_bytes`` beside the ``ssd.events_processed`` change.
# The stats digests alone moved when the frontend began taking a completion
# that is the loop's next event in place instead of dispatching it: the
# observed events (count and digest) are unchanged, and
# ``ssd.events_processed``, which counts dispatched events only, is the one
# counter that changed (840 -> 642 and 3000 -> 1257).  Before:
# ``b3f4c997...`` and ``749613e3...``.  They moved once more when reclaim
# began carrying learned segments that moved whole instead of fitting them
# again: the snapshot gained ``mapping_table.mappings_carried`` /
# ``segments_carried`` (0 in the verify run, whose every other counter is
# unchanged), and the sync-GC run's table is smaller (peak 16,056 ->
# 15,452 B) with lookups a little deeper (1.198 -> 1.217 levels), every
# other counter unchanged; both event traces are unchanged.  Before: ``4b7e222346d1b457...`` and
# ``436112c99c0a6fe7...``.  The stats digests alone moved again when each
# fact kept one counter: the snapshots lost ``ftl.mispredictions``,
# ``leaftl.lookups_resolved`` / ``approximate_lookups`` and
# ``mapping_table.compactions`` (the verify run also the write SLO's
# ``ns.*.slo_write_us`` / ``slo_violations_write`` and the summed
# ``ns.*.slo_violations``); every other value and both event traces are
# unchanged.  Before: ``a8b9efa0a11ce202...`` and ``9246bc805c601d1d...``.
# The sync-GC stats digest alone moved when a migration's refit began to
# drop each owner it empties: the table ends at 10,532 B (was 15,452; peak
# 15,452 -> 10,872), lookups search 1.198 levels (was 1.217), and the data
# cache gets one more page (124 -> 125), so 4 fewer insertions and 5 fewer
# evictions; every other counter and both event traces are unchanged.
# Before: ``f5d7275af6d014bc...``.
VERIFY_EVENTS = 840
VERIFY_EVENT_DIGEST = (
    "0875aa7debbedba64ba567b77b7e98ab44363ec7abfb3372a3448b12c5356cd1"
)
VERIFY_STATS_DIGEST = (
    "a037c23a6ff71fbac5ee58467fcdd611f20f203f2601126ff853ccb83026f99d"
)

GC_SYNC_EVENTS = 3000
GC_SYNC_EVENT_DIGEST = (
    "c2c0ccf34b99213f138dea79328f0949069e48c157146a7f76c9481f2a5de86a"
)
GC_SYNC_STATS_DIGEST = (
    "37c08577d08c2f9392152f80b65dba860665bccd7f30393ec80b90820e777cd3"
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
