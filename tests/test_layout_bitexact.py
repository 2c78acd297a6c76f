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
# ``ssd.events_processed`` was the only counter that changed.
VERIFY_EVENTS = 960
VERIFY_EVENT_DIGEST = (
    "c67b138370451955451c3d6235b3ae6310f06335edd766f16b1e4be23dc7afc6"
)
VERIFY_STATS_DIGEST = (
    "233ab0c0f08ae1015bf0e16bf53d9f33bafb330d1b0d3411952b0eaea9c29ac1"
)

GC_SYNC_EVENTS = 3036
GC_SYNC_EVENT_DIGEST = (
    "446a28b82cf23ed65df981aa19ce6a31e47532a18c195ef33636b7b27b2d4f49"
)
GC_SYNC_STATS_DIGEST = (
    "e7f940c54ce8f130d0165cc86e1d071fc9e0e96e2bc43c6911cbadb5bc245351"
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
