"""Tests for the multi-queue host interface: namespaces, arbiters, QoS.

Covers four layers:

* arbitration policies in isolation (deterministic grant orders);
* token buckets (refill arithmetic, burst clamping);
* namespaces (carving, translation, clipping, SLO validation);
* the full frontend: single-namespace replay must match the classic
  ``HostFrontend`` path bit-for-bit, a ``{namespace: stream}`` mapping must
  replay exactly like hand-built submission queues whose mode the stream's
  timestamps pick, and rate limits must shape admission.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.host.arbiter import (
    ARBITERS,
    Arbiter,
    FifoArbiter,
    RoundRobinArbiter,
    StrictPriorityArbiter,
    TokenBucket,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.host.interface import HostInterface, MultiQueueFrontend, SubmissionQueue
from repro.host.namespace import Namespace
from repro.obs.registry import snapshot_stats
from repro.sim.events import EventLoop
from repro.sim.frontend import OpenLoopFrontend
from repro.ssd.ssd import SSDOptions
from repro.verify import EventTraceDigest
from repro.workloads.trace import IORequest, Trace
from tests.conftest import make_ssd


class _FakeQueue:
    """Minimal stand-in implementing the arbitrated-queue protocol."""

    def __init__(self, name, weight=1, priority=0, head=(0.0, 0)):
        self.name = name
        self.weight = weight
        self.priority = priority
        self._head = head

    def head_key(self):
        return self._head


class TestArbiters:
    def test_make_arbiter_knows_every_name(self):
        policies = [make_arbiter(name) for name in ARBITERS]
        assert all(isinstance(policy, Arbiter) for policy in policies)
        assert len({type(policy) for policy in policies}) == len(ARBITERS)
        with pytest.raises(ValueError):
            make_arbiter("lottery")

    def test_fifo_picks_earliest_head(self):
        a = _FakeQueue("a", head=(10.0, 3))
        b = _FakeQueue("b", head=(5.0, 7))
        arbiter = FifoArbiter()
        arbiter.bind([a, b])
        assert arbiter.select([a, b]) is b

    def test_fifo_breaks_time_ties_by_enqueue_order(self):
        a = _FakeQueue("a", head=(5.0, 9))
        b = _FakeQueue("b", head=(5.0, 2))
        arbiter = FifoArbiter()
        arbiter.bind([a, b])
        assert arbiter.select([a, b]) is b

    def test_round_robin_cycles(self):
        queues = [_FakeQueue(n) for n in "abc"]
        arbiter = RoundRobinArbiter()
        arbiter.bind(queues)
        grants = [arbiter.select(queues).name for _ in range(6)]
        assert grants == ["a", "b", "c", "a", "b", "c"]

    def test_round_robin_skips_ineligible(self):
        a, b, c = (_FakeQueue(n) for n in "abc")
        arbiter = RoundRobinArbiter()
        arbiter.bind([a, b, c])
        assert arbiter.select([a, b, c]) is a
        # b has gone idle: the rotation moves on to c, then wraps.
        assert arbiter.select([a, c]) is c
        assert arbiter.select([a, c]) is a

    def test_weighted_round_robin_grants_proportionally(self):
        heavy = _FakeQueue("heavy", weight=3)
        light = _FakeQueue("light", weight=1)
        arbiter = WeightedRoundRobinArbiter()
        arbiter.bind([heavy, light])
        grants = [arbiter.select([heavy, light]).name for _ in range(8)]
        assert grants.count("heavy") == 6
        assert grants.count("light") == 2

    def test_weighted_round_robin_is_work_conserving(self):
        heavy = _FakeQueue("heavy", weight=3)
        light = _FakeQueue("light", weight=1)
        arbiter = WeightedRoundRobinArbiter()
        arbiter.bind([heavy, light])
        # Only the light queue has work: it gets every grant.
        grants = [arbiter.select([light]).name for _ in range(5)]
        assert grants == ["light"] * 5

    def test_strict_priority_always_prefers_urgent(self):
        urgent = _FakeQueue("urgent", priority=0, head=(99.0, 9))
        background = _FakeQueue("bg", priority=2, head=(1.0, 1))
        arbiter = StrictPriorityArbiter()
        arbiter.bind([urgent, background])
        for _ in range(3):
            assert arbiter.select([urgent, background]) is urgent

    def test_strict_priority_fifo_within_class(self):
        first = _FakeQueue("first", priority=1, head=(5.0, 1))
        second = _FakeQueue("second", priority=1, head=(5.0, 2))
        arbiter = StrictPriorityArbiter()
        arbiter.bind([first, second])
        assert arbiter.select([second, first]) is first


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(100.0, 0.5)
        with pytest.raises(ValueError):
            TokenBucket(100.0, 1.0, unit="bytes")

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        """A nan rate made ``available_at`` nan: every retry clamped to
        "now" and the replay spun until the event limit."""
        with pytest.raises(ValueError, match=f"rate_per_s .* got {rate!r}"):
            TokenBucket(rate, 8.0)

    @pytest.mark.parametrize("burst", [math.nan, math.inf])
    def test_non_finite_burst_rejected(self, burst):
        with pytest.raises(ValueError, match=f"burst .* got {burst!r}"):
            TokenBucket(1000.0, burst)

    def test_burst_then_refill(self):
        bucket = TokenBucket(1_000_000.0, burst=2.0)  # 1 token/us
        assert bucket.try_consume(1.0, 0.0)
        assert bucket.try_consume(1.0, 0.0)
        assert not bucket.try_consume(1.0, 0.0)
        # One microsecond later one token has accrued.
        assert bucket.try_consume(1.0, 1.0)

    def test_available_at_reports_refill_time(self):
        bucket = TokenBucket(1_000_000.0, burst=4.0)
        bucket.try_consume(4.0, 0.0)
        eta = bucket.available_at(2.0, 0.0)
        assert eta == pytest.approx(2.0, abs=1e-3)
        assert bucket.can_admit(2.0, eta)

    def test_page_cost_clamped_to_burst(self):
        bucket = TokenBucket(1000.0, burst=8.0, unit="pages")
        assert bucket.cost_of(64) == 8.0
        assert bucket.cost_of(2) == 2.0


class TestNamespace:
    def test_translate_relocates_and_clips(self):
        ns = Namespace("t", base_lpa=100, size_pages=50)
        assert ns.translate(0, 4) == (100, 4)
        assert ns.translate(48, 8) == (148, 2)
        assert ns.stats.clipped_pages == 6
        with pytest.raises(ValueError):
            ns.translate(50, 1)

    @pytest.mark.parametrize("slo", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_slo_rejected(self, slo):
        """A nan or inf SLO would never count a violation; None means none."""
        with pytest.raises(ValueError, match="SLO thresholds must be positive and finite"):
            Namespace("t", 0, 10, slo_read_us=slo)

    def test_slo_violations_counted(self):
        ns = Namespace("t", 0, 10, slo_read_us=100.0)
        ns.record_completion("R", 50.0)
        ns.record_completion("R", 150.0)
        ns.record_completion("W", 10_000.0)  # writes have no SLO
        assert ns.stats.slo_violations_read == 1

    def test_host_carves_disjoint_namespaces(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        a = host.add_namespace("a", size_pages=1000)
        b = host.add_namespace("b", size_pages=2000)
        assert (a.base_lpa, a.size_pages) == (0, 1000)
        assert b.base_lpa == 1000
        with pytest.raises(ValueError, match="already exists"):
            host.add_namespace("a", size_pages=10)

    def test_last_namespace_takes_remaining_space(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        host.add_namespace("a", size_pages=1000)
        rest = host.add_namespace("rest")
        assert rest.size_pages == ssd.config.logical_pages - 1000
        with pytest.raises(ValueError):
            host.add_namespace("overflow", size_pages=1)

    def test_oversized_namespace_rejected(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        with pytest.raises(ValueError):
            host.add_namespace("big", size_pages=ssd.config.logical_pages + 1)


def _mixed_requests(seed, count, footprint):
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        start = rng.randrange(footprint)
        if rng.random() < 0.4:
            requests.append(("W", start, rng.randint(1, 32)))
        else:
            requests.append(("R", start, rng.randint(1, 8)))
    return requests


_CONFIG = replace(SSDConfig.tiny(), capacity_bytes=128 * 1024 * 1024)
_FOOTPRINT = 28_000


def _contended_workload():
    fill = [("W", lpa, 64) for lpa in range(0, _FOOTPRINT, 64)]
    overwrite = [("W", lpa, 64) for lpa in range(0, _FOOTPRINT, 128)]
    return fill + overwrite + _mixed_requests(7, 1500, _FOOTPRINT)


def _stats_signature(ssd):
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
        stats.gc_invocations,
        stats.gc_block_erases,
        stats.buffer_flushes,
        stats.buffer_hits,
        stats.cache_hits,
        stats.mispredictions,
        stats.read_stall_us,
        stats.simulated_time_us,
        stats.events_processed,
        stats.requests_submitted,
        stats.requests_completed,
        stats.max_outstanding_requests,
        ssd.flash.counters.page_reads,
        ssd.flash.counters.page_writes,
        ssd.flash.counters.block_erases,
    )


class TestSingleNamespaceEquivalence:
    """Acceptance: the host interface is a strict generalisation.

    One whole-device namespace + one closed-loop queue must replay
    *bit-for-bit* like the classic ``HostFrontend`` path — same latencies,
    same flash counters, same event count — for every arbiter (with one
    queue they are all trivially equivalent).
    """

    @pytest.mark.parametrize("arbiter", ARBITERS)
    def test_matches_host_frontend_exactly(self, arbiter):
        requests = _contended_workload()
        baseline = make_ssd(
            gamma=4, config=_CONFIG, options=SSDOptions(queue_depth=8)
        )
        baseline.run(requests)

        ssd = make_ssd(gamma=4, config=_CONFIG, options=SSDOptions(queue_depth=8))
        host = HostInterface(ssd, arbiter=arbiter)
        host.add_namespace("all")
        result = host.run({"all": requests})

        assert _stats_signature(baseline) == _stats_signature(ssd)
        assert result["all"].completed == len(requests)

    def test_matches_event_engine_at_depth_one(self):
        """Transitively pins serial equivalence: test_sim pins ``run()`` ==
        a serial submit loop at depth 1; here host == ``run()`` at depth 1,
        stat for stat."""
        requests = _contended_workload()
        baseline = make_ssd(gamma=4, config=_CONFIG)
        baseline.run(requests)

        ssd = make_ssd(gamma=4, config=_CONFIG, options=SSDOptions(queue_depth=1))
        host = HostInterface(ssd)
        host.add_namespace("all")
        host.run({"all": requests})

        assert _stats_signature(baseline) == _stats_signature(ssd)


class _RecordingDevice:
    """Records every submit; latency varies with the LPA so requests overlap."""

    def __init__(self):
        self.submits = []

    def submit(self, op, lpa, npages, at_us):
        self.submits.append((at_us, op, lpa, npages))
        return at_us + 5.0 + (lpa % 7) * 30.0


_SMALL = replace(SSDConfig.tiny(), capacity_bytes=16 * 1024 * 1024)
_SMALL_FOOTPRINT = 2048


@st.composite
def _stamped_requests(draw):
    """Requests with non-decreasing timestamps, ties common, any first stamp."""
    timestamp = draw(st.sampled_from([0.0, 1000.0]))
    requests = []
    for _ in range(draw(st.integers(1, 40))):
        timestamp += draw(st.sampled_from([0.0, 0.0, 1.0, 7.5, 40.0, 300.0]))
        op = draw(st.sampled_from("RW"))
        npages = draw(st.integers(1, 64 if op == "W" else 8))
        lpa = draw(st.integers(0, _SMALL_FOOTPRINT - npages))
        requests.append(IORequest(op, lpa, npages, timestamp_us=timestamp))
    return requests


@given(requests=_stamped_requests(), time_scale=st.sampled_from([0.1, 1.0, 2.5]))
@settings(max_examples=40, deadline=None)
def test_open_loop_frontend_is_one_open_submission_queue(requests, time_scale):
    """The open-loop pin (``TestSingleNamespaceEquivalence`` is the closed
    one): with a slot for every request, one open submission queue over a
    whole-device namespace submits exactly what ``OpenLoopFrontend`` does."""

    def through_the_queue(device, loop):
        queue = SubmissionQueue(
            Namespace("all", 0, _SMALL.logical_pages), requests, "open", time_scale
        )
        return MultiQueueFrontend(device, loop, make_arbiter("fifo"), len(requests)), [queue]

    # A recording device: the same submits at the same times, the same stats.
    single, multi = _RecordingDevice(), _RecordingDevice()
    single_stats = OpenLoopFrontend(single, EventLoop(), time_scale).run(requests)
    frontend, queues = through_the_queue(multi, EventLoop())
    assert frontend.run(queues) == single_stats
    assert multi.submits == single.submits
    assert single_stats.completed == len(requests)

    # A small real device (buffer flushes, flash reads): stat for stat.
    fill = [("W", lpa, 64) for lpa in range(0, _SMALL_FOOTPRINT, 64)]
    baseline = make_ssd(gamma=4, config=_SMALL)
    baseline.run(fill)
    baseline.run(requests, replay_mode="open", time_scale=time_scale)
    ssd = make_ssd(gamma=4, config=_SMALL)
    ssd.run(fill)
    loop = EventLoop(start_us=ssd.now_us)
    frontend, queues = through_the_queue(ssd, loop)
    ssd.run_frontend(frontend, loop, queues)
    ssd.finalize_replay()
    assert _stats_signature(ssd) == _stats_signature(baseline)


_TENANT_PAGES = 512


@st.composite
def _tenant_mix(draw):
    """One to three tenants, each a timestamped trace, a timestamp-less
    trace or a bare tuple list; returns the ``{namespace: stream}`` mapping
    and, per namespace, the mode the experiment harness used to name by
    hand (``"open"`` for its timestamped tenants, ``"closed"`` for its
    warm-up fills)."""
    streams, modes = {}, {}
    for index in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["stamped", "unstamped", "tuples"]))
        timestamp = 1.0
        requests = []
        for _ in range(draw(st.integers(1, 25))):
            op = draw(st.sampled_from("RW"))
            npages = draw(st.integers(1, 16))
            lpa = draw(st.integers(0, _TENANT_PAGES - npages))
            timestamp += draw(st.sampled_from([0.0, 1.0, 7.5, 40.0, 300.0]))
            stamp = timestamp if kind == "stamped" else 0.0
            requests.append(IORequest(op, lpa, npages, timestamp_us=stamp))
        name = f"t{index}"
        if kind == "tuples":
            streams[name] = [request.as_tuple() for request in requests]
        else:
            streams[name] = Trace(name, requests)
        modes[name] = "open" if kind == "stamped" else "closed"
    return streams, modes


@given(mix=_tenant_mix(), arbiter=st.sampled_from(ARBITERS))
@settings(max_examples=30, deadline=None)
def test_mapping_replays_like_hand_built_queues(mix, arbiter):
    """``host.run(mapping)`` is a ``MultiQueueFrontend`` over one
    ``SubmissionQueue`` per tenant whose admission mode the stream's
    timestamps pick: same events, same device stats, same tenant stats."""
    streams, modes = mix
    fill = [("W", lpa, 64) for lpa in range(0, 3 * _TENANT_PAGES, 64)]

    def device():
        options = SSDOptions(queue_depth=4, arbiter=arbiter)
        ssd = make_ssd(gamma=4, config=_SMALL, options=options)
        ssd.run(fill)
        digest = EventTraceDigest()
        ssd.event_observer = digest.observe
        return ssd, digest

    ssd, digest = device()
    host = HostInterface(ssd)
    for name in streams:
        host.add_namespace(name, size_pages=_TENANT_PAGES)
    per_tenant = host.run(streams)

    twin, twin_digest = device()
    queues = [
        SubmissionQueue(
            Namespace(name, index * _TENANT_PAGES, _TENANT_PAGES), stream, modes[name]
        )
        for index, (name, stream) in enumerate(streams.items())
    ]
    loop = EventLoop(start_us=twin.now_us)
    frontend = MultiQueueFrontend(twin, loop, make_arbiter(arbiter), 4)
    twin.run_frontend(frontend, loop, queues)
    twin.finalize_replay()

    assert digest.hexdigest() == twin_digest.hexdigest()
    assert digest.events_observed == twin_digest.events_observed
    assert _stats_signature(ssd) == _stats_signature(twin)
    assert list(per_tenant) == list(streams)
    for queue in queues:
        name = queue.namespace.name
        assert snapshot_stats(per_tenant[name], "ns") == snapshot_stats(
            queue.namespace.stats, "ns"
        )


class TestMultiQueueFrontend:
    def test_namespace_translation_applied(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=2))
        host = HostInterface(ssd)
        host.add_namespace("a", size_pages=1024)
        host.add_namespace("b", size_pages=1024)
        host.run(
            {
                "a": [("W", 0, 4), ("R", 0, 4)],
                "b": [("W", 0, 4), ("R", 0, 4)],
            }
        )
        # Both tenants wrote "their" LPA 0; the device saw disjoint pages.
        assert ssd.stats.host_write_pages == 8
        written = sorted(ssd.live_mappings())  # device LPAs 0..3 and 1024..1027
        assert written[:4] == [0, 1, 2, 3]
        assert written[4:] == [1024, 1025, 1026, 1027]

    def test_requests_clipped_at_namespace_not_device(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        ns = host.add_namespace("small", size_pages=64)
        host.add_namespace("rest")
        host.run({"small": [("W", 60, 8)]})
        assert ns.stats.clipped_pages == 4
        # The device itself saw a fully in-bounds request.
        assert ssd.stats.clipped_pages == 0
        assert ssd.stats.host_write_pages == 4

    def test_unknown_namespace_rejected(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        host.add_namespace("a", size_pages=64)
        with pytest.raises(KeyError):
            host.run({"ghost": [("W", 0, 1)]})

    def test_empty_tenant_set_rejected(self):
        ssd = make_ssd()
        host = HostInterface(ssd)
        host.add_namespace("a", size_pages=64)
        with pytest.raises(ValueError):
            host.run({})

    def test_iops_limit_paces_admission(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        ns = host.add_namespace("capped", size_pages=4096)
        ns.limiters.append(TokenBucket(1000.0, 2.0, unit="requests"))
        result = host.run({"capped": [("W", i * 4, 4) for i in range(50)]})
        # 50 requests at 1000 IOPS (burst 2) need ~48 ms of simulated time.
        assert ssd.stats.simulated_time_us >= 47_000.0
        assert ns.stats.rate_limit_deferrals > 0
        assert result["capped"].completed == 50

    def test_bandwidth_limit_charges_pages(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        ns = host.add_namespace("capped", size_pages=4096)
        ns.limiters.append(TokenBucket(1_000_000.0, 8.0, unit="pages"))
        host.run({"capped": [("W", i * 8, 8) for i in range(100)]})
        # 800 pages at 1 page/us with burst 8: at least ~790 us of pacing.
        assert ssd.stats.simulated_time_us >= 790.0

    def test_deferrals_counted_once_per_request(self):
        """One deferred admission = one count, however many retries it takes."""
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        ns = host.add_namespace("capped", size_pages=4096)
        ns.limiters.append(TokenBucket(1_000_000.0, 1.0, unit="requests"))
        host.run({"capped": [("W", i * 4, 1) for i in range(10)]})
        # The first request rides the burst token; the other nine are each
        # deferred exactly once while their token accrues.
        assert ns.stats.rate_limit_deferrals == 9

    def test_short_throttle_not_delayed_by_long_throttle(self):
        """A pending distant retry must not swallow an earlier-needed one.

        Tenant "slow" exhausts its burst and refills only after ~100 ms,
        parking a retry far in the future.  Tenant "quick" then needs a
        retry just ~1 us after its own arrival — it must be admitted on
        its own refill clock, not slow's.
        """
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        slow = host.add_namespace("slow", size_pages=1024)
        slow.limiters.append(TokenBucket(10.0, 1.0, unit="requests"))
        quick = host.add_namespace("quick", size_pages=1024)
        quick.limiters.append(TokenBucket(1_000_000.0, 1.0, unit="requests"))
        quick_trace = Trace(
            "quick",
            [
                IORequest("W", 0, 1, timestamp_us=100.0),
                IORequest("W", 1, 1, timestamp_us=101.0),
            ],
        )
        result = host.run(
            {"slow": [("W", 0, 1), ("W", 1, 1)], "quick": quick_trace}
        )
        assert result["quick"].completed == 2
        # slow's second request really did wait for its distant refill...
        assert slow.stats.write_latency.max_us > 90_000.0
        # ...while quick's second was admitted on its ~1 us refill, not
        # parked behind slow's ~100 ms retry.
        assert quick.stats.write_latency.max_us < 5_000.0

    def test_unlimited_tenant_not_deferred(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        ns = host.add_namespace("free", size_pages=4096)
        host.run({"free": [("W", i * 4, 4) for i in range(50)]})
        assert ns.stats.rate_limit_deferrals == 0

    def test_open_loop_queue_waits_counted(self):
        """Arrival-to-completion latency includes submission-queue wait."""
        ssd = make_ssd()
        host = HostInterface(ssd)
        host.add_namespace("t", size_pages=4096)

        # Two reads arriving back-to-back: the second queues behind the
        # first (depth 1), so its recorded latency exceeds service time.
        trace = Trace(
            "t",
            [
                IORequest("W", 0, 64, timestamp_us=0.0),
                IORequest("W", 64, 64, timestamp_us=1.0),
            ],
        )
        ns = host.run({"t": trace})["t"]
        assert ns.completed == 2
        assert ns.queue_wait_us > 0.0

    def test_invalid_constructor_arguments(self):
        ssd = make_ssd()
        with pytest.raises(ValueError):
            HostInterface(ssd, arbiter="lottery")
        with pytest.raises(ValueError):
            HostInterface(ssd, arbiter="")
        loop = EventLoop()
        ns = Namespace("t", 0, 64)
        with pytest.raises(ValueError):
            MultiQueueFrontend(ssd, loop, make_arbiter("fifo"), 0)
        with pytest.raises(ValueError):
            MultiQueueFrontend(ssd, loop, make_arbiter("fifo"), 1).run([])
        with pytest.raises(ValueError):
            SubmissionQueue(ns, [], mode="warp")
        for time_scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="time_scale"):
                SubmissionQueue(ns, [], time_scale=time_scale)

    def test_ssd_options_carry_default_arbiter(self):
        ssd = make_ssd(options=SSDOptions(arbiter="strict_priority"))
        host = HostInterface(ssd)
        assert host.arbiter_name == "strict_priority"
        with pytest.raises(ValueError):
            make_ssd(options=SSDOptions(arbiter="warp"))
