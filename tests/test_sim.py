"""Tests for the event-driven simulation engine.

Covers four layers:

* the event loop itself (deterministic ordering of same-timestamp events);
* admission: inline submission against a reference engine that schedules
  an issue event per admission, and in-place completion against a
  reference pump that leaves every completion to ``run()``;
* the NAND scheduler (bus-only gating, die occupancy recorded);
* the full device: ``run()`` at ``queue_depth = 1`` must reproduce a
  serial submit loop bit-for-bit, and at higher depths foreground
  reads must be measurably delayed by concurrent flush/GC traffic while
  the replay makespan shrinks.
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.host.arbiter import ARBITERS, TokenBucket, make_arbiter
from repro.host.interface import MultiQueueFrontend, SubmissionQueue
from repro.host.namespace import Namespace
from repro.obs.registry import device_snapshot, snapshot_stats
from repro.sim.events import PRIORITY_FOREGROUND, EventLoop, SimulationLimitError
from repro.sim.frontend import REPLAY_MODES, HostFrontend, OpenLoopFrontend, interleave_streams
from repro.sim.nand import NANDScheduler
from repro.ssd.ssd import SSDOptions
from repro.workloads.trace import IORequest
from tests.conftest import make_ssd


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        for time_us in (30.0, 10.0, 20.0):
            loop.schedule(time_us, "tick", lambda e: fired.append(e.time_us))
        loop.run()
        assert fired == [10.0, 20.0, 30.0]
        assert loop.now_us == 30.0
        assert loop.events_processed == 3

    def test_same_timestamp_events_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("a", "b", "c", "d"):
            loop.schedule(5.0, tag, lambda e: fired.append(e.kind))
        loop.run()
        assert fired == ["a", "b", "c", "d"]

    def test_priority_breaks_timestamp_ties(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, "late", lambda e: fired.append(e.kind), priority=1)
        loop.schedule(5.0, "early", lambda e: fired.append(e.kind), priority=-1)
        loop.run()
        assert fired == ["early", "late"]

    def test_scheduling_in_the_past_clamps_to_now(self):
        loop = EventLoop(start_us=100.0)
        fired = []
        loop.schedule(1.0, "stale", lambda e: fired.append(e.time_us))
        loop.run()
        assert fired == [100.0]
        assert loop.now_us == 100.0

    def test_events_scheduled_from_callbacks_interleave(self):
        loop = EventLoop()
        fired = []

        def chain(event):
            fired.append((event.kind, event.time_us))
            if len(fired) < 3:
                loop.schedule(event.time_us + 10.0, f"gen{len(fired)}", chain)

        loop.schedule(0.0, "gen0", chain)
        loop.schedule(15.0, "other", lambda e: fired.append(("other", e.time_us)))
        loop.run()
        assert fired == [
            ("gen0", 0.0),
            ("gen1", 10.0),
            ("other", 15.0),
            ("gen2", 20.0),
        ]

    def test_run_until_leaves_future_events_pending(self):
        loop = EventLoop()
        loop.schedule(1.0, "soon")
        loop.schedule(100.0, "later")
        processed = loop.run(until_us=50.0)
        assert processed == 1
        assert loop.pending == 1

    def test_draining_with_exactly_max_events_is_a_complete_run(self):
        loop = EventLoop()
        for time_us in (1.0, 2.0, 3.0):
            loop.schedule(time_us, "tick")
        assert loop.run(max_events=3) == 3
        assert loop.pending == 0
        # An event past ``until_us`` is not "still to fire".
        loop.schedule(10.0, "soon")
        loop.schedule(99.0, "later")
        assert loop.run(until_us=50.0, max_events=1) == 1

    def test_exceeding_max_events_raises_and_the_loop_resumes(self):
        loop = EventLoop()
        fired = []
        for time_us in (1.0, 2.0, 3.0, 4.0, 5.0):
            loop.schedule(time_us, "tick", lambda e: fired.append(e.time_us))
        with pytest.raises(SimulationLimitError, match="exceeded 3 events") as caught:
            loop.run(max_events=3)
        assert caught.value.events_processed == 3
        assert caught.value.max_events == 3
        assert (fired, loop.now_us, loop.pending) == ([1.0, 2.0, 3.0], 3.0, 2)
        assert loop.run() == 2
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert loop.events_processed == 5

    def test_max_events_reached_inside_a_same_timestamp_burst(self):
        loop = EventLoop()
        fired = []

        def spawn(event):
            fired.append(event.kind)
            if event.kind == "b":  # joins the burst, at "now"
                loop.schedule(event.time_us, "spawned", spawn)

        for tag in ("a", "b", "c", "d"):
            loop.schedule(7.0, tag, spawn)
        with pytest.raises(SimulationLimitError) as caught:
            loop.run(max_events=3)
        assert caught.value.events_processed == 3
        assert (fired, loop.now_us, loop.pending) == (["a", "b", "c"], 7.0, 2)
        assert loop.run(max_events=2) == 2
        assert fired == ["a", "b", "c", "d", "spawned"]


# --------------------------------------------------------------------------- #
# The loop against a reference model: a list sorted by (time, priority, seq)
# --------------------------------------------------------------------------- #
#: Offsets from "now": in the past (clamped), at the current instant, and a
#: few future values that collide often, so ties are the common case.
_OFFSETS = st.sampled_from([-5.0, 0.0, 0.0, 1.0, 2.5, 2.5, 10.0])
_PRIORITIES = st.sampled_from([-1, 0, 0, 1, 2])
#: One schedule: (offset, priority, schedules its callback makes when it fires).
_SCHEDULES = st.recursive(
    st.tuples(_OFFSETS, _PRIORITIES, st.just(())),
    lambda children: st.tuples(
        _OFFSETS, _PRIORITIES, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=6,
)
_PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _SCHEDULES),
        st.tuples(st.just("schedule"), _SCHEDULES),
        st.tuples(st.just("run_until"), _OFFSETS),
        st.tuples(st.just("step"), st.none()),
    ),
    max_size=30,
)


def _drive(program, schedule, run, state):
    """Run ``program`` on one implementation; returns its state after each op."""
    states = []
    for op, arg in program:
        if op == "schedule":
            schedule(state()[0], *arg)
        elif op == "run_until":
            run(until=state()[0] + arg)
        else:
            run(limit=1)
        states.append(state())
    run()
    return states + [state()]


def _on_the_loop(program):
    loop = EventLoop()
    fired, idents = [], itertools.count()

    def schedule(now_us, offset, priority, children):
        ident = next(idents)

        def callback(event):
            fired.append((ident, event.time_us))
            for child in children:
                schedule(event.time_us, *child)

        loop.schedule(now_us + offset, "e", callback, None, priority)

    def run(until=None, limit=None):
        if limit:
            loop.step()
        else:
            loop.run(until_us=until)

    state = lambda: (loop.now_us, loop.pending, loop.events_processed, tuple(fired))  # noqa: E731
    return _drive(program, schedule, run, state)


def _on_the_model(program):
    queue, fired, idents = [], [], itertools.count()  # [time, priority, seq, children]
    clock = {"now": 0.0, "processed": 0}

    def schedule(now_us, offset, priority, children):
        queue.append([max(now_us + offset, clock["now"]), priority, next(idents), children])

    def run(until=None, limit=None):
        while queue and limit != 0:
            queue.sort(key=lambda entry: entry[:3])
            time_us, _, ident, children = queue[0]
            if until is not None and time_us > until:
                return
            queue.pop(0)
            clock["now"], clock["processed"] = time_us, clock["processed"] + 1
            limit = limit and limit - 1
            fired.append((ident, time_us))
            for child in children:
                schedule(time_us, *child)

    state = lambda: (clock["now"], len(queue), clock["processed"], tuple(fired))  # noqa: E731
    return _drive(program, schedule, run, state)


@given(program=_PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_event_loop_matches_the_sorted_list_model(program):
    """schedule (future / at "now" / past, also from callbacks),
    run(until_us=) and step() in any interleaving: the heap fires the same
    events at the same times and reports the same now_us / pending /
    events_processed as a list kept sorted by (time, priority, seq)."""
    assert _on_the_loop(program) == _on_the_model(program)


class _ScheduledIssue:
    """The admission engine before inline submission, kept as the reference:
    each pick reserves a slot and schedules a ``request_issue`` event at the
    current instant, whose callback submits."""

    _reserved = 0

    def _pump(self, now_us):
        while self._depth is None or self._outstanding + self._reserved < self._depth:
            command = self.pick(now_us)
            if command is None:
                return
            self._reserved += 1
            self._loop.schedule(now_us, "request_issue", self._issue, command, PRIORITY_FOREGROUND)

    def _issue(self, event):
        self._reserved -= 1
        self._outstanding += 1
        self.stats.submitted += 1
        self.stats.max_outstanding = max(self.stats.max_outstanding, self._outstanding)
        finish = self.submit(event.payload, event.time_us)
        self._loop.schedule(
            finish, "request_complete", self._complete, event.payload, PRIORITY_FOREGROUND
        )


class _DispatchedCompletions:
    """The pump before in-place completion, kept as the reference: every
    completion is scheduled and left for ``run()`` to dispatch."""

    def _pump(self, now_us):
        while self._depth is None or self._outstanding < self._depth:
            command = self.pick(now_us)
            if command is None:
                return
            self._outstanding += 1
            self.stats.submitted += 1
            self.stats.max_outstanding = max(self.stats.max_outstanding, self._outstanding)
            finish = self.submit(command, now_us)
            self._loop.schedule(
                finish, "request_complete", self._complete, command, PRIORITY_FOREGROUND
            )


class _TieDevice:
    """Records every submit; latencies cycle through a list holding 0 and
    repeats, so completions share instants with submits, arrivals and each
    other — where a same-instant reorder would show."""

    def __init__(self, latencies):
        self.latencies = latencies
        self.submits = []

    def submit(self, op, lpa, npages, at_us):
        self.submits.append((at_us, op, lpa, npages))
        return at_us + self.latencies[len(self.submits) % len(self.latencies)]


_NS_PAGES = 64


@st.composite
def _tie_requests(draw, max_size=20):
    """Requests inside one namespace, timestamps non-decreasing with ties."""
    timestamp, requests = 0.0, []
    for _ in range(draw(st.integers(1, max_size))):
        timestamp += draw(st.sampled_from([0.0, 0.0, 1.0, 5.0]))
        npages = draw(st.integers(1, 8))
        lpa = draw(st.integers(0, _NS_PAGES - npages))
        requests.append(IORequest(draw(st.sampled_from("RW")), lpa, npages, timestamp_us=timestamp))
    return requests


#: One tenant of the multi-queue case: (mode, requests, weight, token
#: bucket (rate per s, burst) or None).
_TENANTS = st.lists(
    st.tuples(
        st.sampled_from(REPLAY_MODES),
        _tie_requests(max_size=10),
        st.integers(1, 3),
        st.none() | st.tuples(st.sampled_from([2e4, 1e5, 1e6]), st.sampled_from([1, 2])),
    ),
    min_size=1,
    max_size=3,
)
_TRAFFIC = st.one_of(
    st.tuples(st.just("closed"), st.integers(1, 8), _tie_requests()),
    st.tuples(st.just("open"), st.sampled_from([0.5, 1.0]), _tie_requests()),
    st.tuples(st.just("multi"), st.tuples(st.sampled_from(ARBITERS), st.integers(1, 8)), _TENANTS),
)


def _admit(traffic, latencies, reference=None):
    """Replay ``traffic`` on a fresh engine, or with a ``reference`` pump.

    Returns everything it did: the device submits, the frontend stats, the
    observed ``(time, kind, priority, seq)`` stream, the per-tenant stats,
    and ``(events run() dispatched, completions taken in place)``.
    """
    kind, param, load = traffic
    device, loop, events, taken = _TieDevice(latencies), EventLoop(), [], []
    loop.observer = lambda event: events.append(
        (event.time_us, event.kind, event.priority, event.seq)
    )
    take_if_next = loop.take_if_next

    def counted_take(event):
        taken.append(take_if_next(event))
        return taken[-1]

    loop.take_if_next = counted_take
    tenants = []
    if kind == "multi":
        frontend_cls, args = MultiQueueFrontend, (make_arbiter(param[0]), param[1])
        for index, (mode, requests, weight, bucket) in enumerate(load):
            namespace = Namespace(f"t{index}", index * _NS_PAGES, _NS_PAGES, weight=weight)
            if bucket is not None:
                namespace.limiters.append(TokenBucket(*bucket))
            tenants.append(SubmissionQueue(namespace, requests, mode))
        load = tenants
    else:
        frontend_cls, args = (HostFrontend, OpenLoopFrontend)[kind == "open"], (param,)
    if reference is not None:
        frontend_cls = type(reference.__name__ + frontend_cls.__name__, (reference, frontend_cls), {})
    stats = frontend_cls(device, loop, *args).run(load)
    per_tenant = [snapshot_stats(queue.namespace.stats, "ns") for queue in tenants]
    return device.submits, stats, events, per_tenant, (loop.events_processed, sum(taken))


def _without_issues(run):
    """An ``_admit`` result without ``request_issue`` events, sequence
    numbers (issue events take some) or event counts."""
    submits, stats, events, per_tenant, _ = run
    events = [event[:3] for event in events if event[1] != "request_issue"]
    return submits, stats, events, per_tenant


def _completion_tie(events):
    """Whether a completion shares its instant with another event."""
    at = collections.Counter(time_us for time_us, _, _ in events)
    return any(at[time_us] > 1 for time_us, kind, _ in events if kind == "request_complete")


#: Device latencies: zero and repeats, so completions tie with everything.
_TIE_LATENCIES = st.lists(st.sampled_from([0.0, 0.0, 0.5, 5.0, 5.0]), min_size=1, max_size=6)


@given(traffic=_TRAFFIC, latencies=_TIE_LATENCIES)
@settings(max_examples=300, deadline=None)
def test_in_place_completion_is_the_dispatched_one_exactly(traffic, latencies):
    """Closed loop at depth 1-8, open loop, and multi-queue with token
    buckets: taking the pump's last completion in place when it is the
    loop's next event gives the same device submits, frontend and tenant
    stats and observed ``(time, kind, priority, seq)`` stream as leaving
    every completion to ``run()`` — ties included.  ``run()`` dispatches
    exactly the events not taken in place, and none at closed depth 1."""
    *change, (processed, taken) = _admit(traffic, latencies)
    *reference, (reference_processed, reference_taken) = _admit(
        traffic, latencies, _DispatchedCompletions
    )
    assert change == reference
    assert reference_taken == 0
    assert reference_processed == processed + taken
    if traffic[:2] == ("closed", 1):
        assert processed == 0


@given(traffic=_TRAFFIC, latencies=_TIE_LATENCIES)
@settings(max_examples=300, deadline=None)
def test_inline_admission_is_the_scheduled_issue_minus_its_events(traffic, latencies):
    """Closed loop at depth 1-8, open loop, and multi-queue with token
    buckets: submitting inside ``_pump`` gives the same device submits, the
    same frontend and tenant stats, and the same (time, kind, priority)
    event stream as scheduling a ``request_issue`` event per admission,
    once those events are dropped.

    The one place the two part is a completion that shares its instant
    with another event: the inline engine schedules a completion when it
    submits, earlier than the reference did, so such a completion can fire
    ahead of a same-instant arrival or retry (see the test below), and
    ``max_outstanding`` can count a same-instant submit before the
    completion.  The closed loop is equal even then (its only events are
    completions, each admitting one request), and the open loop still
    submits the same commands at the same times."""
    inline = _without_issues(_admit(traffic, latencies))
    reference = _without_issues(_admit(traffic, latencies, _ScheduledIssue))
    if traffic[0] == "closed" or not (_completion_tie(inline[2]) or _completion_tie(reference[2])):
        assert inline == reference
    elif traffic[0] == "open":
        assert inline[0] == reference[0]
    assert inline[1].completed == reference[1].completed == len(inline[0]) > 0


def test_inline_completion_can_overtake_a_same_instant_arrival():
    """Three simultaneous arrivals on a zero-latency device: the first
    request completes at its own instant, and inline admission schedules
    that completion before the third arrival (the reference scheduled the
    third arrival first).  Both submit the same three commands at 0."""
    traffic = ("open", 1.0, [IORequest("R", lpa, 1) for lpa in range(3)])
    inline = _without_issues(_admit(traffic, [0.0]))
    reference = _without_issues(_admit(traffic, [0.0], _ScheduledIssue))
    assert inline[0] == reference[0] == [(0.0, "R", lpa, 1) for lpa in range(3)]
    arrive, complete = (0.0, "request_arrival", 0), (0.0, "request_complete", 0)
    assert inline[2] == [arrive, arrive, complete, arrive, complete, complete]
    assert reference[2] == [arrive, arrive, arrive, complete, complete, complete]


class TestNANDScheduler:
    def test_bus_reservations_serialize_per_channel(self):
        sched = NANDScheduler(channels=2)
        assert sched.reserve(0, 0.0, 10.0) == 10.0
        assert sched.reserve(0, 0.0, 10.0) == 20.0   # queued behind the first
        assert sched.reserve(1, 0.0, 10.0) == 10.0   # other channel is free
        assert sched.busy_until(0) == 20.0

    @pytest.mark.parametrize("probed", [False, True])
    def test_reserve_run_is_n_reserves_float_for_float(self, probed):
        """Same bus time and busy_until as ``count`` single reservations —
        awkward floats, an arrival inside and one past the busy horizon —
        and with a probe every operation of the burst is seen on its own."""
        one_by_one, batched = NANDScheduler(channels=2), NANDScheduler(channels=2)
        seen_single, seen_batched = [], []
        if probed:
            one_by_one.probe = lambda *span: seen_single.append(span)
            batched.probe = lambda *span: seen_batched.append(span)
        for channel, at_us, bus_us, count in (
            (0, 0.1, 0.7 / 3, 5),
            (0, 0.3, 1.1 / 7, 3),      # arrives while the bus is busy
            (1, 2.0, 200.0 / 3, 4),
            (0, 1e6 + 0.1, 0.1, 64),   # arrives long after it drained
            (1, 0.0, 5.0, 0),          # an empty burst changes nothing
        ):
            finish = one_by_one.busy_until(channel)
            for _ in range(count):
                finish = one_by_one.reserve(channel, at_us, bus_us)
            assert batched.reserve_run(channel, at_us, bus_us, count) == finish
            for ch in (0, 1):
                assert batched.busy_until(ch) == one_by_one.busy_until(ch)
                assert batched.bus_time_us(ch) == one_by_one.bus_time_us(ch)
        assert seen_batched == seen_single
        assert len(seen_single) == (76 if probed else 0)

    def test_die_argument_changes_nothing(self):
        """``reserve(die=)`` is accepted for the perf ledger's micro and ignored."""
        plain, with_die = NANDScheduler(channels=1), NANDScheduler(1, 4)
        assert plain.reserve(0, 0.0, 5.0) == with_die.reserve(0, 0.0, 5.0, die=3) == 5.0
        assert plain.reserve(0, 0.0, 5.0) == with_die.reserve(0, 0.0, 5.0, die=3) == 10.0

    def test_utilization_tracks_bus_time(self):
        sched = NANDScheduler(channels=1)
        sched.reserve(0, 0.0, 25.0)
        assert sched.bus_time_us(0) == 25.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            NANDScheduler(channels=0)
        with pytest.raises(ValueError):
            NANDScheduler(channels=1, dies_per_channel=0)


def _mixed_requests(seed: int, count: int, footprint: int):
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        start = rng.randrange(footprint)
        if rng.random() < 0.4:
            requests.append(("W", start, rng.randint(1, 32)))
        else:
            requests.append(("R", start, rng.randint(1, 8)))
    return requests


#: Device used by the engine tests: small enough that the fill +
#: overwrite passes of the contended workload push it past the GC
#: threshold, so flush *and* GC traffic are both in play.
_CONTENDED_CONFIG = replace(SSDConfig.tiny(), capacity_bytes=128 * 1024 * 1024)
_CONTENDED_FOOTPRINT = 28_000


def _contended_workload(footprint: int = _CONTENDED_FOOTPRINT):
    """A fill pass + half-stride overwrites (activates GC), then a mix."""
    fill = [("W", lpa, 64) for lpa in range(0, footprint, 64)]
    overwrite = [("W", lpa, 64) for lpa in range(0, footprint, 128)]
    return fill + overwrite + _mixed_requests(7, 2500, footprint)


def _stats_signature(ssd):
    """Every counter of the device and of its flash array."""
    return device_snapshot(ssd).as_dict(), ssd.flash.counters


class TestEngineEquivalence:
    def test_event_engine_at_depth_one_matches_serial_exactly(self):
        """Acceptance: ``run()`` at queue_depth=1 == a serial loop that
        submits each request at the device clock, stat for stat."""
        requests = _contended_workload()
        serial = make_ssd(gamma=4, config=_CONTENDED_CONFIG)
        for op, lpa, npages in requests:
            serial.submit(op, lpa, npages)
        serial.stats.requests_submitted = serial.stats.requests_completed = len(requests)
        serial.stats.max_outstanding_requests = 1
        serial.finalize_replay()
        replayed = make_ssd(gamma=4, config=_CONTENDED_CONFIG)
        replayed.run(requests)
        assert _stats_signature(replayed) == _stats_signature(serial)
        # The replay kept exactly one request in flight and dispatched no
        # event: every completion was taken where it was submitted.
        assert replayed.stats.max_outstanding_requests == 1
        assert replayed.stats.events_processed == 0

    def test_depth_one_dispatches_no_event(self):
        ssd = make_ssd()
        ssd.run(_mixed_requests(1, 200, 5000))
        assert ssd.stats.requests_completed == 200
        assert ssd.stats.events_processed == 0

    def test_gc_active_during_equivalence_workload(self):
        """The equivalence test must exercise flush + GC, not just reads."""
        ssd = make_ssd(gamma=4, config=_CONTENDED_CONFIG)
        ssd.run(_contended_workload())
        assert ssd.stats.gc_invocations > 0
        assert ssd.stats.buffer_flushes > 0


class TestQueueDepthContention:
    def _run_at_depth(self, depth: int):
        ssd = make_ssd(
            gamma=4,
            config=_CONTENDED_CONFIG,
            options=SSDOptions(queue_depth=depth),
        )
        ssd.run(_contended_workload())
        return ssd

    def test_deeper_queues_delay_foreground_reads(self):
        """Acceptance: reads at depth > 1 stall behind concurrent GC/flush."""
        shallow = self._run_at_depth(1)
        deep = self._run_at_depth(8)
        # Same logical work...
        assert deep.stats.host_read_pages == shallow.stats.host_read_pages
        assert deep.stats.data_page_writes == shallow.stats.data_page_writes
        # ...but reads queue behind overlapping background traffic.
        assert deep.stats.read_stall_us > shallow.stats.read_stall_us * 2
        assert (
            deep.stats.read_latency.mean_us > shallow.stats.read_latency.mean_us
        )
        # Overlap shortens the replay makespan (throughput gain).
        assert deep.stats.simulated_time_us < shallow.stats.simulated_time_us
        # The frontend really kept 8 requests outstanding.
        assert deep.stats.max_outstanding_requests == 8

    def test_queue_depth_clamped_to_device_ncq(self):
        from repro.config import SSDConfig

        config = replace(SSDConfig.tiny(), ncq_depth=4)
        ssd = make_ssd(config=config, options=SSDOptions(queue_depth=64))
        assert ssd.effective_queue_depth == 4

    def test_run_rejects_non_positive_queue_depth_like_the_options(self):
        """run(queue_depth=...) fails as SSDOptions(queue_depth=...) does,
        instead of silently replaying at depth 1; nothing is submitted."""
        ssd = make_ssd()
        for depth in (0, -2):
            with pytest.raises(ValueError, match="queue_depth must be at least 1"):
                make_ssd(options=SSDOptions(queue_depth=depth))
            with pytest.raises(ValueError, match="queue_depth must be at least 1"):
                ssd.run([("W", 0, 1)], queue_depth=depth)
        assert ssd.stats.requests_submitted == 0
        # The clamp from above stays: an over-deep override runs at ncq_depth.
        ssd.run([("W", lpa, 1) for lpa in range(64)], queue_depth=10_000)
        assert 1 < ssd.stats.max_outstanding_requests <= ssd.config.ncq_depth

    def test_event_replay_is_deterministic(self):
        first = self._run_at_depth(8)
        second = self._run_at_depth(8)
        assert _stats_signature(first) == _stats_signature(second)


class TestHostFrontend:
    class _RecordingDevice:
        """Fixed-latency device that records issue times."""

        def __init__(self, latency_us: float = 10.0):
            self.latency_us = latency_us
            self.issues = []

        def submit(self, op, lpa, npages, at_us):
            self.issues.append((at_us, op, lpa))
            return at_us + self.latency_us

    def test_depth_one_is_serial(self):
        device = self._RecordingDevice()
        loop = EventLoop()
        frontend = HostFrontend(device, loop, queue_depth=1)
        stats = frontend.run([("R", lpa, 1) for lpa in range(4)])
        assert [t for t, _, _ in device.issues] == [0.0, 10.0, 20.0, 30.0]
        assert stats.submitted == stats.completed == 4
        assert stats.max_outstanding == 1

    def test_depth_n_overlaps_requests(self):
        device = self._RecordingDevice()
        loop = EventLoop()
        frontend = HostFrontend(device, loop, queue_depth=2)
        stats = frontend.run([("R", lpa, 1) for lpa in range(4)])
        # Two admitted at t=0, the next two at the first completions.
        assert [t for t, _, _ in device.issues] == [0.0, 0.0, 10.0, 10.0]
        assert stats.max_outstanding == 2
        # The last completion is the loop's last event.
        assert loop.now_us == 20.0

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            HostFrontend(self._RecordingDevice(), EventLoop(), queue_depth=0)

    def test_interleave_streams_round_robins(self):
        a = [("R", 0, 1), ("R", 1, 1), ("R", 2, 1)]
        b = [("W", 10, 1)]
        merged = list(interleave_streams(a, b))
        assert merged == [("R", 0, 1), ("W", 10, 1), ("R", 1, 1), ("R", 2, 1)]
