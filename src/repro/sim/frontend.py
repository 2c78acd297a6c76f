"""Host admission: one engine, three policies.

How trace requests (:class:`repro.workloads.trace.IORequest` objects; bare
``(op, lpa, npages)`` tuples are coerced) are admitted into the device.

**The engine** (:class:`Frontend`) owns what admission has in common:

* the device slots — requests ``outstanding`` against an optional ``depth``;
* the one cycle ``_pump`` → ``submit()`` → ``request_complete`` →
  ``_pump``: whenever a slot may be free the engine asks its policy to
  :meth:`~Frontend.pick` a command and submits it on the spot, at the
  current instant, until the slots are full or the policy has nothing to
  offer — admission is not an event.  A completion that is then the
  loop's next event is taken where it was scheduled instead of being
  dispatched: the observers see it as usual, ``events_processed`` does
  not count it, so a depth-1 replay dispatches no event at all;
* the one open-loop arrival path: an :class:`ArrivalStream` delivers each
  request at its scaled trace timestamp — ``request_arrival`` → join the
  stream's backlog → schedule that stream's next arrival → ``_pump`` — so
  one pending arrival per stream lives in the event queue and a full-trace
  replay never materialises its events up front;
* :class:`FrontendStats`.

Every completion and arrival event carries one payload shape, a
:data:`Command`.  ``schedule()`` order is part of the determinism contract
(event sequence numbers are digested), so the order above is fixed: an
arrival enqueues, schedules the next arrival, then pumps; a pick is
submitted, and its completion scheduled, before the next pick.  So a
completion can fire ahead of an arrival or rate-limit retry at its instant
that an engine deferring each submit to an issue event would deliver first;
``tests/test_sim.py`` checks the two engines agree everywhere else.  Taking
a completion in place changes no order at all: the same test file checks
that a pump dispatching every completion gives the same submits, stats and
observed ``(time, kind, priority, seq)`` stream.

**The policies** are what differs — which command is next:

* :class:`HostFrontend` — closed loop, NCQ style (SATA NCQ: 32 slots, NVMe
  far more).  The next request of one iterator, ready the moment a slot
  frees: the first ``queue_depth`` requests are admitted at once and each
  completion admits one more *at the completion time*.  Depth 1 is the
  classic synchronous simulation; at depth N foreground requests overlap
  each other and the flush/GC traffic their predecessors triggered.
* :class:`OpenLoopFrontend` — open loop, the trace-replay methodology of
  WiscSee-style simulators.  The head of one arrived backlog, no depth
  bound: each request is issued at its arrival time *whether or not*
  earlier ones have completed, so the number outstanding is a measurement
  (how far the device falls behind the arrival process) rather than a
  knob, and latency is measured against arrival times.
* :class:`repro.host.interface.MultiQueueFrontend` — one stream per
  tenant (open or closed), token buckets and an arbiter, plus namespace
  translation and per-tenant accounting.

The device is duck-typed: anything with
``submit(op, lpa, npages, at_us) -> finish_us`` works.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterable, Iterator, List, Optional, Protocol, Tuple

from repro.sim.events import Event, EventLoop, PRIORITY_FOREGROUND
from repro.workloads.trace import IORequest, ReplayItem, as_request


class SubmitTarget(Protocol):
    """The duck-typed device contract: anything with this ``submit`` works."""

    def submit(
        self, op: str, lpa: int, npages: int = 1, at_us: Optional[float] = None
    ) -> float: ...

#: Admission modes of a replay (``SimulatedSSD.run(replay_mode=)``) and of a
#: tenant's submission queue.
REPLAY_MODES = ("closed", "open")


def check_queue_depth(queue_depth: int) -> int:
    """``queue_depth`` if it is a usable slot count, else ``ValueError``."""
    if queue_depth < 1:
        raise ValueError("queue_depth must be at least 1")
    return queue_depth


@dataclass
class FrontendStats:
    """Counters describing one frontend run.

    Their one reader is :meth:`repro.ssd.ssd.SimulatedSSD.run_frontend`,
    which folds them into ``requests_submitted`` / ``requests_completed`` /
    ``max_outstanding_requests``; the replay's end time is the device's
    ``simulated_time_us``.
    """

    submitted: int = 0
    completed: int = 0
    max_outstanding: int = 0


class ArrivalStream:
    """One request stream: its source, its arrival clock and its backlog.

    Arrival times are taken relative to the stream's first timestamp,
    scaled by ``time_scale`` and anchored at ``origin_us`` (the loop's time
    when the replay starts, so a replay that follows a warm-up phase starts
    its arrival process at the present).  Requests whose timestamps are all
    zero (synthetic traces, bare tuples) degenerate to simultaneous arrival
    — stamp them first with
    :meth:`repro.workloads.trace.Trace.with_interarrival`.  Same-timestamp
    arrivals are delivered in trace order (the event loop is schedule-order
    stable).
    """

    def __init__(
        self, source: Iterable[ReplayItem] = (), time_scale: float = 1.0, name: str = "host"
    ) -> None:
        # One chained compare also rejects nan and inf.
        if not 0.0 < time_scale < math.inf:
            raise ValueError(f"time_scale must be finite and positive, got {time_scale!r}")
        self.name = name
        self.time_scale = time_scale
        self.source: Iterator[ReplayItem] = iter(source)
        #: Requests that have arrived and wait for admission:
        #: ``(request, ready_us, enqueue_stamp)``.
        self.backlog: Deque[Tuple[IORequest, float, int]] = deque()
        self.origin_us = 0.0
        self._first_timestamp = 0.0
        self._last_timestamp: Optional[float] = None

    def next_request(self) -> Optional[IORequest]:
        """Pull the next request off the source (``None`` when exhausted)."""
        item = next(self.source, None)
        return None if item is None else as_request(item)

    def arrival_time(self, request: IORequest) -> float:
        """Absolute arrival time of ``request``, the next one off the source.

        A timestamp earlier than its predecessor's raises: silently
        reordering (or clamping) arrivals would misrepresent the offered
        load — sort the trace with
        :meth:`repro.workloads.trace.Trace.sorted_by_timestamp` first.
        """
        timestamp = request.timestamp_us
        last = self._last_timestamp
        if last is None:
            self._first_timestamp = timestamp
        elif timestamp < last:
            raise ValueError(
                f"stream {self.name!r}: open-loop replay requires non-decreasing "
                f"timestamps, got {timestamp} after {last}; "
                "sort the trace (Trace.sorted_by_timestamp()) before replay"
            )
        self._last_timestamp = timestamp
        return self.origin_us + (timestamp - self._first_timestamp) * self.time_scale


#: Payload of every completion / arrival event: the stream the
#: request came from (``None`` for the closed single-queue policy, which
#: has no backlog to wait in), the request, and when it became ready for
#: admission (its arrival time, or the admission time for closed loops).
Command = Tuple[Optional[ArrivalStream], IORequest, float]


class Frontend:
    """The admission engine; subclasses are policies (see the module doc)."""

    def __init__(self, device: SubmitTarget, loop: EventLoop, depth: Optional[int]) -> None:
        self._device = device
        self._loop = loop
        self._depth = None if depth is None else check_queue_depth(depth)
        self._outstanding = 0
        #: Global enqueue order across this frontend's streams (FIFO ties).
        self._stamps = itertools.count()
        self.stats = FrontendStats()

    def run(self, traffic: Any) -> FrontendStats:
        """Replay ``traffic`` to completion; returns the frontend stats."""
        raise NotImplementedError

    def pick(self, now_us: float) -> Optional[Command]:
        """The next command to admit at ``now_us`` (``None``: nothing now)."""
        raise NotImplementedError

    def submit(self, command: Command, at_us: float) -> float:
        """Hand ``command`` to the device; returns its completion time."""
        request = command[1]
        return self._device.submit(request.op, request.lpa, request.npages, at_us=at_us)

    def retire(self, command: Command, at_us: float) -> None:
        """``command`` completed at ``at_us`` (per-stream accounting hook)."""

    def _replay(self) -> FrontendStats:
        self._pump(self._loop.now_us)
        self._loop.run()
        return self.stats

    def _pump(self, now_us: float) -> None:
        """Fill free device slots: one :meth:`pick` and one submit per slot.

        Once nothing more can be admitted, the completion scheduled last is
        taken in place if it is the loop's next event
        (:meth:`EventLoop.take_if_next`), and the pump goes on at its
        instant: what ``run()`` would do next, minus the dispatch.  Every
        caller pumps last, so nothing else would run in between.
        """
        depth = self._depth
        stats = self.stats
        loop = self._loop
        while True:
            last: Optional[Event] = None
            while depth is None or self._outstanding < depth:
                command = self.pick(now_us)
                if command is None:
                    break
                self._outstanding += 1
                stats.submitted += 1
                if self._outstanding > stats.max_outstanding:
                    stats.max_outstanding = self._outstanding
                finish = self.submit(command, now_us)
                # Completions fire at foreground priority so a freed slot
                # admits the next request before any same-timestamp
                # background GC step runs.  The command rides along for
                # retire() and for observers (payloads are not digested).
                last = loop.schedule(
                    finish, "request_complete", self._complete, command, PRIORITY_FOREGROUND
                )
            if last is None:
                return
            # Read before the take, which recycles the event.
            command, now_us = last.payload, last.time_us
            if not loop.take_if_next(last):
                return
            self._outstanding -= 1
            stats.completed += 1
            self.retire(command, now_us)

    def _complete(self, event: Event) -> None:
        self._outstanding -= 1
        self.stats.completed += 1
        now_us = event.time_us
        self.retire(event.payload, now_us)
        self._pump(now_us)

    def _open(self, stream: ArrivalStream) -> None:
        """Start ``stream``'s arrival clock at the present."""
        stream.origin_us = self._loop.now_us
        self._schedule_arrival(stream)

    def _schedule_arrival(self, stream: ArrivalStream) -> None:
        request = stream.next_request()
        if request is None:
            return
        at_us = stream.arrival_time(request)
        self._loop.schedule(
            at_us, "request_arrival", self._arrive, (stream, request, at_us), PRIORITY_FOREGROUND
        )

    def _arrive(self, event: Event) -> None:
        command: Command = event.payload
        stream, request, _ = command
        assert stream is not None
        stream.backlog.append((request, event.time_us, next(self._stamps)))
        self._schedule_arrival(stream)
        self._pump(event.time_us)


class HostFrontend(Frontend):
    """Closed loop: up to ``queue_depth`` requests of one stream outstanding."""

    def __init__(self, device: SubmitTarget, loop: EventLoop, queue_depth: int = 1) -> None:
        super().__init__(device, loop, queue_depth)
        self._source: Iterator[ReplayItem] = iter(())

    def run(self, requests: Iterable[ReplayItem]) -> FrontendStats:
        """Replay ``requests`` to completion; returns the frontend stats."""
        self._source = iter(requests)
        return self._replay()

    def pick(self, now_us: float) -> Optional[Command]:
        item = next(self._source, None)
        return None if item is None else (None, as_request(item), now_us)


class OpenLoopFrontend(Frontend):
    """Open loop: each request of one stream issued at its arrival time."""

    def __init__(self, device: SubmitTarget, loop: EventLoop, time_scale: float = 1.0) -> None:
        super().__init__(device, loop, depth=None)
        self._stream = ArrivalStream(time_scale=time_scale)

    def run(self, requests: Iterable[ReplayItem]) -> FrontendStats:
        """Replay ``requests`` to completion; returns the frontend stats."""
        self._stream.source = iter(requests)
        self._open(self._stream)
        return self._replay()

    def pick(self, now_us: float) -> Optional[Command]:
        backlog = self._stream.backlog
        if not backlog:
            return None
        request, ready_us, _ = backlog.popleft()
        return (self._stream, request, ready_us)


def interleave_streams(*streams: Iterable[ReplayItem]) -> Iterator[ReplayItem]:
    """Round-robin merge of several request streams (multi-tenant mixes).

    Each tenant's stream keeps its internal order; exhausted streams drop
    out.  Combined with ``queue_depth > 1`` this is how a shared device
    serving several workloads at once is simulated.
    """
    iterators: List[Iterator[ReplayItem]] = [iter(stream) for stream in streams]
    while iterators:
        still_live: List[Iterator[ReplayItem]] = []
        for iterator in iterators:
            item = next(iterator, None)
            if item is None:
                continue
            yield item
            still_live.append(iterator)
        iterators = still_live
