"""A deterministic time-ordered event loop (the heart of the sim engine).

The loop owns the simulated clock.  Components schedule :class:`Event`
objects at absolute times; the loop pops them in ``(time, priority,
schedule-order)`` order and invokes their callbacks.  Two events with the
same timestamp and priority always fire in the order they were scheduled,
which makes every simulation run bit-reproducible — a property the
regression tests rely on when comparing an engine against its reference
model.  A caller may also take the next event in place
(:meth:`EventLoop.take_if_next`): the frontend does so for a completion it
just scheduled, so a depth-1 replay dispatches nothing.

The design follows the classic discrete-event simulator split used by
WiscSee and FTL-SIM: an ``EventLoop`` plus a host frontend
(:mod:`repro.sim.frontend`) that admits requests at a configurable queue
depth, and resource schedulers (:mod:`repro.sim.nand`) that serialize
operations on shared hardware.

Queue layout
------------

One binary heap of ``(time_us, priority, seq, event)`` — the total order
itself, so there is nothing to keep in step with it.  It is sized to the
traffic a replay generates, measured on the four perf-ledger workloads
(seed 1, scale 0.2; re-run with ``python -m tools.sim_traffic``):

================  ==========  ========  ===========  =======  ========  ========  ========
workload          schedule()  taken in  dispatched   max      at "now"  occupied  ``gc_*``
                  calls       place     per request  pending            (*)       kinds
================  ==========  ========  ===========  =======  ========  ========  ========
``steady_mixed``      11,600     8,272        0.287        8     0.0 %     1.5 %     0.0 %
``read_lookup``        9,000     1,269        0.859        8     0.0 %    10.7 %     0.0 %
``seq_stream``         2,800     2,800        0.000        1     0.0 %     0.0 %     0.0 %
``tenants_wrr``       17,376     4,389        1.546        7     1.0 %     2.5 %     3.3 %
================  ==========  ========  ===========  =======  ========  ========  ========

(*) share of schedules landing on the current instant or on a timestamp
that already holds a pending event.  NAND operations get no events (the
scheduler reserves channel time arithmetically; flush programs and
blocking-reclaim erases included), and admission submits inline, so
everything but the background GC pipeline's three stages is one
``request_complete`` per request (plus one ``request_arrival`` per
open-loop request): at most a handful of events are ever pending, and few
schedules share a timestamp — a per-timestamp calendar has nothing to
batch.  "Taken in place" completions are scheduled and observed but never
dispatched; the rest are ``run()``'s traffic (the ledger's
``sim.events_per_io``).

``Event`` is a plain ``__slots__`` class, and events that fire inside
``run()`` or are taken in place are recycled through a free list:
production code never retains an event past its firing (the frontend's
pump holds ``schedule()``'s return value only within one pump call, to
take that completion in place), so recycling is invisible outside the
loop.  The list earns its lines — three loops interleaved in one process,
40 alternations, median [q1, q3] in k events/s: replay-shaped traffic
(depth 8, issues at "now") 1,012 [968, 1,031] with it, 850 [823, 872]
without, 913 [897, 933] for the per-timestamp calendar this heap replaced;
10 k random times scheduled up front (the ledger's micro) 422 [385, 453] /
408 [367, 428] / 288 [250, 298].
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Canonical event priorities.  Same-timestamp events fire in ascending
#: priority order, so foreground request handling always precedes
#: garbage-collection pipeline steps.  Flush programs and blocking-reclaim
#: erases get no event at all: they are channel reservations, which the NAND
#: probe already reports.  Keeping the ordering in one place makes the
#: interleaving semantics of the whole simulator auditable (and
#: deterministic by construction).
PRIORITY_FOREGROUND = 0
PRIORITY_GC = 2


class SimulationLimitError(RuntimeError):
    """``EventLoop.run()`` hit its ``max_events`` backstop mid-simulation.

    A silent stop would truncate the replay and corrupt every derived
    statistic, so the loop fails loudly instead.  ``events_processed``
    carries how many events the interrupted ``run()`` call had dispatched.
    """

    def __init__(self, max_events: int, events_processed: int) -> None:
        super().__init__(
            f"event loop exceeded {max_events} events "
            f"({events_processed} processed in this run); the simulation is "
            "incomplete — raise max_events or shorten the trace"
        )
        self.max_events = max_events
        self.events_processed = events_processed


class Event:
    """One scheduled occurrence in simulated time.

    Attributes
    ----------
    time_us:
        Absolute simulated time at which the event fires.
    kind:
        Free-form tag (``"request_complete"``, ``"gc_program"``, ...)
        used by tests and tracing.
    callback:
        Invoked as ``callback(event)`` when the event fires; ``None`` makes
        the event a pure timestamp marker.
    payload:
        Arbitrary data carried to the callback.
    priority:
        Tie-breaker for same-timestamp events; lower fires first.
    seq:
        Monotonic schedule order, assigned by the loop (final tie-breaker).
    """

    __slots__ = ("time_us", "kind", "callback", "payload", "priority", "seq")

    def __init__(
        self,
        time_us: float,
        kind: str,
        callback: Optional[Callable[["Event"], None]],
        payload: Any,
        priority: int,
        seq: int,
    ) -> None:
        self.time_us = time_us
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.priority = priority
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time_us={self.time_us!r}, kind={self.kind!r}, "
            f"priority={self.priority!r}, seq={self.seq!r})"
        )


class EventLoop:
    """A time-ordered event queue with a monotonic simulated clock."""

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = start_us
        #: The queue: ``(time_us, priority, seq, event)``; ``seq`` is unique,
        #: so the comparison never reaches the event.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Recycled Event objects (filled by ``run()`` and ``take_if_next``,
        #: drained by ``schedule``).
        self._pool: List[Event] = []
        #: Events ``run()`` / ``step()`` dispatched (not those taken in place).
        self.events_processed = 0
        #: Called with every event that fires, dispatched or taken in place,
        #: before its callback runs.
        #: The determinism harness (:mod:`repro.verify`) hangs a trace
        #: digest here; ``None`` keeps the hot path branch-only.
        self.observer: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def now_us(self) -> float:
        """Current simulated time (time of the last processed event)."""
        return self._now_us

    @property
    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    def chain_observer(self, fn: Callable[[Event], None]) -> None:
        """Attach ``fn`` as an observer without displacing the current one.

        The determinism harness installs a digest observer and the
        power-fail injector installs a crash timer; chaining lets both see
        every event (existing observer first, then ``fn``) so crash points
        land at identical event indices with or without digesting.
        """
        current = self.observer
        if current is None:
            self.observer = fn
            return

        def chained(event: Event, _first: Callable[[Event], None] = current) -> None:
            _first(event)
            fn(event)

        self.observer = chained

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time_us: float,
        kind: str,
        callback: Optional[Callable[[Event], None]] = None,
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule an event at ``time_us`` (clamped to the present).

        Scheduling in the past would make the clock run backwards, so such
        requests are clamped to ``now_us`` — they fire "immediately", after
        any event already scheduled for the current instant.
        """
        now = self._now_us
        fire_at = time_us if time_us >= now else now
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time_us = fire_at
            event.kind = kind
            event.callback = callback
            event.payload = payload
            event.priority = priority
            event.seq = seq
        else:
            event = Event(fire_at, kind, callback, payload, priority, seq)
        heapq.heappush(self._heap, (fire_at, priority, seq, event))
        return event

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def take_if_next(self, event: Event) -> bool:
        """Take ``event`` in place if it is the one ``run()`` would fire next.

        Pops it, advances the clock and calls the observer exactly as
        ``run()`` would, then recycles it; the caller does the callback's
        work itself, and ``events_processed`` does not count the event.
        Returns whether the event was taken.
        """
        heap = self._heap
        if not heap or heap[0][3] is not event:
            return False
        heapq.heappop(heap)
        self._now_us = event.time_us
        if self.observer is not None:
            self.observer(event)
        event.callback = None
        event.payload = None
        self._pool.append(event)
        return True

    def step(self) -> Optional[Event]:
        """Process the next event; returns it, or ``None`` if queue is empty.

        Events returned here are never recycled — callers (tests, mostly)
        may keep them.
        """
        if not self._heap:
            return None
        time_us, _, _, event = heapq.heappop(self._heap)
        self._now_us = time_us
        self.events_processed += 1
        if self.observer is not None:
            self.observer(event)
        if event.callback is not None:
            event.callback(event)
        return event

    def run(self, until_us: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Drain the queue (optionally only up to ``until_us``); returns count.

        ``max_events`` is a runaway-loop backstop, far above anything a real
        trace replay schedules: once that many events have fired and another
        that would still fire is pending, :class:`SimulationLimitError` is
        raised rather than a truncated simulation returned (the queue is left
        intact, so a second ``run()`` resumes it).  Draining the queue with
        exactly ``max_events`` events is a complete run.
        """
        processed = 0
        heap = self._heap
        pool = self._pool
        pop = heapq.heappop
        while heap:
            time_us, _, _, event = heap[0]
            if until_us is not None and time_us > until_us:
                break
            if processed >= max_events:
                raise SimulationLimitError(max_events, processed)
            pop(heap)
            self._now_us = time_us
            self.events_processed += 1
            processed += 1
            if self.observer is not None:
                self.observer(event)
            callback = event.callback
            if callback is not None:
                callback(event)
            # The event is dead; recycle it (nothing outside the loop
            # holds events fired by run()).
            event.callback = None
            event.payload = None
            pool.append(event)
        return processed
