"""The NVMe-style multi-queue host interface on top of the event loop.

Three pieces:

* :class:`SubmissionQueue` — one tenant stream feeding one namespace: an
  :class:`repro.sim.frontend.ArrivalStream` with a namespace.  Closed-loop
  queues pull their next request on demand (the stream is always
  backlogged, completion-driven); open-loop queues receive requests at
  their (scaled) trace timestamps through the engine's arrival path.

* :class:`MultiQueueFrontend` — the multi-queue admission *policy* of the
  one engine (:class:`repro.sim.frontend.Frontend`, which owns the device
  slots and the pick → submit → complete cycle).  Every time a slot frees,
  the arbiter picks which eligible queue's head request is admitted.
  Token-bucket throttled queues are not offered to the arbiter; a retry
  fires when their bucket refills.  On top of the pick it translates
  namespace-relative LPAs and keeps the per-tenant accounting.  With a
  single closed-loop queue and any arbiter this degenerates *exactly* to
  the :class:`repro.sim.frontend.HostFrontend` admission order — the
  single-tenant regression tests pin that bit-for-bit.

* :class:`HostInterface` — the user-facing object: carves namespaces out of
  one :class:`repro.ssd.ssd.SimulatedSSD`, takes the tenant streams as one
  ``{namespace: stream}`` mapping (a stream's timestamps pick its queue's
  admission mode), runs the replay and returns the per-namespace
  statistics.

Per-tenant latency is measured against the request's *ready time*: the
arrival timestamp for open-loop streams (so submission-queue waiting counts
— the quantity QoS arbitration actually improves) and the admission time
for closed-loop streams (service latency, matching the single-queue
engine's convention).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.host.arbiter import Arbiter, make_arbiter
from repro.host.namespace import Namespace, NamespaceStats
from repro.sim.events import Event, EventLoop, PRIORITY_FOREGROUND
from repro.sim.frontend import (
    REPLAY_MODES,
    ArrivalStream,
    Command,
    Frontend,
    FrontendStats,
    SubmitTarget,
)
from repro.workloads.trace import ReplayItem, Trace


class SubmissionQueue(ArrivalStream):
    """One tenant's request stream, queued toward a namespace."""

    def __init__(
        self,
        namespace: Namespace,
        source: Iterable[ReplayItem],
        mode: str = "closed",
        time_scale: float = 1.0,
    ) -> None:
        if mode not in REPLAY_MODES:
            raise ValueError(f"mode must be one of {REPLAY_MODES}")
        super().__init__(source, time_scale, namespace.name)
        self.namespace = namespace
        self.mode = mode
        #: What the arbiter reads (:class:`repro.host.arbiter.ArbitratedQueue`).
        self.weight = namespace.weight
        self.priority = namespace.priority
        #: True while the current head has already been counted as a
        #: rate-limit deferral (one count per request, not per attempt).
        self.head_deferred = False

    def head_key(self) -> Tuple[float, int]:
        """(ready_time, enqueue_seq) of the head — FIFO comparison key."""
        return self.backlog[0][1:]


class MultiQueueFrontend(Frontend):
    """Multi-queue policy: arbitrates several submission queues into one device."""

    def __init__(
        self, device: SubmitTarget, loop: EventLoop, arbiter: Arbiter, queue_depth: int
    ) -> None:
        super().__init__(device, loop, queue_depth)
        self._arbiter = arbiter
        self._queues: List[SubmissionQueue] = []
        #: Earliest pending rate-limit retry (inf = none scheduled).  A
        #: retry needed *earlier* than the pending one is still scheduled,
        #: or a briefly-throttled queue would wait for another's distant refill.
        self._next_retry_us = float("inf")

    def run(self, queues: Sequence[SubmissionQueue]) -> FrontendStats:
        """Replay every queue's stream to completion; returns the stats."""
        if not queues:
            raise ValueError("at least one submission queue is required")
        self._queues = list(queues)
        self._arbiter.bind(self._queues)
        for queue in self._queues:
            if queue.mode == "open":
                self._open(queue)
        return self._replay()

    def pick(self, now_us: float) -> Optional[Command]:
        """One arbitration decision: eligible queues → token buckets → arbiter.

        A queue is eligible when it has a head request *and* its namespace
        has the tokens to admit it.  For throttled queues a single retry
        event is scheduled at the earliest time any of them could be
        admitted (before the pick is returned: ``schedule()`` order is
        digested) instead of polling.
        """
        candidates: List[SubmissionQueue] = []
        retry_at = self._next_retry_us
        for queue in self._queues:
            backlog = queue.backlog
            if not backlog:
                # A closed-loop stream is always backlogged: its head
                # materialises (and takes its global enqueue stamp) the
                # moment admission considers it.
                request = queue.next_request() if queue.mode == "closed" else None
                if request is None:
                    continue
                backlog.append((request, now_us, next(self._stamps)))
            request = backlog[0][0]
            blocked_until: Optional[float] = None
            for bucket in queue.namespace.limiters:
                cost = bucket.cost_of(request.npages)
                if not bucket.can_admit(cost, now_us):
                    available = bucket.available_at(cost, now_us)
                    blocked_until = (
                        available
                        if blocked_until is None
                        else max(blocked_until, available)
                    )
            if blocked_until is None:
                candidates.append(queue)
                continue
            if not queue.head_deferred:
                # Count once per deferred admission, not once per
                # admission attempt while the same head waits.
                queue.head_deferred = True
                queue.namespace.stats.rate_limit_deferrals += 1
            retry_at = min(retry_at, blocked_until)
        if retry_at < self._next_retry_us:
            self._next_retry_us = retry_at
            self._loop.schedule(
                retry_at, "rate_limit_retry", self._retry, priority=PRIORITY_FOREGROUND
            )
        if not candidates:
            return None
        queue = self._arbiter.select(candidates)
        assert isinstance(queue, SubmissionQueue)
        request, ready_us, _ = queue.backlog.popleft()
        queue.head_deferred = False
        for bucket in queue.namespace.limiters:
            bucket.try_consume(bucket.cost_of(request.npages), now_us)
        return (queue, request, ready_us)

    def _retry(self, event: Event) -> None:
        # Clear first: if some queue is still (or newly) throttled, the
        # pump recomputes its refill time and schedules a fresh retry.
        self._next_retry_us = float("inf")
        self._pump(event.time_us)

    def submit(self, command: Command, at_us: float) -> float:
        queue, request, ready_us = command
        assert isinstance(queue, SubmissionQueue)
        namespace = queue.namespace
        stats = namespace.stats
        stats.submitted += 1
        stats.queue_wait_us += max(0.0, at_us - ready_us)
        device_lpa, npages = namespace.translate(request.lpa, request.npages)
        if request.is_read:
            stats.read_pages += npages
        else:
            stats.write_pages += npages
        return self._device.submit(request.op, device_lpa, npages, at_us=at_us)

    def retire(self, command: Command, at_us: float) -> None:
        queue, request, ready_us = command
        assert isinstance(queue, SubmissionQueue)
        namespace = queue.namespace
        namespace.stats.completed += 1
        namespace.record_completion(request.op, at_us - ready_us)


class HostInterface:
    """Carves namespaces out of one SSD and replays multi-tenant streams.

    >>> host = HostInterface(ssd, arbiter="weighted_round_robin")
    >>> host.add_namespace("db", size_pages=4096, weight=4, slo_read_us=200.0)
    >>> host.add_namespace("batch", size_pages=8192)
    >>> per_tenant = host.run({"db": db_trace, "batch": batch_trace})

    The default arbiter comes from ``ssd.options.arbiter`` and the slot
    count is ``ssd.effective_queue_depth``, so the host layer honours the
    same knobs single-queue replays use.  A rate limit is a token bucket
    appended to a namespace:
    ``host.namespace("batch").limiters.append(TokenBucket(...))``.
    """

    def __init__(self, ssd, arbiter: Optional[str] = None) -> None:
        self._ssd = ssd
        self.arbiter_name = ssd.options.arbiter if arbiter is None else arbiter
        # Instantiate eagerly so an unknown name fails at construction.
        make_arbiter(self.arbiter_name)
        self._namespaces: Dict[str, Namespace] = {}
        self._next_base_lpa = 0

    # ------------------------------------------------------------------ #
    # Namespace management
    # ------------------------------------------------------------------ #
    @property
    def namespaces(self) -> Dict[str, Namespace]:
        return dict(self._namespaces)

    def namespace(self, name: str) -> Namespace:
        return self._namespaces[name]

    def add_namespace(
        self,
        name: str,
        size_pages: Optional[int] = None,
        weight: int = 1,
        priority: int = 0,
        slo_read_us: Optional[float] = None,
    ) -> Namespace:
        """Carve a namespace out of the device's logical space.

        The namespace is placed after the last one; without ``size_pages``
        it takes all remaining logical pages.
        """
        if name in self._namespaces:
            raise ValueError(f"namespace {name!r} already exists")
        logical_pages = self._ssd.config.logical_pages
        base_lpa = self._next_base_lpa
        if size_pages is None:
            size_pages = logical_pages - base_lpa
        namespace = Namespace(
            name,
            base_lpa,
            size_pages,
            weight=weight,
            priority=priority,
            slo_read_us=slo_read_us,
        )
        if namespace.end_lpa > logical_pages:
            raise ValueError(
                f"namespace {name!r} ends at LPA {namespace.end_lpa}, past the "
                f"device's {logical_pages} logical pages"
            )
        self._namespaces[name] = namespace
        self._next_base_lpa = namespace.end_lpa
        return namespace

    def reset_stats(self) -> None:
        """Fresh per-namespace statistics (end of a warm-up phase)."""
        for namespace in self._namespaces.values():
            namespace.reset_stats()

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def run(
        self, tenants: Mapping[str, Iterable[ReplayItem]]
    ) -> Dict[str, NamespaceStats]:
        """Replay ``{namespace_name: stream}`` through the arbiter.

        The stream picks its admission mode: a
        :class:`~repro.workloads.trace.Trace` carrying timestamps is
        open-loop (each request arrives at its timestamp); any other stream
        — a timestamp-less trace such as a warm-up fill, or bare
        ``(op, lpa, npages)`` tuples — is closed-loop (always backlogged, a
        completion admits the next request).  The replay ends with the
        device's drain flush.  Returns each replayed namespace's
        statistics, in ``tenants`` order.
        """
        queues: List[SubmissionQueue] = []
        for name, stream in tenants.items():
            if name not in self._namespaces:
                raise KeyError(
                    f"unknown namespace {name!r}; known: {sorted(self._namespaces)}"
                )
            queues.append(
                SubmissionQueue(self._namespaces[name], stream, _infer_mode(stream))
            )
        loop = EventLoop(start_us=self._ssd.now_us)
        frontend = MultiQueueFrontend(
            self._ssd,
            loop,
            make_arbiter(self.arbiter_name),
            self._ssd.effective_queue_depth,
        )
        self._ssd.run_frontend(frontend, loop, queues)
        self._ssd.finalize_replay()
        return {queue.namespace.name: queue.namespace.stats for queue in queues}


def _infer_mode(stream: Iterable[ReplayItem]) -> str:
    """Open-loop when the stream is a trace carrying timestamps."""
    return "open" if isinstance(stream, Trace) and stream.has_timestamps() else "closed"
