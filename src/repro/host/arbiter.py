"""Submission-queue arbitration policies and token-bucket rate limiting.

When a device slot frees, the host interface must decide *which* submission
queue's head request is admitted next.  NVMe calls this step arbitration and
specifies round-robin and weighted-round-robin burst arbitration as the two
standard mechanisms, with vendor-specific strict-priority variants; the same
three policies are modelled here, plus a FIFO policy that reproduces the
"one anonymous shared queue" admission the simulator had before namespaces
existed (and therefore serves as the no-isolation baseline in the
noisy-neighbor experiments).

All arbiters are deterministic: given the same sequence of ``select()``
calls over the same queues they make the same decisions, which keeps
multi-tenant replays bit-reproducible.

Rate limiting is orthogonal to arbitration: a namespace may carry one or
more :class:`TokenBucket` limiters (IOPS and/or bandwidth caps).  A queue
whose namespace is out of tokens is simply not offered to the arbiter until
the bucket refills — the host interface schedules a retry event at the
bucket's earliest-available time, so throttling costs no busy-waiting.
"""

from __future__ import annotations

import math
from typing import Dict, List, Protocol, Sequence

#: Names accepted by :func:`make_arbiter` (and ``SSDOptions.arbiter``).
ARBITERS = ("fifo", "round_robin", "weighted_round_robin", "strict_priority")


class ArbitratedQueue(Protocol):
    """What an arbiter needs to know about a submission queue."""

    @property
    def weight(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def priority(self) -> int:  # pragma: no cover - protocol
        ...

    def head_key(self) -> tuple:  # pragma: no cover - protocol
        """(ready_time_us, enqueue_seq) of the head request."""
        ...


class Arbiter:
    """Base class: picks one of the candidate queues each admission slot.

    ``bind()`` is called once with the full queue list (in registration
    order) before the replay starts; ``select()`` is then called with the
    *eligible* subset — queues that are non-empty and not token-throttled.
    """

    def bind(self, queues: Sequence[ArbitratedQueue]) -> None:
        self._queues: List[ArbitratedQueue] = list(queues)

    def select(self, candidates: Sequence[ArbitratedQueue]) -> ArbitratedQueue:
        raise NotImplementedError


class FifoArbiter(Arbiter):
    """Global arrival order — equivalent to one shared submission queue.

    The head that has waited longest (earliest ready time, then enqueue
    order) wins, regardless of which namespace it belongs to.  This is the
    no-QoS baseline: a burst from one tenant queues ahead of everyone else.
    """

    def select(self, candidates: Sequence[ArbitratedQueue]) -> ArbitratedQueue:
        return min(candidates, key=lambda queue: queue.head_key())


class RoundRobinArbiter(Arbiter):
    """Cycle over the queues, one grant each (NVMe's default arbitration)."""

    def bind(self, queues: Sequence[ArbitratedQueue]) -> None:
        super().bind(queues)
        self._cursor = 0

    def select(self, candidates: Sequence[ArbitratedQueue]) -> ArbitratedQueue:
        eligible = set(id(queue) for queue in candidates)
        for _ in range(len(self._queues)):
            queue = self._queues[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._queues)
            if id(queue) in eligible:
                return queue
        raise ValueError("select() called with no eligible queue")


class WeightedRoundRobinArbiter(Arbiter):
    """Grants proportional to namespace weights (NVMe WRR burst arbitration).

    Each queue holds a credit refilled to its namespace ``weight``; the
    rotation pointer stays on a queue until its credit is spent (a burst of
    up to ``weight`` grants), then refills it and advances.  Queues that are
    not eligible are skipped without losing credit, so the scheme is
    work-conserving: an idle tenant's share is redistributed instead of
    leaving the device idle.
    """

    def bind(self, queues: Sequence[ArbitratedQueue]) -> None:
        super().bind(queues)
        self._cursor = 0
        self._credit: Dict[int, int] = {
            id(queue): max(1, queue.weight) for queue in queues
        }

    def select(self, candidates: Sequence[ArbitratedQueue]) -> ArbitratedQueue:
        eligible = set(id(queue) for queue in candidates)
        # Two sweeps bound the search: the first may spend leftover credits,
        # the second is guaranteed to hit a freshly refilled eligible queue.
        for _ in range(2 * len(self._queues) + 1):
            queue = self._queues[self._cursor]
            key = id(queue)
            if key in eligible and self._credit[key] > 0:
                self._credit[key] -= 1
                return queue
            self._credit[key] = max(1, queue.weight)
            self._cursor = (self._cursor + 1) % len(self._queues)
        raise ValueError("select() called with no eligible queue")


class StrictPriorityArbiter(Arbiter):
    """Lowest ``priority`` value always wins; FIFO within a priority class.

    An urgent namespace (priority 0) is never delayed by lower classes —
    the strongest isolation, at the cost of potential starvation of the
    background tenants (use WRR when those still need guaranteed progress).
    """

    def select(self, candidates: Sequence[ArbitratedQueue]) -> ArbitratedQueue:
        return min(candidates, key=lambda queue: (queue.priority, queue.head_key()))


def make_arbiter(name: str) -> Arbiter:
    """Instantiate an arbitration policy by name (see :data:`ARBITERS`)."""
    if name == "fifo":
        return FifoArbiter()
    if name == "round_robin":
        return RoundRobinArbiter()
    if name == "weighted_round_robin":
        return WeightedRoundRobinArbiter()
    if name == "strict_priority":
        return StrictPriorityArbiter()
    raise ValueError(f"unknown arbiter {name!r}; known: {ARBITERS}")


class TokenBucket:
    """A classic token bucket enforcing an IOPS or bandwidth cap.

    Tokens accrue at ``rate_per_s`` per second of *simulated* time up to
    ``burst``; each admitted request consumes its cost (1 token in
    ``"requests"`` mode, ``npages`` tokens in ``"pages"`` mode).  Costs
    larger than the burst capacity are clamped to it, so a single huge
    request is admitted whenever the bucket is full rather than never.
    """

    #: Valid values of the ``unit`` argument.
    UNITS = ("requests", "pages")

    def __init__(self, rate_per_s: float, burst: float, unit: str = "requests") -> None:
        # A nan rate would schedule every retry at "now" and spin the replay.
        if not 0.0 < rate_per_s < math.inf:
            raise ValueError(
                f"rate_per_s must be positive and finite, got {rate_per_s!r}"
            )
        if not 1.0 <= burst < math.inf:
            raise ValueError(f"burst must be at least 1 and finite, got {burst!r}")
        if unit not in self.UNITS:
            raise ValueError(f"unit must be one of {self.UNITS}")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self.unit = unit
        self._tokens = float(burst)
        self._last_us = 0.0

    def cost_of(self, npages: int) -> float:
        """Token cost of admitting a request spanning ``npages`` pages."""
        cost = 1.0 if self.unit == "requests" else float(npages)
        return min(cost, self.burst)

    def _refill(self, now_us: float) -> None:
        if now_us > self._last_us:
            self._tokens = min(
                self.burst,
                self._tokens + (now_us - self._last_us) * self.rate_per_s / 1e6,
            )
            self._last_us = now_us

    #: Comparison slack absorbing float rounding in refill arithmetic.
    EPSILON = 1e-9

    def can_admit(self, cost: float, now_us: float) -> bool:
        """True when ``cost`` tokens are available right now."""
        self._refill(now_us)
        return self._tokens + self.EPSILON >= cost

    def try_consume(self, cost: float, now_us: float) -> bool:
        """Consume ``cost`` tokens if available; False leaves the bucket as is."""
        if not self.can_admit(cost, now_us):
            return False
        self._tokens = max(0.0, self._tokens - cost)
        return True

    def available_at(self, cost: float, now_us: float) -> float:
        """Absolute time at which ``cost`` tokens will be available.

        Padded by a sliver of simulated time so that a retry scheduled at
        the returned instant is guaranteed to find the tokens there (float
        refill arithmetic can otherwise land an epsilon short and respin
        the retry at the same timestamp forever).
        """
        self._refill(now_us)
        deficit = max(0.0, cost - self._tokens)
        return now_us + deficit * 1e6 / self.rate_per_s + 1e-6
