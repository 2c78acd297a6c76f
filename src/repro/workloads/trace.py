"""Block-trace representation used by the workload generators and the parser.

A trace is an ordered list of page-granular I/O requests.  The SSD model
consumes ``(op, lpa, npages)`` tuples; :class:`Trace` adds the metadata the
experiment harness needs (name, footprint, read/write mix) and convenience
constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

READ = "R"
WRITE = "W"

#: Anything the simulator can replay: a full request object, or the legacy
#: bare tuple (which carries no arrival timestamp).
ReplayItem = Union["IORequest", Tuple[str, int, int]]


def as_request(item: ReplayItem) -> "IORequest":
    """Coerce a replay item to an :class:`IORequest`.

    Tuples get a zero timestamp — replaying them open-loop degenerates to
    simultaneous arrival.
    """
    if isinstance(item, IORequest):
        return item
    op, lpa, npages = item
    return IORequest(op, lpa, npages)


@dataclass(frozen=True, slots=True)
class IORequest:
    """One host request at flash-page granularity."""

    op: str
    lpa: int
    npages: int = 1
    timestamp_us: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")
        if self.lpa < 0:
            raise ValueError("lpa must be non-negative")
        if self.npages <= 0:
            raise ValueError("npages must be positive")
        # One chained compare also rejects nan, which every ordering
        # comparison (the open-loop order check included) lets through.
        if not 0.0 <= self.timestamp_us < math.inf:
            raise ValueError(
                "timestamp_us must be finite and non-negative, "
                f"got {self.timestamp_us!r}"
            )

    @property
    def is_read(self) -> bool:
        return self.op == READ

    @property
    def is_write(self) -> bool:
        return self.op == WRITE

    def pages(self) -> Iterator[int]:
        """The LPAs this request touches."""
        return iter(range(self.lpa, self.lpa + self.npages))

    def as_tuple(self) -> Tuple[str, int, int]:
        return (self.op, self.lpa, self.npages)


class Trace:
    """An ordered sequence of I/O requests with summary statistics."""

    def __init__(self, name: str, requests: Sequence[IORequest]) -> None:
        self.name = name
        self._requests: List[IORequest] = list(requests)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> IORequest:
        return self._requests[index]

    def requests(self) -> List[IORequest]:
        return list(self._requests)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tuples(
        cls, name: str, tuples: Iterable[Tuple[str, int, int]]
    ) -> "Trace":
        return cls(name, [IORequest(op, lpa, npages) for op, lpa, npages in tuples])

    def scaled_to(self, logical_pages: int) -> "Trace":
        """Clamp every request inside a device of ``logical_pages`` pages."""
        clamped: List[IORequest] = []
        for request in self._requests:
            lpa = request.lpa % logical_pages
            npages = min(request.npages, logical_pages - lpa)
            clamped.append(
                IORequest(request.op, lpa, max(1, npages), request.timestamp_us)
            )
        return Trace(self.name, clamped)

    def has_timestamps(self) -> bool:
        """True when at least one request carries a non-zero arrival time.

        :class:`IORequest` keeps timestamps finite and non-negative, so an
        ordering comparison against the zero default avoids exact float
        equality (simlint SIM004).  The host interface replays a tenant
        trace open-loop exactly when this is true.
        """
        return any(r.timestamp_us > 0.0 for r in self._requests)

    def timestamps_sorted(self) -> bool:
        """True when arrival timestamps are non-decreasing in trace order."""
        return all(
            earlier.timestamp_us <= later.timestamp_us
            for earlier, later in zip(self._requests, self._requests[1:])
        )

    def sorted_by_timestamp(self) -> "Trace":
        """A copy ordered by arrival time (stable for equal timestamps).

        Open-loop replay refuses traces whose timestamps run backwards
        (raw multi-queue captures sometimes interleave out of order);
        sorting restores a valid arrival process while preserving the
        relative order of same-timestamp requests.
        """
        ordered = sorted(self._requests, key=lambda request: request.timestamp_us)
        return Trace(self.name, ordered)

    def with_interarrival(self, interarrival_us: float) -> "Trace":
        """A copy stamped with uniform arrival times (open-loop replay).

        The synthetic workload generators produce order-only traces; this
        assigns request ``i`` the timestamp ``i * interarrival_us`` so they
        can be replayed open-loop at a controlled arrival rate.  Traces that
        already carry timestamps (e.g. parsed MSR traces) keep them — use
        ``run(time_scale=)`` to speed those up or down instead.
        """
        if interarrival_us < 0.0:
            raise ValueError("interarrival_us must be non-negative")
        if self.has_timestamps():
            return Trace(self.name, self._requests)
        stamped = [
            IORequest(r.op, r.lpa, r.npages, timestamp_us=i * interarrival_us)
            for i, r in enumerate(self._requests)
        ]
        return Trace(self.name, stamped)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def read_requests(self) -> int:
        return sum(1 for r in self._requests if r.is_read)

    @property
    def write_requests(self) -> int:
        return sum(1 for r in self._requests if r.is_write)

    @property
    def read_pages(self) -> int:
        return sum(r.npages for r in self._requests if r.is_read)

    @property
    def write_pages(self) -> int:
        return sum(r.npages for r in self._requests if r.is_write)

    @property
    def read_ratio(self) -> float:
        total = len(self._requests)
        return self.read_requests / total if total else 0.0

    def footprint_pages(self) -> int:
        """Number of distinct LPAs touched by the trace."""
        touched = set()
        for request in self._requests:
            touched.update(range(request.lpa, request.lpa + request.npages))
        return len(touched)

    def max_lpa(self) -> int:
        return max((r.lpa + r.npages - 1 for r in self._requests), default=0)

    def summary(self) -> Dict[str, float]:
        return {
            "requests": float(len(self)),
            "read_ratio": self.read_ratio,
            "read_pages": float(self.read_pages),
            "write_pages": float(self.write_pages),
            "footprint_pages": float(self.footprint_pages()),
            "max_lpa": float(self.max_lpa()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, requests={len(self)})"
