"""Sim-time request/GC/NAND tracing with Chrome trace-event export.

The :class:`Tracer` hangs off the event loop's observer hook
(:meth:`repro.sim.events.EventLoop.chain_observer`) and reconstructs what
the discrete-event simulation *did* — per-request lifecycle spans from the
device's submit to ``request_complete``, the background GC pipeline's
read / migrate / erase stages, translation-page flash traffic and (via the
NAND scheduler's probe hook) every channel-bus reservation — into a file
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load
directly.

Design constraints, in order:

* **Never perturb the simulation.**  The tracer schedules no events,
  reserves no resources and reads only simulated clocks (simlint SIM001
  applies to this module), so ``repro.verify`` digests are identical with
  tracing on or off.
* **Deterministic output.**  Spans are correlated by object identity
  *internally*, but everything emitted — thread ids, span names, argument
  dictionaries — derives from deterministic slot numbering and request
  fields, so two runs of the same seed export byte-identical JSON.
* **Bounded memory.**  Closed spans and instants land in a ring buffer
  (``deque(maxlen=...)``); a trace of a billion-event replay keeps the
  last :data:`TRACE_CAPACITY` records and counts the rest in
  :attr:`dropped`.
  Because the ring holds only *closed* spans, eviction can never orphan a
  "B" without its "E": begin/end pairs are generated at export time from
  whole records, so the exported stream is balanced by construction.

Track layout (one process, fixed thread ids):

========  =====================================================
tid       track
========  =====================================================
1         ``device`` — rate-limit retries, checkpoints, instants
2         ``arrivals`` — open-loop request arrivals
3         ``gc`` — background GC pipeline stages
5         ``translate`` — translation-page flash I/O (may overlap)
6         ``recovery`` — power-fail recovery phases (scan / replay)
10 + c    ``ch<c>`` — NAND channel-bus reservations (flush programs,
          GC/wear migrations and erases included)
100 + s   ``io-slot-<s>`` — request lifecycle spans (slot = NCQ slot)
========  =====================================================

Request spans additionally carry the device's critical-path breakdown in
their ``args`` (``breakdown``: component -> microseconds, ``device_us``:
in-device latency) when the device computes one — the raw material of
:mod:`repro.obs.analyze`.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.events import Event

#: Fixed thread ids of the named tracks (see module docstring).
_TID_DEVICE = 1
_TID_ARRIVALS = 2
_TID_GC = 3
_TID_TRANSLATE = 5
_TID_RECOVERY = 6
_TID_CHANNEL_BASE = 10
_TID_SLOT_BASE = 100
#: Names of the fixed tracks; channel and slot tracks are numbered from their bases.
_TRACK_NAMES = {
    _TID_DEVICE: "device",
    _TID_ARRIVALS: "arrivals",
    _TID_GC: "gc",
    _TID_TRANSLATE: "translate",
    _TID_RECOVERY: "recovery",
}

#: Ring-buffer capacity (closed spans + instants retained).
TRACE_CAPACITY = 200_000

#: GC pipeline event kind -> (stage it closes, stage it opens).
_GC_STAGES = {
    "gc_step": ("gc_erase", "gc_read"),
    "gc_program": ("gc_read", "gc_migrate"),
    "gc_erase": ("gc_migrate", "gc_erase"),
}

#: Export sort rank per phase: at equal timestamps, span *ends* must
#: precede span *begins* on the same track for begin/end nesting to hold.
_PHASE_RANK = {"E": 0, "i": 1, "X": 1, "B": 2}


class Tracer:
    """Reconstructs lifecycle spans from the processed-event stream."""

    def __init__(self) -> None:
        #: Closed records: ``(phase, tid, start_us, dur_us, name, args)``
        #: where phase is "span" (export as B/E), "x" (export as X) or
        #: "instant" (export as i).  dur_us is 0.0 for instants.
        self._records: Deque[Tuple[str, int, float, float, str, Optional[Dict[str, Any]]]] = deque(
            maxlen=TRACE_CAPACITY
        )
        self._appended = 0
        #: In-flight spans by finish instant, in submit order:
        #: ``finish_us -> deque of (slot, start_us, args)``.
        self._in_flight: Dict[float, Deque[Tuple[int, float, Dict[str, Any]]]] = {}
        #: Min-heap of freed NCQ slot numbers (smallest reused first, so
        #: slot assignment is a deterministic function of the submit order).
        self._free_slots: List[int] = []
        self._next_slot = 0
        #: Open GC stage: ``(span name, start_ts, victim block)`` or None.
        self._gc_open: Optional[Tuple[str, float, Optional[int]]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def recorded(self) -> int:
        """Records currently retained in the ring buffer."""
        return len(self._records)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer's capacity bound."""
        return self._appended - len(self._records)

    # ------------------------------------------------------------------ #
    # Record plumbing
    # ------------------------------------------------------------------ #
    def _add(
        self,
        phase: str,
        tid: int,
        start_us: float,
        dur_us: float,
        name: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._records.append((phase, tid, start_us, dur_us, name, args))
        self._appended += 1

    # ------------------------------------------------------------------ #
    # Event-loop observer
    # ------------------------------------------------------------------ #
    def observe(self, event: Event) -> None:
        """Event-loop observer: dispatch on the event kind.

        Attach via :meth:`repro.sim.events.EventLoop.chain_observer`; runs
        before the event's callback, while its payload is still intact.
        """
        kind = event.kind
        if kind == "request_complete":
            self._on_complete(event)
        elif kind == "request_arrival":
            self._on_arrival(event)
        elif kind in _GC_STAGES:
            self._on_gc(kind, event)
        else:
            self._add("instant", _TID_DEVICE, event.time_us, 0.0, kind)

    def _on_complete(self, event: Event) -> None:
        """Close the oldest span waiting on this instant (see
        :meth:`note_request_breakdown`), named after the completing command."""
        now = event.time_us
        waiting = self._in_flight.get(now)
        if waiting is None:
            return
        slot, start, args = waiting.popleft()
        if not waiting:
            del self._in_flight[now]
        stream, request, ready_us = event.payload
        args["lpa"] = request.lpa
        args["npages"] = request.npages
        if stream is not None:
            args["queue"] = stream.name
            args["queue_wait_us"] = max(0.0, start - ready_us)
        self._add("span", _TID_SLOT_BASE + slot, start, now - start, request.op, args)
        heapq.heappush(self._free_slots, slot)

    def _on_arrival(self, event: Event) -> None:
        stream, request, _ready_us = event.payload
        self._add(
            "instant", _TID_ARRIVALS, event.time_us, 0.0, request.op, {"queue": stream.name}
        )

    def _on_gc(self, kind: str, event: Event) -> None:
        """GC pipeline state machine (one victim in flight at a time).

        ``gc_step`` selects (closing the previous victim's erase stage),
        ``gc_program`` fires at the reads' completion (closing ``gc_read``),
        ``gc_erase`` fires at the programs' completion (closing
        ``gc_migrate``).  A stage left open when the pipeline stops is
        simply never closed — and therefore never exported.
        """
        now = event.time_us
        closes, opens = _GC_STAGES[kind]
        if self._gc_open is not None:
            name, start, open_block = self._gc_open
            if name == closes:
                args = None if open_block is None else {"block": open_block}
                self._add("span", _TID_GC, start, now - start, name, args)
        # The victim block rides on gc_program / gc_erase; selection has none yet.
        block = event.payload if isinstance(event.payload, int) else None
        self._gc_open = (opens, now, block)

    # ------------------------------------------------------------------ #
    # Out-of-band probes (no event exists for these)
    # ------------------------------------------------------------------ #
    def nand_op(self, channel: int, start_us: float, finish_us: float) -> None:
        """NAND scheduler probe: one channel-bus reservation.

        Install as :attr:`repro.sim.nand.NANDScheduler.probe`.  Channel-bus
        reservations never overlap within a channel, but an op issued at a
        busy instant *starts* in the past relative to later records, so
        these export as "X" complete events (no nesting requirement).
        """
        self._add("x", _TID_CHANNEL_BASE + channel, start_us, finish_us - start_us, "nand")

    def note_translation(
        self, start_us: float, finish_us: float, reads: int, writes: int, foreground: bool
    ) -> None:
        """Translation-page flash I/O performed by the FTL (DFTL/SFTL).

        Foreground fetches are spans serial with the host read; background
        charges complete at their channels, so they render as instants.
        """
        args = {"reads": reads, "writes": writes}
        if foreground and finish_us > start_us:
            self._add("x", _TID_TRANSLATE, start_us, finish_us - start_us, "translate", args)
        else:
            self._add("instant", _TID_TRANSLATE, start_us, 0.0, "translate", args)

    def note_request_breakdown(
        self, components: Dict[str, float], start_us: float, finish_us: float
    ) -> None:
        """Open the span of the request the device just accepted.

        Called from inside :meth:`repro.ssd.ssd.SimulatedSSD.submit` on
        every submit of a replay (closed at any depth, open and multi-queue
        alike; a direct ``read()`` / ``write()`` outside a replay reports
        none).  The request takes its NCQ slot now and waits under its
        finish instant, carrying its critical-path ``components``, for the
        ``request_complete`` event the frontend schedules at that instant —
        observed whether the loop dispatches it or the frontend takes it in
        place.  Completions at one instant fire in submit order, so the
        oldest span waiting there is theirs.
        """
        if self._free_slots:
            slot = heapq.heappop(self._free_slots)
        else:
            slot = self._next_slot
            self._next_slot += 1
        args: Dict[str, Any] = {"device_us": finish_us - start_us}
        if components:
            args["breakdown"] = dict(components)
        self._in_flight.setdefault(finish_us, deque()).append((slot, start_us, args))

    def note_recovery(
        self,
        name: str,
        start_us: float,
        finish_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A power-fail recovery phase ran (:func:`repro.ssd.recovery.recover`).

        ``name`` is ``"recovery_scan"`` (full OOB scan) or
        ``"recovery_replay"`` (checkpoint restore + delta replay); the span
        covers the recovery I/O makespan on the ``recovery`` track.
        """
        self._add(
            "x", _TID_RECOVERY, start_us, max(0.0, finish_us - start_us), name, args
        )

    def note_checkpoint(self, start_us: float, finish_us: float, pages: int) -> None:
        """A mapping checkpoint was persisted (``MappingCheckpointer.take``)."""
        self._add(
            "x",
            _TID_DEVICE,
            start_us,
            max(0.0, finish_us - start_us),
            "checkpoint",
            {"pages": pages},
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    @staticmethod
    def _thread_name(tid: int) -> str:
        if tid in _TRACK_NAMES:
            return _TRACK_NAMES[tid]
        if tid < _TID_SLOT_BASE:
            return f"ch{tid - _TID_CHANNEL_BASE}"
        return f"io-slot-{tid - _TID_SLOT_BASE}"

    def trace_events(self) -> List[Dict[str, Any]]:
        """The Chrome trace-event list (metadata first, then sorted events).

        Events are ordered by ``(ts, phase rank, record order)`` with ends
        before begins at equal timestamps, so per-track begin/end stacks
        balance and nest; timestamps are the simulated microsecond clock.
        """
        keyed: List[Tuple[float, int, int, Dict[str, Any]]] = []

        def emit(ph: str, tid: int, ts: float, name: str, args: Any = None, **extra: Any) -> None:
            event = {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": tid, **extra}
            if args:
                event["args"] = args
            keyed.append((ts, _PHASE_RANK[ph], len(keyed), event))

        tids = set()
        for phase, tid, start, dur, name, args in self._records:
            tids.add(tid)
            if phase == "instant" or dur <= 0.0:
                emit("i", tid, start, name, args, s="t")
            elif phase == "span":
                emit("B", tid, start, name, args)
                emit("E", tid, start + dur, name)
            else:
                emit("X", tid, start, name, args, dur=dur)
        keyed.sort(key=lambda item: item[:3])
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": self._thread_name(tid)},
            }
            for tid in sorted(tids)
        ]
        events.extend(entry for _, _, _, entry in keyed)
        return events

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The full Chrome trace object (load in chrome://tracing/Perfetto)."""
        return {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated-us",
                "recorded": self.recorded,
                "dropped": self.dropped,
            },
        }

    def export_json(self, path: str) -> None:
        """Write the trace to ``path`` (deterministic bytes given a seed)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
