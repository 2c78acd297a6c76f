"""Outside-in wall-clock attribution: where does a replay second go?

The traced pass installs class-level wrappers around the *public* entry
points of each layer under ``src/repro`` and nothing else — no file under
``src/`` is touched and no private name is referenced.  Each wrapper pushes
a frame on a stack; on exit it adds its duration minus its children's to
its row's self time, so the rows add up to the traced replay by
construction (``bench.attributed_share``).  Code the wrappers cannot see
(private helpers, event callbacks of unknown owners) is charged to the
innermost wrapped caller.

Two things need more than a plain wrapper:

* **Event callbacks.**  ``EventLoop.run`` dispatches callbacks the ledger
  cannot wrap by name (they are private methods).  The ``schedule`` wrapper
  therefore wraps the *callback argument* it is handed, and charges the
  callback to the row of the class that owns it (``callback.__self__``):
  the multi-queue frontend's callbacks are ``host`` time, the single-queue
  frontends' are ``sim`` time, the background GC controller's are reclaim.
* **Reclaim.**  ``ssd.reclaim_self_s`` is a by-cause view cutting across
  the rows: spans on the program path (``frontier`` -> ``program_run`` ->
  ``seal_if_full`` -> ``update_batch``) count as reclaim while the last
  ``BlockAllocator.frontier(stream)`` call asked for the ``"cold"`` stream,
  and so does everything under victim selection, validity scans, migration
  burst reads, erases, block release and the background GC controller's
  callbacks.  The blocking GC loop's own bookkeeping lives in private
  methods of ``ssd.py`` and stays with the datapath, so the figure is a
  lower bound under ``gc_mode="sync"``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.leaftl import LeaFTL
from repro.flash.allocator import BlockAllocator
from repro.flash.flash_array import FlashArray
from repro.host import arbiter as arbiter_module
from repro.host.interface import HostInterface, MultiQueueFrontend
from repro.sim.events import EventLoop
from repro.sim.frontend import HostFrontend, OpenLoopFrontend
from repro.sim.nand import NANDScheduler
from repro.ssd import gc as gc_module
from repro.ssd.cache import LRUDataCache
from repro.ssd.ssd import SimulatedSSD
from repro.ssd.write_buffer import WriteBuffer

#: How a span relates to the reclaim view.
PLAIN, RECLAIM, PROGRAM_PATH, FRONTIER = range(4)

#: (class, public methods, self-time row, reclaim kind)
WRAPPED: Tuple[Tuple[type, Tuple[str, ...], str, int], ...] = (
    (LeaFTL, ("update_batch",), "core.learn_self_s", PROGRAM_PATH),
    (
        LeaFTL,
        ("translate", "translate_range", "resolve_misprediction"),
        "core.lookup_self_s",
        PLAIN,
    ),
    (LeaFTL, ("maintenance",), "core.compact_self_s", PLAIN),
    (FlashArray, ("program_run", "program_page"), "flash.program_self_s", PROGRAM_PATH),
    (FlashArray, ("read_page", "read_oob", "read_oob_run"), "flash.read_self_s", PLAIN),
    (FlashArray, ("read_page_run",), "flash.read_self_s", RECLAIM),
    (FlashArray, ("erase_block",), "flash.erase_self_s", RECLAIM),
    (FlashArray, ("valid_ppas_of_block",), "flash.allocator_self_s", RECLAIM),
    (BlockAllocator, ("frontier",), "flash.allocator_self_s", FRONTIER),
    (BlockAllocator, ("seal_if_full",), "flash.allocator_self_s", PROGRAM_PATH),
    (BlockAllocator, ("gc_candidates", "release_block"), "flash.allocator_self_s", RECLAIM),
    (EventLoop, ("run",), "sim.loop_self_s", PLAIN),
    (HostFrontend, ("run",), "sim.frontend_self_s", PLAIN),
    (OpenLoopFrontend, ("run",), "sim.frontend_self_s", PLAIN),
    (NANDScheduler, ("reserve", "reserve_run"), "sim.nand_self_s", PLAIN),
    (
        SimulatedSSD,
        ("submit", "flush", "run", "run_frontend", "finalize_replay"),
        "ssd.datapath_self_s",
        PLAIN,
    ),
    (
        LRUDataCache,
        ("lookup", "insert", "resize", "mark_clean"),
        "ssd.cache_self_s",
        PLAIN,
    ),
    (WriteBuffer, ("add", "drain"), "ssd.write_buffer_self_s", PLAIN),
    (MultiQueueFrontend, ("run",), "host.frontend_self_s", PLAIN),
    (HostInterface, ("run",), "host.frontend_self_s", PLAIN),
)

#: Owner class of an event callback -> (self-time row, reclaim kind).
CALLBACK_OWNERS: Dict[type, Tuple[str, int]] = {
    HostFrontend: ("sim.frontend_self_s", PLAIN),
    OpenLoopFrontend: ("sim.frontend_self_s", PLAIN),
    MultiQueueFrontend: ("host.frontend_self_s", PLAIN),
    SimulatedSSD: ("ssd.datapath_self_s", PLAIN),
    gc_module.BackgroundGCController: ("ssd.datapath_self_s", RECLAIM),
}


def _subclasses_defining(module: Any, base: type, method: str) -> List[type]:
    """Concrete classes of ``module`` that implement ``base``'s ``method``."""
    return [
        member
        for member in vars(module).values()
        if isinstance(member, type)
        and issubclass(member, base)
        and method in vars(member)
        and member is not base
    ]


class LayerTracer:
    """Self-time stack over the wrapped entry points of every layer."""

    def __init__(self) -> None:
        #: Span names ("LeaFTL.update_batch"), parallel to the lists below.
        self.names: List[str] = []
        self.rows: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        #: Self seconds of spans tagged as reclaim (by-cause view).
        self.reclaim_s = 0.0
        #: Frames of open spans: ``[child_seconds, is_reclaim]``.
        self._stack: List[List[Any]] = []
        self._cold = False
        self._callbacks: Dict[Tuple[int, Any], Tuple[Callable[..., Any], Any]] = {}
        self._installed: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _register(self, name: str, row: str) -> int:
        self.names.append(name)
        self.rows.append(row)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _traced(self, func: Callable[..., Any], name: str, row: str, kind: int) -> Callable[..., Any]:
        index = self._register(name, row)
        tracer = self
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if kind == FRONTIER:
                stream = args[1] if len(args) > 1 else kwargs.get("stream")
                tracer._cold = stream == "cold"
            reclaim = (
                kind == RECLAIM
                or (parent is not None and parent[1])
                or (kind >= PROGRAM_PATH and tracer._cold)
            )
            frame = [0.0, reclaim]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                calls[index] += 1
                self_s[index] += own
                total_s[index] += elapsed
                if reclaim:
                    tracer.reclaim_s += own
                if parent is not None:
                    parent[0] += elapsed

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def _traced_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """The traced twin of an event callback, by the class that owns it."""
        owner = getattr(callback, "__self__", None)
        if owner is None:
            return callback
        key = (id(owner), callback.__func__)  # type: ignore[attr-defined]
        cached = self._callbacks.get(key)
        if cached is None:
            rule = CALLBACK_OWNERS.get(type(owner))
            twin = callback
            if rule is not None:
                name = f"{type(owner).__name__}.<{callback.__name__.lstrip('_')}>"
                twin = self._traced(callback, name, rule[0], rule[1])
            # Holding the bound method pins ``owner``, so its id stays unique.
            cached = (twin, callback)
            self._callbacks[key] = cached
        return cached[0]

    def _schedule_wrapper(self) -> Callable[..., Any]:
        original = vars(EventLoop)["schedule"]
        traced_original = self._traced(original, "EventLoop.schedule", "sim.loop_self_s", PLAIN)
        twin_of = self._traced_callback

        def schedule(
            loop: EventLoop,
            time_us: float,
            kind: str,
            callback: Any = None,
            payload: object = None,
            priority: int = 0,
        ) -> Any:
            if callback is not None:
                callback = twin_of(callback)
            return traced_original(loop, time_us, kind, callback, payload, priority)

        return schedule

    def install(self) -> None:
        """Swap the wrappers in (class level, so every instance is covered)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets: List[Tuple[type, str, str, int]] = [
            (cls, method, row, kind)
            for cls, methods, row, kind in WRAPPED
            for method in methods
        ]
        for cls in _subclasses_defining(gc_module, gc_module.GCPolicy, "select_victims"):
            targets.append((cls, "select_victims", "ssd.gc_select_self_s", RECLAIM))
        for cls in _subclasses_defining(arbiter_module, arbiter_module.Arbiter, "select"):
            targets.append((cls, "select", "host.arbiter_self_s", PLAIN))
        for cls, method, row, kind in targets:
            original = vars(cls)[method]
            self._installed.append((cls, method, original))
            setattr(cls, method, self._traced(original, f"{cls.__name__}.{method}", row, kind))
        self._installed.append((EventLoop, "schedule", vars(EventLoop)["schedule"]))
        setattr(EventLoop, "schedule", self._schedule_wrapper())

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._installed):
            setattr(cls, method, original)
        self._installed.clear()
        self._callbacks.clear()

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        # install() inside the try: if it raises partway, the classes it
        # already patched are restored.
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def row_seconds(self) -> Dict[str, float]:
        """Self seconds per row (the disjoint layer rows)."""
        seconds: Dict[str, float] = {}
        for row, own in zip(self.rows, self.self_s):
            seconds[row] = seconds.get(row, 0.0) + own
        return seconds

    def calls_of(self, *span_names: str) -> int:
        return sum(
            count for name, count in zip(self.names, self.calls) if name in span_names
        )

    def span_table(self) -> List[Dict[str, object]]:
        """Aggregate of every span that fired: calls, self and total seconds."""
        table = [
            {"span": name, "row": row, "calls": count, "self_s": own, "total_s": total}
            for name, row, count, own, total in zip(
                self.names, self.rows, self.calls, self.self_s, self.total_s
            )
            if count
        ]
        table.sort(key=lambda entry: -float(entry["self_s"]))  # type: ignore[arg-type]
        return table
