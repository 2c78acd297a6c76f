"""Telemetry session: attachment and artifact export.

One :class:`Telemetry` object owns whatever collectors a run enables —
a :class:`~repro.obs.tracing.Tracer`, a
:class:`~repro.obs.metrics.MetricsSampler`, or both — and presents the
single surface the device model talks to.  The device holds at most one
``telemetry`` reference and guards every hook with ``is not None``, so the
disabled path costs exactly the existing observer-is-None style check and
nothing else.

Modes (:data:`TELEMETRY_MODES`):

``"off"``
    No collectors; :func:`attach_telemetry` leaves ``ssd.telemetry`` None.
``"trace"``
    Tracer only (lifecycle spans + NAND probe).
``"metrics"``
    Sampler only (gauge time-series).
``"on"``
    Both.

Attachment installs the NAND probe when tracing is enabled and re-arms
itself across :meth:`~repro.ssd.ssd.SimulatedSSD.run_frontend` calls via
the device's ``chain_observer`` wiring — the telemetry observer composes
with a :class:`~repro.ssd.recovery.CrashTimer` or any other observer
rather than displacing it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsSampler
from repro.obs.registry import device_snapshot
from repro.obs.tracing import Tracer
from repro.sim.events import Event

#: Accepted values of ``SSDOptions.telemetry`` / :func:`attach_telemetry`.
TELEMETRY_MODES = ("off", "trace", "metrics", "on")


class Telemetry:
    """The per-device telemetry session the SSD model calls into."""

    def __init__(self, ssd: Any, mode: str, host: Any = None) -> None:
        if mode not in TELEMETRY_MODES:
            raise ValueError(f"telemetry mode must be one of {TELEMETRY_MODES}")
        self._ssd = ssd
        self._host = host
        self.tracer: Optional[Tracer] = Tracer() if mode in ("trace", "on") else None
        self.sampler: Optional[MetricsSampler] = (
            MetricsSampler(ssd, host=host) if mode in ("metrics", "on") else None
        )
        if self.tracer is not None:
            # Attachment is the one sanctioned mutation: installing the
            # read-only NAND probe on the scheduler.
            ssd.scheduler.probe = self.tracer.nand_op  # simlint: disable=SIM008

    # ------------------------------------------------------------------ #
    # Hooks called by the device model (each guarded by `is not None`)
    # ------------------------------------------------------------------ #
    def observe(self, event: Event) -> None:
        """Event-loop observer fanning out to the enabled collectors."""
        if self.tracer is not None:
            self.tracer.observe(event)
        if self.sampler is not None:
            self.sampler.observe(event)

    def pump(self, now_us: float) -> None:
        """Clock tick outside the event stream (flushes, replay start)."""
        if self.sampler is not None:
            self.sampler.pump(now_us)

    def note_translation(
        self, start_us: float, finish_us: float, reads: int, writes: int, foreground: bool
    ) -> None:
        if self.tracer is not None:
            self.tracer.note_translation(start_us, finish_us, reads, writes, foreground)

    def note_checkpoint(self, start_us: float, finish_us: float, pages: int) -> None:
        if self.tracer is not None:
            self.tracer.note_checkpoint(start_us, finish_us, pages)

    @property
    def wants_breakdowns(self) -> bool:
        """Whether the device reports each replay submit (it opens a span)."""
        return self.tracer is not None

    def note_request_breakdown(
        self, components: Dict[str, float], start_us: float, finish_us: float
    ) -> None:
        if self.tracer is not None:
            self.tracer.note_request_breakdown(components, start_us, finish_us)

    def note_recovery(
        self,
        name: str,
        start_us: float,
        finish_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.tracer is not None:
            self.tracer.note_recovery(name, start_us, finish_us, args)

    def finalize(self, now_us: float) -> None:
        """End-of-run: close the metrics series at the final sim time."""
        if self.sampler is not None:
            self.sampler.finalize(now_us)

    # ------------------------------------------------------------------ #
    # Artifacts
    # ------------------------------------------------------------------ #
    def write_artifacts(self, outdir: str) -> Dict[str, str]:
        """Write every enabled collector's artifact plus a counter snapshot.

        Returns ``{artifact name: path}``.  The counter snapshot
        (``counters.json``) is always written — the registry needs no
        collector, only the device.
        """
        os.makedirs(outdir, exist_ok=True)
        written: Dict[str, str] = {}
        if self.tracer is not None:
            path = os.path.join(outdir, "trace.json")
            self.tracer.export_json(path)
            written["trace"] = path
        if self.sampler is not None:
            path = os.path.join(outdir, "metrics.json")
            self.sampler.export_json(path)
            written["metrics_json"] = path
        counters_path = os.path.join(outdir, "counters.json")
        snapshot = device_snapshot(self._ssd, host=self._host)
        with open(counters_path, "w", encoding="utf-8") as handle:
            handle.write(snapshot.to_json())
            handle.write("\n")
        written["counters"] = counters_path
        return written


def attach_telemetry(
    ssd: Any,
    telemetry: str = "on",
    host: Any = None,
) -> Optional[Telemetry]:
    """Create a :class:`Telemetry` for ``ssd`` and install it.

    ``telemetry`` is a mode string (see :data:`TELEMETRY_MODES`).  Mode
    ``"off"`` leaves ``ssd.telemetry`` as ``None`` — the zero-cost disabled
    path — and returns ``None``.  ``host`` (a
    :class:`repro.host.interface.HostInterface`) adds per-namespace
    queue-depth columns to the sampler.
    """
    session = None if telemetry == "off" else Telemetry(ssd, telemetry, host=host)
    ssd.set_telemetry(session)
    return session
