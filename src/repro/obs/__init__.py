"""Observability: sim-time tracing, metrics time-series, counter registry.

Three always-available, zero-cost-when-disabled layers over the simulator:

* :mod:`repro.obs.tracing` — :class:`Tracer` reconstructs per-request /
  GC / NAND lifecycle spans from the event stream and exports Chrome
  trace-event JSON (load in Perfetto or ``chrome://tracing``);
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsSampler`
  snapshots device gauges on a simulated-time interval into a columnar
  series (``metrics.json``);
* :mod:`repro.obs.registry` — :func:`device_snapshot` walks every
  registered ``*Stats`` dataclass into one flat namespaced
  :class:`CounterSnapshot` with a delta API.

Two pure post-processing layers turn those artifacts into explanations:

* :mod:`repro.obs.analyze` — per-percentile critical-path latency
  attribution (:func:`analyze_artifacts`), tail-blame clustering, the
  per-namespace SLO scorecard (:func:`namespace_scorecard`) and the run
  differ (:func:`repro.obs.analyze.diff_runs` / :func:`diff_counters`);
* :mod:`repro.obs.report` — deterministic markdown renderers for the
  analyzer and differ reports.

Enable per run via ``SSDOptions(telemetry="on")`` or
:func:`attach_telemetry` (on a harness-built device:
``attach_telemetry(build_ssd(scheme, setup), "on")``); run
``python -m repro.obs run --scenario multi_tenant --out DIR`` for a
ready-made traced scenario, then ``python -m repro.obs analyze DIR`` and
``python -m repro.obs diff DIR_A DIR_B`` over the artifacts.  Observers
never perturb scheduling: ``repro.verify`` digests are identical with
telemetry on or off.
"""

from repro.obs.analyze import (
    ArtifactError,
    analyze_artifacts,
    attribute_requests,
    diff_counters,
    diff_metrics,
    load_artifacts,
    namespace_scorecard,
    request_spans,
    tail_blame,
)
from repro.obs.registry import CounterSnapshot, device_snapshot, snapshot_stats
from repro.obs.report import render_diff, render_report
from repro.obs.session import attach_telemetry
from repro.obs.tracing import Tracer

#: What something outside the package imports from ``repro.obs`` itself;
#: the device and the harness import the submodules directly.
__all__ = [
    "ArtifactError",
    "CounterSnapshot",
    "Tracer",
    "analyze_artifacts",
    "attach_telemetry",
    "attribute_requests",
    "device_snapshot",
    "diff_counters",
    "diff_metrics",
    "load_artifacts",
    "namespace_scorecard",
    "render_diff",
    "render_report",
    "request_spans",
    "snapshot_stats",
    "tail_blame",
]
