"""Observability: sim-time tracing, metrics time-series, counter registry.

Three always-available, zero-cost-when-disabled layers over the simulator:

* :mod:`repro.obs.tracing` — :class:`Tracer` reconstructs per-request /
  GC / NAND lifecycle spans from the event stream and exports Chrome
  trace-event JSON (load in Perfetto or ``chrome://tracing``);
* :mod:`repro.obs.metrics` — :class:`MetricsSampler` snapshots device
  gauges on a simulated-time interval into a columnar series (CSV/JSON);
* :mod:`repro.obs.registry` — :func:`device_snapshot` walks every
  registered ``*Stats`` dataclass into one flat namespaced
  :class:`CounterSnapshot` with a delta API.

Two pure post-processing layers turn those artifacts into explanations:

* :mod:`repro.obs.analyze` — per-percentile critical-path latency
  attribution (:func:`analyze_artifacts`), tail-blame clustering, the
  per-namespace SLO scorecard (:func:`namespace_scorecard`) and the run
  differ (:func:`diff_runs` / :func:`diff_counters`);
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
    diff_runs,
    load_artifacts,
    namespace_scorecard,
    request_spans,
    tail_blame,
)
from repro.obs.metrics import DEFAULT_METRICS_INTERVAL_US, MetricsSampler
from repro.obs.registry import (
    CounterSnapshot,
    EXCLUDED_FIELDS,
    REGISTERED_STATS,
    device_snapshot,
    snapshot_stats,
)
from repro.obs.session import TELEMETRY_MODES, Telemetry, attach_telemetry
from repro.obs.report import render_diff, render_report
from repro.obs.tracing import DEFAULT_TRACE_CAPACITY, Tracer

__all__ = [
    "ArtifactError",
    "CounterSnapshot",
    "DEFAULT_METRICS_INTERVAL_US",
    "DEFAULT_TRACE_CAPACITY",
    "EXCLUDED_FIELDS",
    "MetricsSampler",
    "REGISTERED_STATS",
    "TELEMETRY_MODES",
    "Telemetry",
    "Tracer",
    "analyze_artifacts",
    "attach_telemetry",
    "attribute_requests",
    "device_snapshot",
    "diff_counters",
    "diff_metrics",
    "diff_runs",
    "load_artifacts",
    "namespace_scorecard",
    "render_diff",
    "render_report",
    "request_spans",
    "snapshot_stats",
    "tail_blame",
]
