"""Observability: sim-time tracing, metrics time-series, counter registry.

Three always-available, zero-cost-when-disabled layers over the simulator:

* :mod:`repro.obs.tracing` — :class:`~repro.obs.tracing.Tracer`
  reconstructs per-request / GC / NAND lifecycle spans from the event
  stream and exports Chrome trace-event JSON (load in Perfetto or
  ``chrome://tracing``);
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsSampler`
  snapshots device gauges on a simulated-time interval into a columnar
  series (``metrics.json``);
* :mod:`repro.obs.registry` — :func:`~repro.obs.registry.device_snapshot`
  walks every registered ``*Stats`` dataclass into one flat namespaced
  :class:`~repro.obs.registry.CounterSnapshot` with a delta API.

Two pure post-processing layers turn those artifacts into explanations:

* :mod:`repro.obs.analyze` — per-percentile critical-path latency
  attribution (:func:`~repro.obs.analyze.analyze_artifacts`), tail-blame
  clustering, the per-namespace SLO scorecard
  (:func:`~repro.obs.analyze.namespace_scorecard`) and the run differ
  (:func:`~repro.obs.analyze.diff_runs` /
  :func:`~repro.obs.analyze.diff_counters`);
* :mod:`repro.obs.report` — deterministic markdown renderers for the
  analyzer and differ reports.

This ``__init__`` re-exports nothing: import each name from its module
(``from repro.obs.session import attach_telemetry``).  Enable per run via
``SSDOptions(telemetry="on")`` or
:func:`~repro.obs.session.attach_telemetry` (on a harness-built device:
``attach_telemetry(build_ssd(scheme, setup), "on")``); run
``python -m repro.obs run --scenario multi_tenant --out DIR`` for a
ready-made traced scenario, then ``python -m repro.obs analyze DIR`` and
``python -m repro.obs diff DIR_A DIR_B`` over the artifacts.  Observers
never perturb scheduling: ``repro.verify`` digests are identical with
telemetry on or off.
"""
