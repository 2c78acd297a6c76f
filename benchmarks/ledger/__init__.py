"""The perf ledger: the benchmark every perf and simplicity PR is judged by.

Four workloads on the LeaFTL device, twelve end-to-end metrics (host clock
and simulated clock kept apart) and an outside-in attribution of every
replay second to the layers under ``src/repro``.  See ``README.md`` in this
directory for the metric and workload definitions; ``spec.py`` is the single
place their names, units and regression bounds live.

Nothing in here is imported by the simulator, and nothing in here imports
``repro.experiments`` or the ``repro.workloads`` generators: every request
list is generated inside this package from ``--seed``, so editing the figure
harnesses cannot silently change the benchmark.
"""
