"""The unified counter registry: every ``*Stats`` counter, one namespace.

The simulator's statistics live in nine dataclasses scattered across the
package (:class:`~repro.ssd.stats.SSDStats`, the per-FTL stats, cache /
write-buffer / allocator counters, per-frontend and per-namespace stats).
:func:`snapshot_stats` is the one place any of them becomes named numbers:
no ``*Stats`` class has a ``summary()`` and no device or FTL a
``describe()``.  Those hand-kept key lists routinely missed newly added
counters (``checkpoint_page_writes`` shipped a whole PR before any report
showed it), and a second list beside the walker is a second thing to
forget.  Every reader — the experiment tables (``"device"`` and the
per-tenant rows of :mod:`repro.experiments.multi_tenant`), the perf ledger,
``counters.json``, the run differ and the determinism harness's stats
digest (:func:`repro.verify.stats_digest` hashes
``device_snapshot(ssd, host).as_dict()``) — gets the same keys, so a counter
added anywhere is exported, digested and reported with no further edit.

The registry walks the stats objects generically:

* every ``int``/``float`` dataclass field is exported as
  ``<prefix>.<field>`` (e.g. ``ssd.gc_page_writes``);
* every numeric ``@property`` is exported the same way (derived metrics
  like ``ssd.write_amplification`` come along for free);
* :class:`~repro.ssd.stats.LatencyRecorder` fields expand into
  ``.count`` / ``.total_us`` / ``.mean_us`` / ``.p50_us`` / ``.p95_us`` /
  ``.p99_us`` / ``.max_us`` (``ssd.read_latency.p99_us``);
* any other field type must appear in :data:`EXCLUDED_FIELDS` with a
  reason, or the walk raises ``TypeError``.

That ``TypeError`` is the whole enforcement.  The tier-1 test
``tests/test_telemetry.py::TestCounterRegistry::test_snapshot_covers_every_ssd_stats_field``
imports every module under ``repro``, and for each ``*Stats`` dataclass it
finds requires a :data:`REGISTERED_STATS` entry, default-constructs it and
walks it with :func:`snapshot_stats` — so a counter added anywhere in the
package is export-visible or a test failure, never silently missing.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from typing import Any, Dict, Mapping

from repro.ssd.stats import LatencyRecorder

#: ``*Stats`` dataclass name -> counter-namespace prefix.  Every stats
#: dataclass in ``src/repro`` must appear here (see the module docstring).
#: ``NamespaceStats`` instances are per-tenant, so their prefix is extended
#: with the namespace name: ``ns.<tenant>.<field>``.
REGISTERED_STATS = {
    "SSDStats": "ssd",
    "FTLStats": "ftl",
    "LeaFTLStats": "leaftl",
    "MappingTableStats": "mapping_table",
    "CacheStats": "cache",
    "WriteBufferStats": "write_buffer",
    "AllocationStats": "allocator",
    "FrontendStats": "frontend",
    "NamespaceStats": "ns",
}

#: ``(class name, field name) -> reason`` for fields the registry may skip.
#: Every entry must explain what covers the data instead; any other
#: non-numeric, non-LatencyRecorder field makes :func:`snapshot_stats` raise.
EXCLUDED_FIELDS = {
    ("MappingTableStats", "levels_histogram"): (
        "levels-searched histogram (Figure 23a); the aggregate is exported "
        "as mapping_table.mean_levels_per_lookup"
    ),
}

#: LatencyRecorder expansion: suffix -> extractor.
_LATENCY_SUFFIXES = (
    ("count", lambda r: float(r.count)),
    ("total_us", lambda r: r.total_us),
    ("mean_us", lambda r: r.mean_us),
    ("p50_us", lambda r: r.percentile(50)),
    ("p95_us", lambda r: r.percentile(95)),
    ("p99_us", lambda r: r.percentile(99)),
    ("max_us", lambda r: r.max_us),
)


def snapshot_stats(stats: Any, prefix: str) -> Dict[str, float]:
    """Walk one stats object into flat ``<prefix>.<name>`` counters.

    Fields come first (declaration order), then numeric properties in
    alphabetical order — both deterministic, so two snapshots of identical
    state serialize byte-identically.
    """
    cls = type(stats)
    if not dataclasses.is_dataclass(stats):
        raise TypeError(f"{cls.__name__} is not a dataclass; cannot snapshot")
    counters: Dict[str, float] = {}
    for field in dataclasses.fields(stats):
        if (cls.__name__, field.name) in EXCLUDED_FIELDS:
            continue
        value = getattr(stats, field.name)
        key = f"{prefix}.{field.name}"
        if isinstance(value, LatencyRecorder):
            for suffix, extract in _LATENCY_SUFFIXES:
                counters[f"{key}.{suffix}"] = extract(value)
        elif isinstance(value, (int, float)):  # bool included
            counters[key] = float(value)
        else:
            raise TypeError(
                f"{cls.__name__}.{field.name} ({type(value).__name__}) is not "
                "registry-exportable; make it numeric or add an "
                "EXCLUDED_FIELDS entry explaining what covers it"
            )
    for name, member in inspect.getmembers(cls, lambda m: isinstance(m, property)):
        value = getattr(stats, name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            counters[f"{prefix}.{name}"] = float(value)
    return counters


@dataclasses.dataclass(frozen=True)
class CounterSnapshot:
    """One flat, namespaced snapshot of device counters with a delta API."""

    counters: Mapping[str, float]

    def __getitem__(self, key: str) -> float:
        return self.counters[key]

    def __contains__(self, key: str) -> bool:
        return key in self.counters

    def as_dict(self) -> Dict[str, float]:
        """Key-sorted plain dictionary (stable serialization order)."""
        return {key: self.counters[key] for key in sorted(self.counters)}

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Per-key difference ``self - earlier`` (missing keys count as 0).

        The union of both key sets is kept, so a counter that only exists
        in one snapshot (say, a namespace added mid-run) still shows up.
        """
        keys = set(self.counters) | set(earlier.counters)
        return CounterSnapshot(
            {
                key: self.counters.get(key, 0.0) - earlier.counters.get(key, 0.0)
                for key in keys
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def device_snapshot(ssd: Any, host: Any = None) -> CounterSnapshot:
    """Snapshot every registered counter reachable from one device.

    ``ssd`` is duck-typed (:class:`repro.ssd.ssd.SimulatedSSD`); ``host``
    optionally adds per-tenant ``ns.<name>.*`` counters from a
    :class:`repro.host.interface.HostInterface`.  A few live device gauges
    that no stats dataclass owns (free blocks, wear imbalance, resident
    mapping bytes) are exported under ``device.*``.
    """
    ftl = ssd.ftl
    stats_objects = {
        "SSDStats": ssd.stats,
        "FTLStats": ftl.stats,
        "LeaFTLStats": getattr(ftl, "lea_stats", None),
        "MappingTableStats": getattr(getattr(ftl, "table", None), "stats", None),
        "CacheStats": ssd.cache.stats,
        "WriteBufferStats": ssd.write_buffer.stats,
        "AllocationStats": ssd.allocator.stats,
    }
    counters: Dict[str, float] = {}
    for name, stats in stats_objects.items():
        if stats is not None:
            counters.update(snapshot_stats(stats, REGISTERED_STATS[name]))
    counters["device.free_blocks"] = float(ssd.allocator.free_block_count())
    counters["device.free_block_ratio"] = ssd.allocator.free_ratio()
    counters["device.wear_imbalance"] = ssd.allocator.wear_imbalance()
    counters["device.cache_capacity_pages"] = float(ssd.cache.capacity_pages)
    counters["device.mapping_resident_bytes"] = float(ssd.ftl.resident_bytes())
    counters["device.write_buffer_pages"] = float(len(ssd.write_buffer))
    if host is not None:
        ns_prefix = REGISTERED_STATS["NamespaceStats"]
        for name, namespace in sorted(host.namespaces.items()):
            prefix = f"{ns_prefix}.{name}"
            counters.update(snapshot_stats(namespace.stats, prefix))
            # Namespace configuration gauges: SLO thresholds and QoS
            # weights, so downstream consumers (the health scorecard in
            # repro.obs.analyze) can judge the counters against the SLOs
            # from the snapshot alone.  Absent SLOs export as 0.0.
            counters[f"{prefix}.slo_read_us"] = float(namespace.slo_read_us or 0.0)
            counters[f"{prefix}.weight"] = float(namespace.weight)
            counters[f"{prefix}.priority"] = float(namespace.priority)
    return CounterSnapshot(counters)
