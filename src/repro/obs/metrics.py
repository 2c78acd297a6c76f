"""Sim-time metrics sampling: gauge time-series with JSON export.

End-of-run counters say *how much*; they cannot say *when*.  The
:class:`MetricsSampler` snapshots the device's live gauges — free blocks,
GC backlog, cache hit rate, write-buffer fill, per-channel busy fraction,
per-namespace queue depth, write amplification so far — on a fixed
simulated-time interval, producing a columnar time-series that plots the
run: a GC burst shows up as a free-block dip plus a channel-busy spike
exactly when a tenant's latency histogram went bimodal.

Like the tracer, the sampler reads simulated clocks only and mutates
nothing it observes, so enabling it leaves ``repro.verify`` digests
unchanged; the column set is fixed at construction and ``json`` writes
floats by ``repr``, so two runs of the same seed export byte-identical
files.

Sampling rides the same observer hook as tracing (cheap: one float
comparison per event when no sample is due).  Flushes also happen between
events and outside any replay, so :meth:`pump` exists for the flush path
to call; the final sample is taken by :meth:`finalize` so the last row
always reflects the end-of-run state regardless of interval phase.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.sim.events import Event

#: Sampling interval (simulated microseconds).
METRICS_INTERVAL_US = 1_000.0


class MetricsSampler:
    """Samples device gauges into a columnar sim-time series."""

    def __init__(self, ssd: Any, host: Any = None) -> None:
        self._ssd = ssd
        self._host = host
        self.interval_us = METRICS_INTERVAL_US
        self._next_due = self.interval_us
        #: Bus-occupied time per channel at the previous sample, for the
        #: windowed (per-interval, not cumulative) busy fraction.
        self._bus_time_prev = [0.0] * ssd.scheduler.channels
        self._time_prev = 0.0
        self._columns = self._column_names()
        self._series: Dict[str, List[float]] = {name: [] for name in self._columns}

    def _column_names(self) -> List[str]:
        names = [
            "time_us",
            "free_blocks",
            "free_block_ratio",
            "gc_running",
            "gc_backlog",
            "gc_urgent",
            "cache_hit_ratio",
            "write_buffer_fill",
            "waf",
            "total_flash_page_writes",
        ]
        names.extend(f"ch{c}_busy_frac" for c in range(self._ssd.scheduler.channels))
        if self._host is not None:
            names.extend(
                f"ns_{name}_inflight" for name in sorted(self._host.namespaces)
            )
        return names

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def observe(self, event: Event) -> None:
        """Event-loop observer: sample when the interval has elapsed."""
        if event.time_us >= self._next_due:
            self._sample(event.time_us)

    def pump(self, now_us: float) -> None:
        """Same check as :meth:`observe`, for paths with no event loop."""
        if now_us >= self._next_due:
            self._sample(now_us)

    def finalize(self, now_us: float) -> None:
        """Take the closing sample (skipped if a sample already landed there)."""
        times = self._series["time_us"]
        if times and times[-1] >= now_us:
            return
        self._sample(now_us)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _sample(self, now_us: float) -> None:
        ssd = self._ssd
        stats = ssd.stats
        gc = ssd.gc
        row: Dict[str, float] = {
            "time_us": now_us,
            "free_blocks": float(ssd.allocator.free_block_count()),
            "free_block_ratio": ssd.allocator.free_ratio(),
            "gc_running": 1.0 if gc.active else 0.0,
            "gc_backlog": float(gc.backlog),
            "gc_urgent": 1.0 if gc.below_hard_watermark() else 0.0,
            "cache_hit_ratio": stats.cache_hit_ratio,
            "write_buffer_fill": len(ssd.write_buffer) / ssd.write_buffer.capacity_pages,
            "waf": stats.write_amplification,
            "total_flash_page_writes": float(stats.total_flash_page_writes),
        }
        elapsed = now_us - self._time_prev
        scheduler = ssd.scheduler
        for channel in range(scheduler.channels):
            bus_time = scheduler.bus_time_us(channel)
            if elapsed > 0.0:
                frac = min(1.0, (bus_time - self._bus_time_prev[channel]) / elapsed)
            else:
                frac = 0.0
            row[f"ch{channel}_busy_frac"] = frac
            self._bus_time_prev[channel] = bus_time
        if self._host is not None:
            for name, namespace in sorted(self._host.namespaces.items()):
                ns_stats = namespace.stats
                row[f"ns_{name}_inflight"] = float(
                    ns_stats.submitted - ns_stats.completed
                )
        for column in self._columns:
            self._series[column].append(row[column])
        self._time_prev = now_us
        # Skip intervals with no events rather than emitting stale rows.
        periods = int(now_us // self.interval_us) + 1
        self._next_due = periods * self.interval_us

    # ------------------------------------------------------------------ #
    # Access / export
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def samples(self) -> int:
        return len(self._series["time_us"])

    def series(self, column: str) -> List[float]:
        """The sampled values of one column (copy)."""
        return list(self._series[column])

    def last(self, column: str) -> float:
        values = self._series[column]
        if not values:
            raise ValueError("no samples taken")
        return values[-1]

    def to_json(self) -> str:
        """Columnar JSON: ``{"interval_us": ..., "series": {col: [...]}}``."""
        return json.dumps(
            {
                "interval_us": self.interval_us,
                "columns": self._columns,
                "series": self._series,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def export_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
