"""Parser for MSR-Cambridge-format block traces.

The MSR Cambridge traces (and the FIU traces re-published in the same
format) are CSV files with one request per line::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where ``Timestamp`` is in Windows filetime units (100 ns ticks),
``Type`` is ``Read`` or ``Write``, ``Offset`` and ``Size`` are in bytes.
If you have access to the original traces, this parser converts them into
the page-granular :class:`repro.workloads.trace.Trace` the simulator
replays, so the synthetic stand-ins can be swapped for the real inputs
without touching the rest of the pipeline.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.workloads.trace import IORequest, READ, Trace, WRITE

#: Windows filetime ticks per microsecond.
_TICKS_PER_US = 10


class TraceParseError(ValueError):
    """Raised when a trace line cannot be interpreted."""


def _parse_ticks(timestamp_raw: str) -> float:
    """Filetime ticks of one line, kept exact (int) whenever possible."""
    if not timestamp_raw:
        return 0
    try:
        return int(timestamp_raw)
    except ValueError:
        return float(timestamp_raw)


def parse_msr_line(
    line: str, page_size: int, base_ticks: float = 0
) -> Optional[IORequest]:
    """Parse one CSV line; returns ``None`` for empty/comment lines.

    ``base_ticks`` (filetime ticks) is subtracted from the timestamp
    *before* the tick-to-microsecond conversion.  Absolute filetimes are
    ~1.3e17 ticks, where a float64 only resolves ~3 us — rebasing against
    the trace's first arrival in exact integer arithmetic preserves the
    trace's full 100 ns arrival resolution for open-loop replay.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = stripped.split(",")
    if len(fields) < 6:
        raise TraceParseError(f"expected at least 6 CSV fields, got {len(fields)}: {line!r}")
    timestamp_raw, _host, _disk, op_raw, offset_raw, size_raw = fields[:6]
    op_name = op_raw.strip().lower()
    if op_name in ("read", "r"):
        op = READ
    elif op_name in ("write", "w"):
        op = WRITE
    else:
        raise TraceParseError(f"unknown operation {op_raw!r} in line {line!r}")
    try:
        offset = int(offset_raw)
        size = int(size_raw)
        timestamp = (_parse_ticks(timestamp_raw) - base_ticks) / _TICKS_PER_US
    except ValueError as exc:
        raise TraceParseError(f"non-numeric field in line {line!r}") from exc
    except OverflowError:  # an integer filetime beyond float range
        timestamp = math.inf
    # nan compares false with everything, so a non-finite arrival time would
    # slip past the open-loop ordering check and into the event heap.
    if not math.isfinite(timestamp):
        raise TraceParseError(f"non-finite timestamp {timestamp_raw!r} in line {line!r}")
    if timestamp < 0.0:
        raise TraceParseError(
            f"timestamp {timestamp_raw!r} precedes the trace's first arrival "
            f"in line {line!r}; sort the capture by timestamp first"
        )
    if offset < 0:
        raise TraceParseError(f"negative offset {offset} in line {line!r}")
    if size < 0:
        raise TraceParseError(f"negative size {size} in line {line!r}")
    if size == 0:
        size = page_size
    # Page span from the first and last byte touched: a request whose byte
    # range crosses a page boundary touches one more page than size alone
    # suggests (e.g. 4 KB starting at offset 2 KB spans two 4 KB pages).
    lpa = offset // page_size
    last_page = (offset + size - 1) // page_size
    npages = last_page - lpa + 1
    return IORequest(op, lpa, npages, timestamp_us=timestamp)


def parse_msr_trace(
    source: Union[str, Path, io.TextIOBase, Iterable[str]],
    name: str = "msr-trace",
    page_size: int = 4096,
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse an MSR-format CSV trace from a path, file object or line iterable.

    Timestamps are rebased so the first request arrives at 0 us; only the
    inter-arrival structure matters for replay, and the rebase keeps the
    100 ns trace resolution that absolute filetimes would lose to float64
    rounding.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_msr_trace(handle, name=name, page_size=page_size, max_requests=max_requests)

    requests: List[IORequest] = []
    base_ticks: Optional[float] = None
    for line in source:
        if base_ticks is None:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                try:
                    base_ticks = _parse_ticks(stripped.split(",", 1)[0])
                except ValueError:
                    base_ticks = None  # parse_msr_line reports the bad line

        request = parse_msr_line(line, page_size, base_ticks=base_ticks or 0)
        if request is None:
            continue
        requests.append(request)
        if max_requests is not None and len(requests) >= max_requests:
            break
    return Trace(name, requests)


def write_msr_trace(trace: Trace, destination: Union[str, Path, io.TextIOBase], page_size: int = 4096) -> None:
    """Write a trace back out in MSR CSV format (inverse of the parser)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            write_msr_trace(trace, handle, page_size=page_size)
            return
    writer = csv.writer(destination)
    for request in trace:
        writer.writerow(
            [
                int(request.timestamp_us * _TICKS_PER_US),
                "host0",
                0,
                "Read" if request.is_read else "Write",
                request.lpa * page_size,
                request.npages * page_size,
                0,
            ]
        )
