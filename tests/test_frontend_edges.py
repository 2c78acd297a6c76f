"""Frontend admission edge cases (single-queue and multi-queue).

Covers the corners trace replay must not mishandle:

* an empty trace (no events, no counters, clean return);
* a trace shorter than the queue depth (partial initial admission);
* open-loop replay of a trace with non-monotonic timestamps — the replay
  must raise (never silently reorder or distort the arrival process), and
  ``Trace.sorted_by_timestamp()`` must repair such a trace.
"""

from __future__ import annotations

import pytest

from repro.host.interface import HostInterface
from repro.sim.events import EventLoop
from repro.sim.frontend import HostFrontend, OpenLoopFrontend
from repro.ssd.ssd import SSDOptions
from repro.workloads.trace import IORequest, Trace
from tests.conftest import make_ssd


class _RecordingDevice:
    def __init__(self, latency_us: float = 10.0):
        self.latency_us = latency_us
        self.issues = []

    def submit(self, op, lpa, npages, at_us):
        self.issues.append((at_us, op, lpa))
        return at_us + self.latency_us


class TestEmptyTrace:
    def test_closed_loop_frontend(self):
        device = _RecordingDevice()
        stats = HostFrontend(device, EventLoop(), queue_depth=4).run([])
        assert stats.submitted == stats.completed == 0
        assert stats.max_outstanding == 0
        assert device.issues == []

    def test_open_loop_frontend(self):
        device = _RecordingDevice()
        stats = OpenLoopFrontend(device, EventLoop()).run([])
        assert stats.submitted == stats.completed == 0
        assert device.issues == []

    def test_full_device_replay(self):
        ssd = make_ssd()
        stats = ssd.run([])
        assert stats.requests_submitted == 0
        assert stats.host_read_pages == stats.host_write_pages == 0

    def test_host_interface_with_one_empty_stream(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=4))
        host = HostInterface(ssd)
        host.add_namespace("a", size_pages=256)
        host.add_namespace("b", size_pages=256)
        result = host.run({"a": [], "b": [("W", 0, 4)]})
        assert result["a"].completed == 0
        assert result["b"].completed == 1


class TestShortTrace:
    def test_trace_shorter_than_queue_depth(self):
        device = _RecordingDevice()
        stats = HostFrontend(device, EventLoop(), queue_depth=8).run(
            [("R", lpa, 1) for lpa in range(3)]
        )
        assert stats.submitted == stats.completed == 3
        # All three admitted at t=0; the depth never actually fills.
        assert stats.max_outstanding == 3
        assert [t for t, _, _ in device.issues] == [0.0, 0.0, 0.0]

    def test_device_replay_shorter_than_depth(self):
        ssd = make_ssd()
        stats = ssd.run([("W", 0, 4), ("R", 0, 4)], queue_depth=16)
        assert stats.requests_submitted == 2
        assert stats.requests_completed == 2
        assert stats.max_outstanding_requests <= 2


def _unsorted_trace() -> Trace:
    return Trace(
        "unsorted",
        [
            IORequest("W", 0, 1, timestamp_us=50.0),
            IORequest("W", 8, 1, timestamp_us=20.0),
            IORequest("W", 16, 1, timestamp_us=30.0),
        ],
    )


#: The one arrival-order error (raised by ``ArrivalStream.arrival_time``,
#: whichever frontend drives the stream).
_ORDER_ERROR = (
    r"open-loop replay requires non-decreasing timestamps, got 20\.0 after "
    r"50\.0; sort the trace \(Trace\.sorted_by_timestamp\(\)\) before replay"
)


class TestNonMonotonicTimestamps:
    def test_open_loop_frontend_raises(self):
        device = _RecordingDevice()
        frontend = OpenLoopFrontend(device, EventLoop())
        with pytest.raises(ValueError, match=_ORDER_ERROR):
            frontend.run(_unsorted_trace())

    def test_device_open_replay_raises(self):
        ssd = make_ssd()
        with pytest.raises(ValueError, match=_ORDER_ERROR):
            ssd.run(_unsorted_trace(), replay_mode="open")

    def test_multi_queue_open_replay_raises(self):
        ssd = make_ssd(options=SSDOptions(queue_depth=2))
        host = HostInterface(ssd)
        host.add_namespace("t", size_pages=256)
        with pytest.raises(ValueError, match="stream 't': " + _ORDER_ERROR):
            host.run({"t": _unsorted_trace()})

    def test_sorted_by_timestamp_repairs_the_trace(self):
        trace = _unsorted_trace()
        assert not trace.timestamps_sorted()
        ordered = trace.sorted_by_timestamp()
        assert ordered.timestamps_sorted()
        assert [r.timestamp_us for r in ordered] == [20.0, 30.0, 50.0]
        # The repaired trace replays cleanly.
        ssd = make_ssd()
        stats = ssd.run(ordered, replay_mode="open")
        assert stats.requests_completed == 3

    def test_sort_is_stable_for_equal_timestamps(self):
        trace = Trace(
            "ties",
            [
                IORequest("W", 1, 1, timestamp_us=10.0),
                IORequest("W", 2, 1, timestamp_us=10.0),
                IORequest("W", 3, 1, timestamp_us=5.0),
            ],
        )
        ordered = trace.sorted_by_timestamp()
        assert [r.lpa for r in ordered] == [3, 1, 2]

    def test_equal_timestamps_are_legal(self):
        trace = Trace(
            "ties",
            [IORequest("W", lpa, 1, timestamp_us=0.0) for lpa in range(4)],
        )
        ssd = make_ssd()
        stats = ssd.run(trace, replay_mode="open")
        assert stats.requests_completed == 4
