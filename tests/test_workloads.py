"""Tests for the workload generators, trace model and MSR parser."""

from __future__ import annotations

import io
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.database import DATABASE_WORKLOAD_NAMES, database_workload
from repro.workloads.parser import TraceParseError, parse_msr_line, parse_msr_trace, write_msr_trace
from repro.workloads.synthetic import (
    FIU_WORKLOAD_NAMES,
    MSR_WORKLOAD_NAMES,
    SYNTHETIC_PROFILES,
    WorkloadProfile,
    generate,
    jittered_run,
    sequential_run,
    strided_run,
    synthetic_workload,
    zipf_lpa,
)
from repro.workloads.trace import IORequest, Trace


class TestTrace:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            IORequest("X", 0, 1)
        with pytest.raises(ValueError):
            IORequest("R", -1, 1)
        with pytest.raises(ValueError):
            IORequest("R", 0, 0)

    @pytest.mark.parametrize("stamp", [-1.0, -1e-9, -math.inf, math.inf, math.nan])
    def test_unusable_timestamp_rejected(self, stamp):
        """nan passed the open-loop order check (``5 < nan`` is False), inf
        made ``simulated_time_us`` inf, and a negative stamp made
        ``has_timestamps()`` false, so the tenant replayed closed-loop."""
        complaint = "timestamp_us must be finite and non-negative, got " + repr(stamp)
        with pytest.raises(ValueError, match=re.escape(complaint)):
            IORequest("R", 0, 1, timestamp_us=stamp)

    @pytest.mark.parametrize("stamp", [0.0, 0, 7.5, 1e15])
    def test_finite_non_negative_timestamp_accepted(self, stamp):
        assert IORequest("R", 0, 1, timestamp_us=stamp).timestamp_us == stamp

    def test_summary_statistics(self):
        trace = Trace("t", [IORequest("W", 0, 4), IORequest("R", 2, 2), IORequest("R", 100, 1)])
        assert trace.read_requests == 2
        assert trace.write_requests == 1
        assert trace.write_pages == 4
        assert trace.read_pages == 3
        assert trace.footprint_pages() == 5
        assert trace.max_lpa() == 100
        assert trace.read_ratio == pytest.approx(2 / 3)

    def test_scaled_to_clamps_lpas(self):
        trace = Trace("t", [IORequest("W", 1000, 4)])
        clamped = trace.scaled_to(512)
        assert clamped[0].lpa < 512
        assert clamped[0].lpa + clamped[0].npages <= 512

    def test_from_tuples_builds_requests(self):
        rebuilt = Trace.from_tuples("t", [("W", 5, 2)])
        assert rebuilt[0].lpa == 5 and rebuilt[0].npages == 2

    def test_with_interarrival_stamps_timestampless_traces(self):
        trace = Trace("t", [IORequest("R", i, 1) for i in range(4)])
        assert not trace.has_timestamps()
        stamped = trace.with_interarrival(25.0)
        assert [r.timestamp_us for r in stamped] == [0.0, 25.0, 50.0, 75.0]
        assert stamped.has_timestamps()

    def test_with_interarrival_preserves_existing_timestamps(self):
        trace = Trace("t", [IORequest("R", 0, 1, timestamp_us=7.0)])
        stamped = trace.with_interarrival(100.0)
        assert stamped[0].timestamp_us == 7.0


class TestPatternGenerators:
    def test_sequential_run(self):
        assert sequential_run(10, 4) == [10, 11, 12, 13]

    def test_strided_run(self):
        assert strided_run(10, 3, 4) == [10, 13, 16, 19]

    def test_jittered_run_is_monotonic(self):
        import random

        lpas = jittered_run(100, 50, random.Random(0))
        assert all(b > a for a, b in zip(lpas, lpas[1:]))

    @given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=100)
    def test_zipf_lpa_in_range(self, footprint, alpha):
        import random

        lpa = zipf_lpa(random.Random(0), footprint, alpha)
        assert 0 <= lpa < footprint


class TestProfiles:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad", footprint_pages=100, num_requests=10, read_ratio=0.5,
                sequential_fraction=0.9, strided_fraction=0.9,
                jittered_fraction=0.0, random_fraction=0.0,
            )

    def test_generation_is_deterministic(self):
        profile = SYNTHETIC_PROFILES["MSR-hm"].scaled(0.02)
        a = generate(profile)
        b = generate(profile)
        assert [r.as_tuple() for r in a] == [r.as_tuple() for r in b]

    @pytest.mark.parametrize("name", MSR_WORKLOAD_NAMES + FIU_WORKLOAD_NAMES)
    def test_named_profiles_generate(self, name):
        trace = synthetic_workload(name, request_scale=0.02)
        assert len(trace) > 0
        assert trace.name == name
        # The generated mix respects the profile's read ratio within tolerance.
        if name.startswith("MSR"):
            assert abs(trace.read_ratio - SYNTHETIC_PROFILES[name].read_ratio) < 0.15

    @pytest.mark.parametrize("name", DATABASE_WORKLOAD_NAMES)
    def test_database_workloads_generate(self, name):
        trace = database_workload(name, request_scale=0.02)
        assert len(trace) > 0
        assert trace.footprint_pages() > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            synthetic_workload("nope")
        with pytest.raises(KeyError):
            database_workload("nope")

    def test_scaling_reduces_requests(self):
        full = SYNTHETIC_PROFILES["MSR-usr"]
        scaled = full.scaled(request_scale=0.1)
        assert scaled.num_requests == pytest.approx(full.num_requests * 0.1, rel=0.01)


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


#: A well-formed MSR line, field by field; the malformed lines below each
#: break one field of it.
_VALID_FIELDS = ["5", "h", "0", "Read", "4096", "4096", "0"]
_FIELD_TEXT = st.text(st.characters(blacklist_characters=","), max_size=12)


def _with_field(index, value):
    fields = list(_VALID_FIELDS)
    fields[index] = value
    return ",".join(fields)


_MALFORMED_LINES = st.one_of(
    # Offset or Size: negative or non-numeric.
    st.builds(
        _with_field,
        st.sampled_from([4, 5]),
        st.integers(max_value=-1).map(str) | _FIELD_TEXT.filter(_not_an_int),
    ),
    # Timestamp: non-finite, spelled as a float or as an integer tick count
    # whose microseconds are past float range.
    st.builds(
        _with_field,
        st.just(0),
        st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400"])
        | st.integers(min_value=10 * 2**1024).map(str),
    ),
    # Type: neither a read nor a write.
    st.builds(
        _with_field,
        st.just(3),
        _FIELD_TEXT.filter(lambda text: text.strip().lower() not in {"read", "r", "write", "w"}),
    ),
    # Fewer than 6 fields.
    st.integers(1, 5).map(lambda count: ",".join(_VALID_FIELDS[:count])),
)


class TestMSRParser:
    SAMPLE = (
        "128166372003061629,hm,0,Read,8192,4096,100\n"
        "128166372016853991,hm,0,Write,12288,8192,200\n"
        "\n"
        "# comment line\n"
    )

    def test_parse_basic(self):
        trace = parse_msr_trace(io.StringIO(self.SAMPLE), name="sample")
        assert len(trace) == 2
        assert trace[0].op == "R" and trace[0].lpa == 2 and trace[0].npages == 1
        assert trace[1].op == "W" and trace[1].lpa == 3 and trace[1].npages == 2

    def test_parse_respects_page_size(self):
        trace = parse_msr_trace(io.StringIO(self.SAMPLE), page_size=8192)
        assert trace[0].lpa == 1
        # 8192 bytes at offset 12288 span bytes 12288-20479, which cross the
        # 16384 boundary: two 8 KB pages, not size // page_size == 1.
        assert trace[1].npages == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_msr_trace(io.StringIO("1,2,3\n"))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            parse_msr_trace(io.StringIO("1,h,0,Trim,0,4096,0\n"))

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ("nan,h,0,Read,0,4096,0", "non-finite timestamp 'nan'"),
            ("inf,h,0,Read,0,4096,0", "non-finite timestamp 'inf'"),
            ("-inf,h,0,Read,0,4096,0", "non-finite timestamp '-inf'"),
            ("1e400,h,0,Read,0,4096,0", "non-finite timestamp '1e400'"),
            ("5,h,0,Read,-4096,4096,0", "negative offset -4096"),
            ("5,h,0,Read,4096,-5,0", "negative size -5"),
        ],
    )
    def test_unusable_values_rejected_naming_the_line(self, line, complaint):
        # A nan arrival time compares false with everything, so it would
        # pass the open-loop ordering check and reach the event heap.
        with pytest.raises(TraceParseError, match=complaint) as excinfo:
            parse_msr_line(line, 4096)
        assert repr(line) in str(excinfo.value)
        # Whether it is the first line (the rebase origin) or a later one.
        for text in (line + "\n", "1,h,0,Read,0,4096,0\n" + line + "\n"):
            with pytest.raises(TraceParseError, match=complaint):
                parse_msr_trace(io.StringIO(text))

    def test_arrival_before_the_first_line_rejected_naming_the_line(self):
        # Rebased against the first line, it would be a negative timestamp.
        early = "5,h,0,Read,0,4096,0"
        with pytest.raises(TraceParseError, match="precedes the trace's first arrival") as excinfo:
            parse_msr_trace(io.StringIO("10,h,0,Read,0,4096,0\n" + early + "\n"))
        assert repr(early + "\n") in str(excinfo.value)

    def test_max_requests(self):
        trace = parse_msr_trace(io.StringIO(self.SAMPLE), max_requests=1)
        assert len(trace) == 1

    def test_unaligned_request_crossing_page_boundary_counts_both_pages(self):
        # 4096 bytes starting at offset 2048 touch pages 0 and 1.
        trace = parse_msr_trace(io.StringIO("1,h,0,Read,2048,4096,0\n"))
        assert trace[0].lpa == 0
        assert trace[0].npages == 2

    def test_page_span_from_first_and_last_byte(self):
        # 8192 bytes at offset 4097 touch pages 1, 2 and 3.
        trace = parse_msr_trace(io.StringIO("1,h,0,Write,4097,8192,0\n"))
        assert trace[0].lpa == 1
        assert trace[0].npages == 3
        # An aligned request is unchanged by the boundary math.
        aligned = parse_msr_trace(io.StringIO("1,h,0,Write,4096,8192,0\n"))
        assert aligned[0].lpa == 1
        assert aligned[0].npages == 2

    def test_timestamps_rebased_to_first_arrival_in_microseconds(self):
        trace = parse_msr_trace(io.StringIO(self.SAMPLE))
        assert trace[0].timestamp_us == 0.0
        # Delta of the two filetime stamps: 13,792,362 ticks = 1,379,236.2 us,
        # exact — the rebase happens in integer ticks, so the 100 ns arrival
        # resolution survives float64 conversion.
        assert trace[1].timestamp_us == pytest.approx(1_379_236.2)

    @given(
        requests=st.lists(
            st.tuples(st.sampled_from(["R", "W"]), st.integers(0, 2**32), st.integers(1, 1024)),
            min_size=1,
            max_size=20,
        ),
        ticks=st.lists(st.integers(0, 2**40 - 1), min_size=19, max_size=19),
    )
    @settings(max_examples=100, deadline=None)
    def test_written_trace_parses_back_to_itself(self, requests, ticks):
        """Any R/W trace stamped in whole 100 ns ticks, non-decreasing from 0,
        survives a write and re-parse request for request."""
        stamps = [0] + sorted(ticks)[: len(requests) - 1]
        original = Trace(
            "t",
            [
                IORequest(op, lpa, npages, timestamp_us=tick / 10)
                for (op, lpa, npages), tick in zip(requests, stamps)
            ],
        )
        buffer = io.StringIO()
        write_msr_trace(original, buffer)
        buffer.seek(0)
        assert [(r.op, r.lpa, r.npages, r.timestamp_us) for r in parse_msr_trace(buffer)] == [
            (r.op, r.lpa, r.npages, r.timestamp_us) for r in original
        ]

    @given(line=_MALFORMED_LINES)
    @settings(max_examples=200, deadline=None)
    def test_malformed_line_raises_trace_parse_error_only(self, line):
        with pytest.raises(TraceParseError):
            parse_msr_line(line, 4096)
