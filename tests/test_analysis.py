"""Tests for the analysis helpers and the statistics recorders."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.latency import (
    histogram_cdf,
    latency_cdf,
    mean_and_p99,
    normalize,
    percentile,
    speedup,
    value_at_cdf,
)
from repro.analysis.memory import (
    format_bytes,
    geometric_mean,
    length_histogram,
    normalized_size,
    reduction_factor,
)
from repro.analysis.report import render_series, render_table
from repro.obs.registry import snapshot_stats
from repro.ssd.stats import LatencyRecorder, SSDStats, nearest_rank


class TestLatencyHelpers:
    def test_percentile(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0) == 1
        assert percentile(samples, 100) == 100
        assert percentile(samples, 50) == pytest.approx(50, abs=1)

    def test_percentile_empty(self):
        assert percentile([], 99) == 0.0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            nearest_rank(10, -1)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
        st.sampled_from([0, 30, 50, 90, 95, 99, 99.9, 100]),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_rank_rule(self, samples, pct):
        """The recorder and the figure analysis pick the same sample."""
        recorder = LatencyRecorder()
        for value in samples:
            recorder.record(value)
        expected = sorted(samples)[nearest_rank(len(samples), pct)]
        assert percentile(samples, pct) == expected
        assert recorder.percentile(pct) == expected

    def test_mean_and_p99(self):
        assert mean_and_p99([]) == (0.0, 0.0)
        assert mean_and_p99(list(range(1, 101))) == (50.5, 99)

    def test_length_histogram(self):
        shares = length_histogram([1, 1, 2, 300], buckets=(1, 2, 256))
        assert shares == {1: 50.0, 2: 75.0, 256: 75.0}
        assert length_histogram([], buckets=(1,)) == {1: 0.0}

    def test_latency_cdf_points(self):
        cdf = latency_cdf([1, 2, 3, 4, 5], points=(0, 99))
        assert cdf[0] == 1
        assert cdf[99] == 5

    def test_normalize(self):
        normalized = normalize({"DFTL": 10.0, "LeaFTL": 5.0}, "DFTL")
        assert normalized["DFTL"] == 1.0
        assert normalized["LeaFTL"] == 0.5

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({"A": 1.0}, "B")

    def test_speedup(self):
        assert speedup({"DFTL": 10.0, "LeaFTL": 5.0}, over="DFTL", of="LeaFTL") == 2.0

    def test_histogram_cdf(self):
        cdf = dict(histogram_cdf({1: 90, 2: 9, 10: 1}))
        assert cdf[1] == pytest.approx(0.9)
        assert cdf[10] == pytest.approx(1.0)
        assert value_at_cdf({1: 90, 2: 9, 10: 1}, 0.99) == 2


class TestMemoryHelpers:
    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert "MB" in format_bytes(5 * 1024 * 1024)

    def test_reduction_factor(self):
        assert reduction_factor(100, 25) == 4.0
        assert reduction_factor(100, 0) == float("inf")

    def test_normalized_size(self):
        sizes = normalized_size({"g0": 100.0, "g16": 60.0}, "g0")
        assert sizes["g16"] == pytest.approx(0.6)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_geometric_mean_bounded_by_min_max(self, values):
        gm = geometric_mean(values)
        assert min(values) <= gm * 1.0001
        assert gm <= max(values) * 1.0001


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "b"], [[1, 2.5], ["xyz", 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        assert len(lines) == 6

    def test_render_series(self):
        text = render_series("S", {"row": {"c1": 1.0, "c2": 2.0}})
        assert "row" in text and "c1" in text


class TestLatencyRecorder:
    def test_mean_and_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 1001):
            recorder.record(float(value))
        assert recorder.count == 1000
        assert recorder.mean_us == pytest.approx(500.5)
        assert recorder.percentile(99) >= 950
        assert recorder.max_us == 1000

    def test_reservoir_stays_bounded(self):
        recorder = LatencyRecorder(reservoir_size=100)
        for value in range(10_000):
            recorder.record(float(value))
        assert len(recorder.samples()) == 100
        assert recorder.count == 10_000

    def test_reservoir_sampling_is_reproducible(self):
        """Same seed, same stream -> identical reservoir past the bound."""
        first = LatencyRecorder(reservoir_size=64)
        second = LatencyRecorder(reservoir_size=64)
        for value in range(5_000):
            first.record(float(value))
            second.record(float(value))
        assert first.samples() == second.samples()
        assert first.percentile(99) == second.percentile(99)

    def test_reservoir_percentiles_track_distribution(self):
        """Uniform reservoir sampling keeps percentiles representative."""
        recorder = LatencyRecorder(reservoir_size=500)
        for value in range(20_000):
            recorder.record(float(value))
        # p50 of 0..19999 is ~10000; a 500-sample reservoir should land
        # within a few percent of it.
        assert abs(recorder.percentile(50) - 10_000) < 2_000
        assert recorder.percentile(0) < recorder.percentile(99)

    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.mean_us == 0.0
        assert recorder.percentile(50) == 0.0

    @staticmethod
    def _state(recorder):
        return (
            recorder.count,
            recorder.total_us,
            recorder.max_us,
            recorder.samples(),
            recorder._rng.getstate(),
        )

    @given(
        batches=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40), max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_record_many_is_record_in_order(self, batches, seed):
        """One batch call == one record() per element, across the bound:
        same running float sum, same reservoir, same RNG state."""
        batched = LatencyRecorder(reservoir_size=16, seed=seed)
        single = LatencyRecorder(reservoir_size=16, seed=seed)
        for batch in batches:
            batched.record_many(batch)
            for value in batch:
                single.record(value)
            assert self._state(batched) == self._state(single)
            assert batched.percentile(99) == single.percentile(99)

    def test_reservoir_draw_is_randrange(self):
        """The unrolled ``getrandbits`` draw is ``Random.randrange(count)``.

        Percentiles are digest-pinned, so a CPython change to how
        ``randrange`` consumes the generator must fail here, not there.
        """
        size, seed, total = 1000, 0x1A7E, 301_000
        reference_rng = random.Random(seed)
        reference = [float(value) for value in range(size)]
        for count in range(size + 1, total + 1):
            slot = reference_rng.randrange(count)
            if slot < size:
                reference[slot] = float(count - 1)
        recorder = LatencyRecorder(reservoir_size=size, seed=seed)
        half = total // 2
        for value in range(half):
            recorder.record(float(value))
        recorder.record_many([float(value) for value in range(half, total)])
        assert recorder.samples() == reference
        assert recorder._rng.getstate() == reference_rng.getstate()


class TestSSDStats:
    def test_write_amplification(self):
        stats = SSDStats()
        stats.host_write_pages = 100
        stats.data_page_writes = 100
        stats.gc_page_writes = 30
        stats.translation_page_writes = 10
        assert stats.write_amplification == pytest.approx(1.4)

    def test_misprediction_ratio(self):
        stats = SSDStats()
        stats.flash_reads_for_host = 200
        stats.mispredictions = 20
        assert stats.misprediction_ratio == pytest.approx(0.1)

    def test_cache_hit_ratio(self):
        stats = SSDStats()
        stats.cache_hits = 30
        stats.buffer_hits = 20
        stats.flash_reads_for_host = 50
        assert stats.cache_hit_ratio == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = snapshot_stats(SSDStats(), "ssd")
        for key in ("mean_latency_us", "write_amplification", "misprediction_ratio"):
            assert f"ssd.{key}" in summary
