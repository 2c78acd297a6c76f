"""Tests for the LRU data cache and the controller write buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ssd.cache import LRUDataCache
from repro.ssd.write_buffer import WriteBuffer


class TestLRUDataCache:
    def test_hit_and_miss_accounting(self):
        cache = LRUDataCache(capacity_pages=2)
        assert not cache.lookup(1)
        cache.insert(1)
        assert cache.lookup(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = LRUDataCache(capacity_pages=2)
        cache.insert(1)
        cache.insert(2)
        cache.lookup(1)          # 1 becomes most recently used
        cache.insert(3)
        assert list(cache) == [1, 3]
        assert cache.stats.evictions == 1

    def test_resize_shrink_evicts_lru_first(self):
        cache = LRUDataCache(capacity_pages=4)
        for lpa in range(4):
            cache.insert(lpa)
        cache.resize(2)
        assert list(cache) == [2, 3]
        assert cache.stats.evictions == 2

    def test_zero_capacity_never_stores(self):
        cache = LRUDataCache(capacity_pages=0)
        cache.insert(1)
        assert not cache.lookup(1)
        assert len(cache) == 0

    def test_invalidate(self):
        cache = LRUDataCache(capacity_pages=2)
        cache.insert(7)
        assert cache.invalidate(7)
        assert not cache.invalidate(7)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=300), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, accesses, capacity):
        cache = LRUDataCache(capacity_pages=capacity)
        for lpa in accesses:
            if not cache.lookup(lpa):
                cache.insert(lpa)
            assert len(cache) <= capacity

    @given(
        st.integers(min_value=0, max_value=6),
        st.lists(
            st.one_of(
                st.tuples(st.just("lookup"), st.integers(0, 12)),
                st.tuples(st.just("insert_many"), st.lists(st.integers(0, 12), max_size=10)),
                st.tuples(st.just("resize"), st.integers(0, 6)),
                st.tuples(st.just("invalidate"), st.integers(0, 12)),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_plain_list_kept_in_recency_order(self, capacity, program):
        """Same hit / miss answers, same residents in the same order and the
        same four counters as a list whose head is the LRU page."""
        cache = LRUDataCache(capacity_pages=capacity)
        model, counted = [], {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}

        def trim():
            while len(model) > capacity:
                model.pop(0)
                counted["evictions"] += 1

        for operation, argument in program:
            if operation == "lookup":
                hit = argument in model
                assert cache.lookup(argument) is hit
                counted["hits" if hit else "misses"] += 1
                if hit:
                    model.remove(argument)
                    model.append(argument)
            elif operation == "insert_many":
                cache.insert_many(argument)
                for lpa in argument if capacity else ():
                    if lpa in model:
                        model.remove(lpa)
                    else:
                        counted["insertions"] += 1
                    model.append(lpa)
                    trim()
            elif operation == "resize":
                cache.resize(argument)
                capacity = argument
                trim()
            else:
                assert cache.invalidate(argument) is (argument in model)
                if argument in model:
                    model.remove(argument)
            assert list(cache) == model
            assert cache.capacity_pages == capacity
        stats = cache.stats
        assert counted == {
            "hits": stats.hits,
            "misses": stats.misses,
            "insertions": stats.insertions,
            "evictions": stats.evictions,
        }


class TestWriteBuffer:
    def test_add_and_drain_sorted(self):
        buffer = WriteBuffer(capacity_pages=8)
        for lpa in (78, 32, 33, 76, 115, 34, 38):
            buffer.add(lpa)
        assert buffer.drain() == [32, 33, 34, 38, 76, 78, 115]
        assert len(buffer) == 0

    def test_unsorted_drain_preserves_arrival_order(self):
        buffer = WriteBuffer(capacity_pages=8, sort_on_flush=False)
        order = [78, 32, 33, 76, 115, 34, 38]
        for lpa in order:
            buffer.add(lpa)
        assert buffer.drain() == order

    def test_overwrite_absorbed(self):
        buffer = WriteBuffer(capacity_pages=4)
        buffer.add(5)
        buffer.add(5)
        assert len(buffer) == 1
        assert buffer.stats.overwrites == 1

    def test_is_full(self):
        buffer = WriteBuffer(capacity_pages=2)
        buffer.add(1)
        assert not buffer.is_full
        buffer.add(2)
        assert buffer.is_full

    def test_membership(self):
        buffer = WriteBuffer(capacity_pages=4)
        buffer.add(9)
        assert 9 in buffer and 1 not in buffer

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity_pages=0)

    def test_draining_empty_buffer_is_not_a_flush(self):
        buffer = WriteBuffer(capacity_pages=4)
        assert buffer.drain() == []
        assert buffer.stats.flushes == 0
        assert buffer.stats.pages_flushed == 0

    def test_drain_empties_the_buffer_and_counts_one_flush(self):
        buffer = WriteBuffer(capacity_pages=16)
        for lpa in (9, 3, 12, 1, 7, 3):
            buffer.add(lpa)
        assert buffer.drain() == [1, 3, 7, 9, 12]
        assert len(buffer) == 0 and 9 not in buffer
        buffer.add(1)               # no longer buffered: not an overwrite
        assert buffer.drain() == [1]
        assert buffer.stats.flushes == 2
        assert buffer.stats.pages_flushed == 6
        assert (buffer.stats.writes, buffer.stats.overwrites) == (7, 1)
