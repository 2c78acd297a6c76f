"""SSD substrate: cache, write buffer, reclaim (GC and wear leveling) and the device model."""

from repro.ssd.cache import CacheStats, LRUDataCache
from repro.ssd.gc import (
    BackgroundGCController,
    CostBenefitGCPolicy,
    DChoicesGCPolicy,
    GC_POLICIES,
    GCPolicy,
    GreedyGCPolicy,
    make_gc_policy,
)
from repro.ssd.ssd import SimulatedSSD, SimulationError, SSDOptions
from repro.ssd.stats import LatencyRecorder, SSDStats
from repro.ssd.write_buffer import WriteBuffer, WriteBufferStats

__all__ = [
    "CacheStats",
    "LRUDataCache",
    "BackgroundGCController",
    "CostBenefitGCPolicy",
    "DChoicesGCPolicy",
    "GC_POLICIES",
    "GCPolicy",
    "GreedyGCPolicy",
    "make_gc_policy",
    "SimulatedSSD",
    "SimulationError",
    "SSDOptions",
    "LatencyRecorder",
    "SSDStats",
    "WriteBuffer",
    "WriteBufferStats",
]
