"""repro — a from-scratch reproduction of LeaFTL (ASPLOS 2023).

LeaFTL is a learning-based flash translation layer that replaces the
page-level address mapping table of an SSD with error-bounded learned linear
segments, shrinking the table's DRAM footprint and giving the saved memory
back to the data cache.

Public API overview
-------------------
``repro.core``
    The learned mapping table: PLR learner, segments, CRB, log-structured
    groups and the :class:`repro.core.LeaFTL` translation layer.
``repro.ftl``
    The FTL interface and the baselines (DFTL, SFTL, ideal page map).
``repro.flash`` / ``repro.ssd``
    The SSD simulator substrate (flash array, OOB, allocator, cache, write
    buffer, GC, wear leveling, the trace-driven device model).
``repro.sim``
    The event-driven engine: deterministic event loop, per-channel
    NAND scheduling and the NCQ-style host frontend used when replays run
    at ``queue_depth > 1``.
``repro.host``
    The NVMe-style multi-queue host interface above the device: namespaces
    (disjoint LPA regions with per-tenant stats/SLOs), submission queues
    with pluggable arbitration (round-robin, weighted round-robin, strict
    priority, FIFO baseline) and token-bucket QoS rate limits.
``repro.workloads``
    Trace representation, MSR/FIU-like and database-style generators, and a
    parser for original MSR-format traces.
``repro.experiments`` / ``repro.analysis``
    The harness that regenerates every figure and table of the paper.

Quick start
-----------
>>> from repro import LeaFTL, LeaFTLConfig, SSDConfig, SimulatedSSD
>>> ssd = SimulatedSSD(SSDConfig.tiny(), LeaFTL(LeaFTLConfig(gamma=4)))
>>> ssd.write(100); ssd.flush(); ssd.read(100)  # doctest: +SKIP
"""

from repro.config import (
    DRAMBudget,
    LeaFTLConfig,
    SSDConfig,
)
from repro.core import (
    LeaFTL,
    LogStructuredMappingTable,
    PLRLearner,
    Segment,
    learn_segments,
)
from repro.ftl import DFTL, FTL, PageLevelFTL, SFTL
from repro.host import (
    ARBITERS,
    HostInterface,
    Namespace,
    TokenBucket,
    make_arbiter,
)
from repro.sim import EventLoop, HostFrontend, NANDScheduler, interleave_streams
from repro.ssd import (
    GCPolicy,
    SimulatedSSD,
    SSDOptions,
    SSDStats,
    make_gc_policy,
)
from repro.workloads import IORequest, Trace

__version__ = "1.0.0"

__all__ = [
    "DRAMBudget",
    "LeaFTLConfig",
    "SSDConfig",
    "LeaFTL",
    "LogStructuredMappingTable",
    "PLRLearner",
    "Segment",
    "learn_segments",
    "DFTL",
    "FTL",
    "PageLevelFTL",
    "SFTL",
    "ARBITERS",
    "HostInterface",
    "Namespace",
    "TokenBucket",
    "make_arbiter",
    "EventLoop",
    "HostFrontend",
    "NANDScheduler",
    "interleave_streams",
    "GCPolicy",
    "make_gc_policy",
    "SimulatedSSD",
    "SSDOptions",
    "SSDStats",
    "IORequest",
    "Trace",
    "__version__",
]
