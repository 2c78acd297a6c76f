"""repro — a from-scratch reproduction of LeaFTL (ASPLOS 2023).

LeaFTL is a learning-based flash translation layer that replaces the
page-level address mapping table of an SSD with error-bounded learned linear
segments, shrinking the table's DRAM footprint and giving the saved memory
back to the data cache.

Packages
--------
Each package's ``__init__`` holds only its docstring: import a name from
the module that defines it (``from repro.core.leaftl import LeaFTL``).

``repro.core``
    The learned mapping table: PLR learner, segments, CRB, log-structured
    groups and the :class:`repro.core.leaftl.LeaFTL` translation layer.
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
>>> from repro.config import LeaFTLConfig, SSDConfig
>>> from repro.core.leaftl import LeaFTL
>>> from repro.ssd.ssd import SimulatedSSD
>>> ssd = SimulatedSSD(SSDConfig.tiny(), LeaFTL(LeaFTLConfig(gamma=4)))
>>> ssd.write(100); ssd.flush(); ssd.read(100)  # doctest: +SKIP
"""
