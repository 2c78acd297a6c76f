"""SSD configuration used across the simulator.

The default values mirror Table 1 of the LeaFTL paper (ASPLOS 2023):

=====================  ==========
Parameter              Value
=====================  ==========
Capacity               2 TB
Flash page size        4 KB
DRAM size              1 GB
Read latency           20 us
Channels               16
OOB size               128 B
Pages per block        256
Write latency          200 us
Erase latency          1.5 ms
Overprovisioning       20 %
=====================  ==========

The paper's real-SSD prototype (Section 3.9: 1 TB, 16 KB pages) is not
modelled; :meth:`SSDConfig.paper_simulator` is the Table 1 device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

#: Microseconds per second, used when converting latencies.
US_PER_S = 1_000_000


@dataclass(frozen=True)
class SSDConfig:
    """Immutable description of the simulated SSD hardware.

    All sizes are in bytes and all latencies in microseconds.  Derived
    quantities (page counts, block counts, ...) are exposed as properties
    so that a configuration stays internally consistent when a field is
    overridden via :meth:`scaled`.
    """

    #: Usable (logical) capacity exposed to the host, in bytes.
    capacity_bytes: int = 2 * TB
    #: Flash page size in bytes.
    page_size: int = 4 * KB
    #: Number of flash pages in one flash block.
    pages_per_block: int = 256
    #: Number of independent flash channels.
    channels: int = 16
    #: Flash dies per channel; programs/erases on different dies overlap, so
    #: a program only occupies its channel for ``write_latency / dies``.
    dies_per_channel: int = 8
    #: Out-of-band metadata bytes available per flash page.
    oob_size: int = 128
    #: DRAM available to the controller (mapping table + data cache), bytes.
    dram_size: int = 1 * GB
    #: Fraction of raw capacity reserved as over-provisioning space.
    overprovisioning: float = 0.20
    #: Flash page read latency (microseconds).
    read_latency_us: float = 20.0
    #: Flash page program latency (microseconds).
    write_latency_us: float = 200.0
    #: Flash block erase latency (microseconds).
    erase_latency_us: float = 1500.0
    #: DRAM access latency used for cache hits (microseconds).
    dram_latency_us: float = 1.0
    #: Size of the controller write buffer used to batch flash programs.
    write_buffer_bytes: int = 8 * MB
    #: GC is triggered when the free-block ratio drops below this threshold.
    gc_threshold: float = 0.15
    #: GC stops once the free-block ratio is restored above this level.
    gc_restore: float = 0.25
    #: Maximum host commands the device keeps outstanding (NCQ depth).  The
    #: effective replay concurrency is ``min(ncq_depth, options.queue_depth)``.
    ncq_depth: int = 32

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.page_size <= 0 or self.page_size % 512:
            raise ValueError("page_size must be a positive multiple of 512")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.dies_per_channel <= 0:
            raise ValueError("dies_per_channel must be positive")
        if not 0.0 <= self.overprovisioning < 1.0:
            raise ValueError("overprovisioning must be in [0, 1)")
        if not 0.0 < self.gc_threshold < self.gc_restore <= 1.0:
            raise ValueError("require 0 < gc_threshold < gc_restore <= 1")
        if self.ncq_depth <= 0:
            raise ValueError("ncq_depth must be positive")
        for name in ("read_latency_us", "write_latency_us", "erase_latency_us", "dram_latency_us"):
            latency = getattr(self, name)
            # A NaN latency would poison every clock comparison downstream.
            if not (math.isfinite(latency) and latency > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {latency!r}")
        for name in ("dram_size", "write_buffer_bytes", "oob_size"):
            size = getattr(self, name)
            if size <= 0:
                raise ValueError(f"{name} must be positive, got {size!r}")

    # ------------------------------------------------------------------ #
    # Derived geometry
    # ------------------------------------------------------------------ #
    @property
    def block_size(self) -> int:
        """Bytes in one flash block."""
        return self.page_size * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Number of logical pages (LPAs) exposed to the host."""
        return self.capacity_bytes // self.page_size

    @property
    def physical_pages(self) -> int:
        """Number of physical flash pages, including over-provisioning."""
        raw = int(self.capacity_bytes / (1.0 - self.overprovisioning))
        pages = raw // self.page_size
        # Round up to an integer number of blocks per channel.
        pages_per_channel = -(-pages // self.channels)
        blocks_per_channel = -(-pages_per_channel // self.pages_per_block)
        return blocks_per_channel * self.pages_per_block * self.channels

    @property
    def total_blocks(self) -> int:
        """Total number of flash blocks in the device."""
        return self.physical_pages // self.pages_per_block

    @property
    def blocks_per_channel(self) -> int:
        """Flash blocks attached to each channel."""
        return self.total_blocks // self.channels

    @property
    def pages_per_channel(self) -> int:
        """Physical pages attached to each channel."""
        return self.blocks_per_channel * self.pages_per_block

    @property
    def write_buffer_pages(self) -> int:
        """Number of flash pages that fit in the controller write buffer."""
        return max(1, self.write_buffer_bytes // self.page_size)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_simulator(cls) -> "SSDConfig":
        """The Table 1 simulator configuration (2 TB, 4 KB pages, 1 GB DRAM)."""
        return cls()

    @classmethod
    def small(cls) -> "SSDConfig":
        """A laptop-scale configuration for tests and examples.

        4 GB capacity keeps trace replay fast while preserving the same
        geometry ratios (16 channels, 256 pages/block) as the paper's setup.
        """
        return cls(
            capacity_bytes=4 * GB,
            page_size=4 * KB,
            pages_per_block=256,
            channels=16,
            dram_size=16 * MB,
            write_buffer_bytes=1 * MB,
        )

    @classmethod
    def tiny(cls) -> "SSDConfig":
        """A minimal configuration for unit tests (256 MB, 4 channels)."""
        return cls(
            capacity_bytes=256 * MB,
            page_size=4 * KB,
            pages_per_block=64,
            channels=4,
            dram_size=2 * MB,
            write_buffer_bytes=256 * KB,
        )


@dataclass(frozen=True)
class LeaFTLConfig:
    """Tunables of the learned mapping table.

    The paper sets ``gamma = 0`` by default (Section 3.9) and evaluates
    gamma in {0, 1, 4, 16} in the sensitivity analysis (Figures 19-21).
    """

    #: Error bound of approximate segments (gamma in the paper).
    gamma: int = 0
    #: Number of contiguous LPAs per group (Section 3.2 uses 256).
    group_size: int = 256
    #: Compact the mapping table after this many host writes (Section 3.7).
    compaction_interval_writes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.group_size <= 0 or self.group_size > 256:
            raise ValueError("group_size must be in (0, 256] to fit 1-byte offsets")
        if self.compaction_interval_writes <= 0:
            raise ValueError("compaction_interval_writes must be positive")


@dataclass
class DRAMBudget:
    """How the controller DRAM is split between mapping table and data cache.

    Figure 16 of the paper evaluates two policies:

    * ``mapping_first`` — the mapping table may consume (almost) all DRAM;
      whatever is left goes to the data cache.
    * ``cache_reserved`` — at least ``reserved_cache_fraction`` of DRAM is
      always kept for the data cache (the paper reserves 20 %).
    """

    dram_bytes: int
    policy: str = "mapping_first"
    reserved_cache_fraction: float = 0.20
    #: Minimum data-cache size in bytes regardless of the policy.
    min_cache_bytes: int = 64 * KB

    def __post_init__(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError("dram_bytes must be positive")
        if self.policy not in ("mapping_first", "cache_reserved"):
            raise ValueError("policy must be 'mapping_first' or 'cache_reserved'")
        if not 0.0 <= self.reserved_cache_fraction < 1.0:
            raise ValueError("reserved_cache_fraction must be in [0, 1)")

    def cache_bytes(self, mapping_bytes: int) -> int:
        """Data-cache capacity given the current mapping-table footprint."""
        if self.policy == "cache_reserved":
            reserved = int(self.dram_bytes * self.reserved_cache_fraction)
        else:
            reserved = 0
        available = self.dram_bytes - mapping_bytes
        return max(self.min_cache_bytes, max(reserved, available))

    def mapping_budget(self) -> int:
        """Maximum bytes the mapping table may occupy under this policy."""
        if self.policy == "cache_reserved":
            return max(0, int(self.dram_bytes * (1.0 - self.reserved_cache_fraction)))
        return max(0, self.dram_bytes - self.min_cache_bytes)
