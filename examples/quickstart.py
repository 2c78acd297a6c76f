#!/usr/bin/env python3
"""Quickstart: build an SSD with LeaFTL, run a small workload, inspect results.

Run with::

    python examples/quickstart.py

The example builds a small simulated SSD with the learned FTL (gamma = 4),
writes a few access patterns (sequential, strided, random), reads them back,
and prints what the learned mapping table looks like afterwards — how many
segments were learned, how much DRAM they need compared with a page-level
table, and how the device performed.
"""

from __future__ import annotations

import random

from repro.analysis.memory import format_bytes
from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ssd.ssd import SimulatedSSD


def main() -> None:
    # 1. A laptop-sized device: 4 GB, 16 channels, 4 KB pages.
    config = SSDConfig.small()
    ftl = LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=100_000))
    ssd = SimulatedSSD(config, ftl, dram_budget=DRAMBudget(dram_bytes=config.dram_size))

    rng = random.Random(42)

    # 2. Write three access patterns the paper's Figure 1 motivates.
    print("writing: 64 MB sequential file ...")
    for lpa in range(0, 16_384, 64):
        ssd.submit("W", lpa, 64)

    print("writing: strided records (every 4th page) ...")
    for lpa in range(100_000, 140_000, 4):
        ssd.write(lpa)

    print("writing: scattered hot updates ...")
    for _ in range(20_000):
        ssd.write(200_000 + rng.randrange(50_000))

    # 3. Read everything back (a mix of the three regions).
    print("reading back ...")
    for _ in range(20_000):
        region = rng.random()
        if region < 0.4:
            ssd.read(rng.randrange(16_384))
        elif region < 0.7:
            ssd.read(100_000 + 4 * rng.randrange(10_000))
        else:
            ssd.read(200_000 + rng.randrange(50_000))
    ssd.flush()

    # 4. Inspect the learned mapping table.
    stats = ssd.stats
    table = ftl.table
    accurate, approximate = table.segment_type_counts()
    page_level_bytes = len(ssd.live_mappings()) * 8

    print("\n=== learned mapping table ===")
    print(f"segments learned        : {table.segment_count()}")
    print(f"  accurate / approximate: {accurate} / {approximate}")
    print(f"LPA groups              : {table.group_count()}")
    print(f"mapping table size      : {format_bytes(ftl.resident_bytes())}")
    print(f"page-level table size   : {format_bytes(page_level_bytes)}")
    print(f"memory reduction        : {page_level_bytes / max(1, ftl.resident_bytes()):.1f}x")

    print("\n=== device statistics ===")
    print(f"host reads / writes     : {stats.host_read_pages} / {stats.host_write_pages}")
    print(f"cache hit ratio         : {stats.cache_hit_ratio:.2%}")
    print(f"mean read latency       : {stats.read_latency.mean_us:.1f} us")
    print(f"p99 read latency        : {stats.read_latency.percentile(99):.1f} us")
    print(f"misprediction ratio     : {stats.misprediction_ratio:.2%}")
    print(f"write amplification     : {stats.write_amplification:.2f}")
    print(f"GC invocations          : {stats.gc_invocations}")


if __name__ == "__main__":
    main()
