#!/usr/bin/env python3
"""Multi-page commands: batched translation, striped issue, open-loop replay.

Run with::

    python examples/multi_page_commands.py

Three demonstrations on a small LeaFTL device:

1. **Batched translation** — a contiguous 8-page read is resolved by a
   single learned segment (`FTL.translate_range`), so the lookup
   counter grows by 1 where the old per-page path charged 8.

2. **Striped NAND issue** — the pages of one multi-page command are split
   into per-channel chunks and issued concurrently through the NAND
   scheduler, so a read striped over k channels completes in roughly one
   flash read time instead of k.  The table compares issuing the same span
   as one multi-page command vs. as single-page commands back to back.

3. **Open-loop replay** — requests are admitted at their trace timestamps
   (scaled by ``run(time_scale=)``) whether or not earlier requests
   completed, so latency is measured against *arrival* times.  Tightening
   the inter-arrival spacing pushes the device past saturation and the
   backlog (max outstanding) grows.
"""

from __future__ import annotations

from repro.config import DRAMBudget, LeaFTLConfig, SSDConfig
from repro.core.leaftl import LeaFTL
from repro.ssd.ssd import SimulatedSSD
from repro.workloads.trace import IORequest, Trace


def build_ssd() -> SimulatedSSD:
    config = SSDConfig.tiny()
    ftl = LeaFTL(LeaFTLConfig(gamma=4, compaction_interval_writes=50_000))
    return SimulatedSSD(
        config,
        ftl,
        dram_budget=DRAMBudget(dram_bytes=config.dram_size),
    )


def fill(ssd: SimulatedSSD, footprint: int) -> None:
    for lpa in range(0, footprint, 64):
        ssd.submit("W", lpa, 64)
    ssd.flush()


def demo_batched_translation() -> None:
    print("=== 1. batched translation: one segment resolution per run ===")
    ssd = build_ssd()
    fill(ssd, footprint=8192)
    lpa = 512
    before = ssd.ftl.stats.lookups
    ppas = ssd.ftl.translate_range(lpa, 8)
    print(f"translate_range({lpa}, 8): resolved {sum(ppa is not None for ppa in ppas)}"
          f"/8 pages, lookup counter grew by {ssd.ftl.stats.lookups - before} (not 8)")


def demo_striped_issue() -> None:
    print("\n=== 2. striped issue: one k-channel command vs k serial commands ===")
    # The write path fills one 64-page flash block per buffer flush and the
    # allocator rotates channels per block, so a span crossing 4 block
    # boundaries is striped over the tiny config's 4 channels.
    span = 256
    header = f"{'issue style':>28} {'completion us':>14}"
    print(header)
    print("-" * len(header))
    for label, requests in (
        ("1 multi-page command", [("R", 0, span)]),
        ("serial single-page", [("R", lpa, 1) for lpa in range(span)]),
    ):
        ssd = build_ssd()
        fill(ssd, footprint=8192)
        # Drop DRAM copies so every page really goes to flash.
        for lpa in range(span):
            ssd.cache.invalidate(lpa)
        start = ssd.now_us
        for op, lpa, npages in requests:
            ssd.submit(op, lpa, npages)
        print(f"{label:>28} {ssd.now_us - start:>14.1f}")


def demo_open_loop() -> None:
    print("\n=== 3. open-loop replay: latency vs arrival time ===")
    header = (f"{'interarrival us':>16} {'read mean us':>13} "
              f"{'read p99 us':>12} {'max outstanding':>16}")
    print(header)
    print("-" * len(header))
    for interarrival in (100.0, 25.0, 10.0, 2.0):
        ssd = build_ssd()
        fill(ssd, footprint=50_000)
        ssd.begin_measurement()
        requests = [
            IORequest("R", (lpa * 97) % 50_000, 4, timestamp_us=i * interarrival)
            for i, lpa in enumerate(range(2000))
        ]
        stats = ssd.run(Trace("open-loop", requests), replay_mode="open")
        print(f"{interarrival:>16.1f} {stats.read_latency.mean_us:>13.1f} "
              f"{stats.read_latency.percentile(99):>12.1f} "
              f"{stats.max_outstanding_requests:>16d}")


def main() -> None:
    demo_batched_translation()
    demo_striped_issue()
    demo_open_loop()


if __name__ == "__main__":
    main()
