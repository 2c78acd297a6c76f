"""Flash block allocation with hot/cold write-stream separation.

The allocator owns the free-block pool and hands out *active* blocks that the
write path programs sequentially.  Three properties matter for LeaFTL:

* a flush of the LPA-sorted write buffer receives **consecutive PPAs** inside
  one (or a few) freshly allocated blocks, which is what lets the piecewise
  linear regression learn long segments (Section 3.3 of the paper);
* allocation is wear-aware: among free blocks of the chosen channel the one
  with the lowest erase count is preferred, supporting wear leveling;
* writes are tagged with a **stream**: host data ("hot") and GC/wear-leveling
  migrations ("cold") land in separate open blocks, so short-lived host pages
  never share a block with long-lived migrated pages.  Each stream keeps its
  open block across flushes and fills it to the end before opening another,
  which both avoids wasting the tail of partially-filled blocks and gives
  GC victims a coherent lifetime profile (the separation that makes
  cost-benefit victim selection meaningful).

The allocator also tracks which blocks are candidates for garbage collection
(fully programmed, not free, not currently active).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.flash.flash_array import FlashArray

#: Write streams recognised by the allocator.  Host writes are "hot";
#: GC and wear-leveling migrations are "cold".
STREAMS = ("hot", "cold")


class OutOfSpaceError(RuntimeError):
    """Raised when no free block can satisfy an allocation request."""


@dataclass
class AllocationStats:
    """Counters describing allocator activity."""

    blocks_allocated: int = 0
    blocks_reclaimed: int = 0


class BlockAllocator:
    """Round-robin, wear-aware free block allocator with write streams."""

    def __init__(self, flash: FlashArray) -> None:
        self._flash = flash
        self._geometry = flash.geometry
        channels = self._geometry.channels
        # Insertion-ordered pools (dict keys, values unused): iteration order
        # is the deterministic insert history, never hash-table layout —
        # allocation decisions made by iterating these structures are
        # bit-reproducible across runs and Python builds (simlint SIM003).
        self._free_blocks: List[Dict[int, None]] = [{} for _ in range(channels)]
        self._active_blocks: Dict[int, None] = {}
        #: Open (partially programmed, still active) block of each stream.
        self._stream_blocks: Dict[str, int] = {}
        self._next_channel = 0
        self.stats = AllocationStats()

        for block in range(self._geometry.total_blocks):
            channel = self._geometry.block_to_channel(block)
            self._free_blocks[channel][block] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_blocks(self) -> int:
        return self._geometry.total_blocks

    def free_block_count(self) -> int:
        """Number of blocks currently in the free pool."""
        return sum(len(pool) for pool in self._free_blocks)

    def free_ratio(self) -> float:
        """Fraction of all blocks that are free."""
        return self.free_block_count() / self._geometry.total_blocks

    def is_active(self, block: int) -> bool:
        return block in self._active_blocks

    def stream_block(self, stream: str) -> Optional[int]:
        """The stream's currently open block, or ``None``."""
        return self._stream_blocks.get(stream)

    def gc_candidates(self) -> List[int]:
        """Blocks eligible for garbage collection.

        A block is a candidate when it has been (fully or partially)
        programmed, is not in the free pool and is not an active block that
        the write path is still filling.
        """
        candidates = []
        for block in range(self._geometry.total_blocks):
            if block in self._active_blocks:
                continue
            # A free-pool block is erased (``release_block`` insists), so
            # the write-pointer test excludes the free pool as well.
            if self._flash.write_pointer(block) == 0:
                continue
            candidates.append(block)
        return candidates

    # ------------------------------------------------------------------ #
    # Allocation / reclamation
    # ------------------------------------------------------------------ #
    def allocate_block(
        self, channel: Optional[int] = None, stream: Optional[str] = None
    ) -> int:
        """Take a block out of the free pool and mark it active.

        When ``channel`` is ``None`` the allocator places the block by
        stream: the hot (host) stream rotates across channels to spread
        programs — and therefore later reads — over the whole array, while
        the cold (migration) stream asks the NAND scheduler for the
        least-busy channel so background traffic contends as little as
        possible with foreground reads.  Within the chosen channel the
        least-worn free block is returned.
        """
        channels = self._geometry.channels
        order: List[int]
        if channel is not None:
            order = [channel]
        elif stream == "cold":
            with_free = [ch for ch in range(channels) if self._free_blocks[ch]]
            if not with_free:
                raise OutOfSpaceError("no free flash block available")
            best = self._flash.scheduler.least_busy_channel(with_free)
            order = [best] + [ch for ch in with_free if ch != best]
        else:
            order = [(self._next_channel + i) % channels for i in range(channels)]
            self._next_channel = (self._next_channel + 1) % channels

        for ch in order:
            pool = self._free_blocks[ch]
            if not pool:
                continue
            # Least-worn block; erase-count ties break to the lowest block id
            # (an explicit total order — tie-breaking must never fall back to
            # container iteration order, which is what made the old set-based
            # pools fragile).
            block = min(pool, key=lambda b: (self._flash.erase_count(b), b))
            del pool[block]
            self._active_blocks[block] = None
            self.stats.blocks_allocated += 1
            return block
        raise OutOfSpaceError("no free flash block available")

    def frontier(self, stream: str) -> Tuple[int, int, int]:
        """The stream's programming frontier: ``(block, next_ppa, room)``.

        Returns the open block of ``stream``, the PPA of its next free page
        and the number of pages left in it, opening a fresh block when the
        stream has none or the current one is full.  The write path programs
        ``room``-bounded chunks at the frontier, which keeps the consecutive
        PPA property learned segments depend on while filling every block to
        the end.
        """
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}; known: {STREAMS}")
        block = self._stream_blocks.get(stream)
        if block is None or self._flash.block_is_full(block):
            if block is not None:
                self.seal_block(block)
                self._stream_blocks.pop(stream, None)
            block = self.allocate_block(stream=stream)
            self._stream_blocks[stream] = block
        pointer = self._flash.write_pointer(block)
        next_ppa = self._geometry.first_ppa_of_block(block) + pointer
        return block, next_ppa, self._geometry.pages_per_block - pointer

    def seal_if_full(self, block: int) -> None:
        """Seal ``block`` (and release its stream slot) once fully written."""
        if not self._flash.block_is_full(block):
            return
        self.seal_block(block)
        for stream, open_block in list(self._stream_blocks.items()):
            if open_block == block:
                del self._stream_blocks[stream]

    def seal_block(self, block: int) -> None:
        """Mark an active block as fully written (no longer active)."""
        self._active_blocks.pop(block, None)

    def release_block(self, block: int) -> None:
        """Return an erased block to the free pool (after GC erase)."""
        if not self._flash.block_is_free(block):
            raise ValueError(f"block {block} is not erased; cannot release")
        channel = self._geometry.block_to_channel(block)
        self._active_blocks.pop(block, None)
        for stream, open_block in list(self._stream_blocks.items()):
            if open_block == block:  # pragma: no cover - defensive
                del self._stream_blocks[stream]
        self._free_blocks[channel][block] = None
        self.stats.blocks_reclaimed += 1

    # ------------------------------------------------------------------ #
    # Power-fail recovery
    # ------------------------------------------------------------------ #
    def rebuild_from_flash(self) -> None:
        """Re-derive every pool from durable flash state after a power loss.

        The free pool, the active set and the open stream blocks are all
        DRAM state; after a crash only the flash substrate is trustworthy.
        Erased blocks (write pointer 0, no valid pages) return to the free
        pool in block order — the same deterministic insert history a fresh
        allocator would build.  Every programmed block, including a block a
        stream left partially filled, comes back *sealed*: NAND open-block
        rules make appending to a partially programmed block after power
        loss unsafe, so recovery writes start on fresh blocks and GC
        reclaims the partial ones.
        """
        for pool in self._free_blocks:
            pool.clear()
        self._active_blocks.clear()
        self._stream_blocks.clear()
        self._next_channel = 0
        for block in range(self._geometry.total_blocks):
            if self._flash.block_is_free(block):
                channel = self._geometry.block_to_channel(block)
                self._free_blocks[channel][block] = None

    # ------------------------------------------------------------------ #
    # Wear statistics
    # ------------------------------------------------------------------ #
    def wear_imbalance(self) -> float:
        """Max-minus-min erase count across all blocks (0 = perfectly even)."""
        counts = self._flash.erase_counts()
        return float(max(counts) - min(counts)) if counts else 0.0
