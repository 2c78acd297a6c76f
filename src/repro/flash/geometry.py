"""Flash geometry: translating physical page addresses to device coordinates.

A physical page address (PPA) is a dense integer in ``[0, physical_pages)``.
The geometry maps it to a ``(channel, block, page)`` triple.  Pages are laid
out block-major within a channel so that consecutive PPAs inside one block
stay on the same channel — this matches how the write buffer flushes a whole
flash block worth of pages to a single active block (Section 3.3 of the
paper), and is what makes learned segments possible: consecutive PPAs within
a block are handed to contiguous, LPA-sorted host pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.config import SSDConfig


@dataclass(frozen=True)
class PageAddress:
    """A decomposed physical page address."""

    channel: int
    block: int
    page: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.channel, self.block, self.page)


class FlashGeometry:
    """Address arithmetic for a multi-channel flash array.

    The PPA layout is::

        ppa = channel * pages_per_channel + block_in_channel * pages_per_block + page

    so that one flash block occupies a contiguous PPA range, and blocks of
    the same channel occupy a contiguous range of blocks.
    """

    def __init__(self, config: SSDConfig) -> None:
        self._config = config
        self._pages_per_block = config.pages_per_block
        self._blocks_per_channel = config.blocks_per_channel
        self._pages_per_channel = config.pages_per_channel
        self._channels = config.channels
        self._total_pages = config.physical_pages
        self._total_blocks = config.total_blocks

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SSDConfig:
        return self._config

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    @property
    def pages_per_block(self) -> int:
        return self._pages_per_block

    @property
    def channels(self) -> int:
        return self._channels

    @property
    def blocks_per_channel(self) -> int:
        return self._blocks_per_channel

    # ------------------------------------------------------------------ #
    # PPA <-> coordinates
    # ------------------------------------------------------------------ #
    def decompose(self, ppa: int) -> PageAddress:
        """Split a PPA into its (channel, block, page) coordinates.

        ``block`` is a global block id (unique across channels).
        """
        self._check_ppa(ppa)
        channel = ppa // self._pages_per_channel
        within = ppa % self._pages_per_channel
        block_in_channel = within // self._pages_per_block
        page = within % self._pages_per_block
        block = channel * self._blocks_per_channel + block_in_channel
        return PageAddress(channel=channel, block=block, page=page)

    def compose(self, channel: int, block_in_channel: int, page: int) -> int:
        """Build a PPA from channel-local coordinates."""
        if not 0 <= channel < self._channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= block_in_channel < self._blocks_per_channel:
            raise ValueError(f"block {block_in_channel} out of range")
        if not 0 <= page < self._pages_per_block:
            raise ValueError(f"page {page} out of range")
        return (
            channel * self._pages_per_channel
            + block_in_channel * self._pages_per_block
            + page
        )

    def block_to_channel(self, block: int) -> int:
        """Channel that hosts global block ``block``."""
        self._check_block(block)
        return block // self._blocks_per_channel

    def first_ppa_of_block(self, block: int) -> int:
        """The first (lowest) PPA inside global block ``block``."""
        self._check_block(block)
        channel = block // self._blocks_per_channel
        block_in_channel = block % self._blocks_per_channel
        return self.compose(channel, block_in_channel, 0)

    def ppas_of_block(self, block: int) -> Iterator[int]:
        """Iterate all PPAs of global block ``block`` in ascending order."""
        start = self.first_ppa_of_block(block)
        for offset in range(self._pages_per_block):
            yield start + offset

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def _check_ppa(self, ppa: int) -> None:
        if not 0 <= ppa < self._total_pages:
            raise ValueError(f"PPA {ppa} out of range [0, {self._total_pages})")

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self._total_blocks:
            raise ValueError(f"block {block} out of range [0, {self._total_blocks})")
