"""Flash geometry: the layout of physical page addresses.

A physical page address (PPA) is a dense integer in ``[0, physical_pages)``.
Pages are laid out block-major within a channel so that consecutive PPAs
inside one block stay on the same channel — this matches how the write
buffer flushes a whole flash block worth of pages to a single active block
(Section 3.3 of the paper), and is what makes learned segments possible:
consecutive PPAs within a block are handed to contiguous, LPA-sorted host
pages.
"""

from __future__ import annotations

from repro.config import SSDConfig


class FlashGeometry:
    """Address arithmetic for a multi-channel flash array.

    The PPA layout is::

        ppa = channel * pages_per_channel + block_in_channel * pages_per_block + page

    so that one flash block occupies a contiguous PPA range, and blocks of
    the same channel occupy a contiguous range of (global) block ids.  The
    methods are pure arithmetic: :class:`repro.flash.flash_array.FlashArray`
    range-checks every PPA and block id where it indexes its state.
    """

    def __init__(self, config: SSDConfig) -> None:
        self._pages_per_block = config.pages_per_block
        self._blocks_per_channel = config.blocks_per_channel
        self._channels = config.channels
        self._total_pages = config.physical_pages
        self._total_blocks = config.total_blocks

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

    def block_to_channel(self, block: int) -> int:
        """Channel that hosts global block ``block``."""
        return block // self._blocks_per_channel

    def first_ppa_of_block(self, block: int) -> int:
        """The first (lowest) PPA inside global block ``block``."""
        return block * self._pages_per_block
