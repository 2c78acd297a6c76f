"""Flash substrate: geometry, NAND array with OOB metadata, block allocation."""

from repro.flash.allocator import BlockAllocator, OutOfSpaceError
from repro.flash.flash_array import FlashArray, FlashCounters, FlashError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.oob import (
    LPA_ENTRY_BYTES,
    oob_size_for_gamma,
    required_oob_bytes,
    validate_gamma_fits_oob,
)

__all__ = [
    "BlockAllocator",
    "OutOfSpaceError",
    "FlashArray",
    "FlashCounters",
    "FlashError",
    "PageState",
    "FlashGeometry",
    "LPA_ENTRY_BYTES",
    "oob_size_for_gamma",
    "required_oob_bytes",
    "validate_gamma_fits_oob",
]
