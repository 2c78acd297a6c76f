"""Out-of-band (OOB) metadata: the byte budget of the reverse-mapping window.

Every flash page carries a small spare area (128-256 bytes in modern SSDs).
LeaFTL uses it for two purposes (Section 3.5, Figure 11):

* the *reverse mapping* of the page itself (its LPA), used by any FTL to
  verify translations and to rebuild the mapping table after a crash, and
* the reverse mappings of the page's *neighbour* PPAs within the error bound
  ``[-gamma, +gamma]``, so that a mispredicted lookup can be corrected with
  the single flash read it already performed instead of up to ``log(gamma)``
  additional reads.

The contents live in the flash array, which hands a page's window out as an
``array('q')`` of LPAs (:meth:`repro.flash.flash_array.FlashArray.oob_window_of`).
This module sizes it: a configuration whose ``gamma`` does not fit in the
OOB is rejected, exactly like real hardware would force.
"""

from __future__ import annotations

#: Bytes used to store one reverse-mapping entry (a 4-byte LPA).
LPA_ENTRY_BYTES = 4


def required_oob_bytes(gamma: int) -> int:
    """OOB bytes needed for the reverse-mapping window of ``gamma``.

    The page's own reverse mapping is always stored (4 bytes); the window
    adds the ``2 * gamma`` neighbours, so the total is
    ``(2 * gamma + 1) * 4`` bytes.  With a 128-byte OOB this admits
    ``gamma`` up to 15 (124 bytes); ``gamma = 16`` needs 132 bytes and
    requires a 256-byte spare area.
    """
    return (2 * gamma + 1) * LPA_ENTRY_BYTES


def oob_size_for_gamma(gamma: int) -> int:
    """Smallest standard spare-area size (128, 256, ... bytes) fitting gamma.

    The common 128-byte spare covers gamma <= 15 and gamma = 16 (Figure
    19's largest sweep point) needs a 256-byte spare, so each gamma runs
    on the cheapest spare that can actually hold its OOB payload.
    """
    size = 128
    while required_oob_bytes(gamma) > size:
        size *= 2
    return size


def validate_gamma_fits_oob(gamma: int, oob_size: int) -> None:
    """Raise ``ValueError`` if the neighbour window cannot fit in the OOB."""
    if required_oob_bytes(gamma) > oob_size:
        raise ValueError(
            f"gamma={gamma} needs {required_oob_bytes(gamma)} OOB bytes for the "
            f"reverse-mapping window but only {oob_size} are available"
        )
