"""Out-of-band (OOB) metadata model.

Every flash page carries a small spare area (128-256 bytes in modern SSDs).
LeaFTL uses it for two purposes (Section 3.5, Figure 11):

* the *reverse mapping* of the page itself (``lpa``), used by any FTL to
  verify translations and to rebuild the mapping table after a crash, and
* the reverse mappings of the page's *neighbour* PPAs within the error bound
  ``[-gamma, +gamma]``, so that a mispredicted lookup can be corrected with
  the single flash read it already performed instead of up to ``log(gamma)``
  additional reads.

The simulator stores OOB contents as plain Python integers; the byte budget
is enforced so that a configuration whose ``gamma`` does not fit in the OOB
is rejected, exactly like real hardware would force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Bytes used to store one reverse-mapping entry (a 4-byte LPA).
LPA_ENTRY_BYTES = 4


@dataclass(slots=True)
class OOBArea:
    """The OOB contents of a single flash page.

    Attributes
    ----------
    lpa:
        Reverse mapping of the page itself (``None`` for an unwritten page).
    neighbor_lpas:
        ``2 * gamma + 1`` entries holding the LPAs of the PPAs in
        ``[ppa - gamma, ppa + gamma]`` at the time the page was written.
        Index ``gamma`` corresponds to the page itself.  An entry is
        ``None`` for a PPA off the array or FREE at program time.  The
        window does not stop at the page's own block: near a block edge it
        names the neighbouring block's LPAs as they were at program time,
        and those go stale once that block is erased and reprogrammed.
    """

    lpa: Optional[int] = None
    neighbor_lpas: List[Optional[int]] = field(default_factory=list)


def max_neighbor_entries(oob_size: int) -> int:
    """How many reverse-mapping entries fit in an OOB area of ``oob_size``."""
    return oob_size // LPA_ENTRY_BYTES


def required_oob_bytes(gamma: int) -> int:
    """OOB bytes needed for the reverse-mapping window of ``gamma``.

    The page's own reverse mapping is always stored (4 bytes); the window
    adds the ``2 * gamma`` neighbours, so the total is
    ``(2 * gamma + 1) * 4`` bytes.  With a 128-byte OOB this admits
    ``gamma`` up to 15 (124 bytes); ``gamma = 16`` needs 132 bytes and
    requires a 256-byte spare area.
    """
    return (2 * gamma + 1) * LPA_ENTRY_BYTES


def validate_gamma_fits_oob(gamma: int, oob_size: int) -> None:
    """Raise ``ValueError`` if the neighbour window cannot fit in the OOB."""
    if required_oob_bytes(gamma) > oob_size:
        raise ValueError(
            f"gamma={gamma} needs {required_oob_bytes(gamma)} OOB bytes for the "
            f"reverse-mapping window but only {oob_size} are available"
        )
