"""Learned index segments (Section 3.2 of the paper).

A segment is a linear model ``PPA = ceil(K * offset + I)`` covering an LPA
interval ``[S_LPA, S_LPA + L]`` inside one 256-LPA group, where ``offset`` is
the LPA's position within its group.  On the device a segment is encoded in
8 bytes:

=========  =====  =======================================================
Field      Bytes  Meaning
=========  =====  =======================================================
``S_LPA``  1      offset of the first covered LPA within its group
``L``      1      last covered LPA minus ``S_LPA`` (0 = single point)
``K``      2      slope as an IEEE float16; the least-significant bit of
                  the encoding stores the segment type (0 = accurate,
                  1 = approximate)
``I``      4      intercept
=========  =====  =======================================================

Algorithm 2 sets ``L = -1`` on a merge victim that lost every LPA, only to
remove it right after; here the merge reports that outcome and the victim
leaves its level at once, so ``L`` is never negative and the constructor
refuses a negative length.

Two segment types exist:

* **accurate** segments predict the exact PPA for every covered LPA; their
  covered LPAs form a regular stride (``S, S + 1/K, S + 2/K, ...``), so
  membership is a modulo test;
* **approximate** segments guarantee the prediction is within the error
  bound ``[-gamma, +gamma]``; their covered LPAs are irregular, so
  membership is resolved through the per-group Conflict Resolution Buffer.

The Python object keeps the slope quantized exactly as the 2-byte encoding
would (float16 with the type bit forced), so mispredictions in the simulator
match what the real 8-byte encoding produces.  The intercept is kept at full
float64 precision internally; on the device it is anchored at the group base
and stored in 4 bytes, which this model treats as lossless.

Float16 conversions go through :mod:`struct`'s IEEE ``'e'`` format
(binary16, round-to-nearest-even), so the learned-index core needs nothing
outside the standard library.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.core.level import Level

#: Number of contiguous LPAs covered by one group (Section 3.2).
GROUP_SIZE = 256

#: DRAM bytes charged per segment (the 8-byte encoding above).
SEGMENT_BYTES = 8

_pack_half = struct.Struct("<e").pack
_pack_bits = struct.Struct("<H").pack
_unpack_half = struct.Struct("<e").unpack
_unpack_bits = struct.Struct("<H").unpack


def _float16_bits(value: float) -> int:
    """The uint16 bit pattern of ``value`` rounded to IEEE float16."""
    return _unpack_bits(_pack_half(value))[0]


def _bits_to_float(bits: int) -> float:
    return _unpack_half(_pack_bits(bits))[0]


#: Memo of ``quantize_slope`` results.  Keys conflate ``-0.0``/``0.0``
#: (equal hash and value), which is harmless: both quantize identically.
_QUANTIZE_CACHE: dict = {}

#: Memo of the per-slope stride (``ceil(1 / K)``) computed in ``__init__``.
_STRIDE_CACHE: dict = {}


def quantize_slope(slope: float, accurate: bool) -> float:
    """Quantize ``slope`` to float16 and embed the segment-type bit.

    The least-significant mantissa bit encodes the type (0 = accurate,
    1 = approximate), exactly as in Section 3.2 of the paper.  For accurate
    segments the quantized slope is additionally forced to be **not larger**
    than the true slope so that ``ceil`` never overshoots the next stride
    point; this is what keeps accurate segments exact after quantization.
    """
    key = (slope, accurate)
    cached = _QUANTIZE_CACHE.get(key)
    if cached is not None:
        return cached
    if slope < 0.0:
        raise ValueError("segment slopes are non-negative")
    if slope == 0.0:
        # 0.0 has an all-zero encoding whose LSB already marks "accurate";
        # an approximate single-point segment uses the smallest subnormal.
        value = 0.0 if accurate else _bits_to_float(1)
    else:
        bits = _float16_bits(slope)
        if accurate:
            # Round toward zero if float16 rounding went up.
            if _bits_to_float(bits) > slope:
                bits -= 1
            # Force the type bit to 0, which can only decrease the magnitude.
            bits &= ~1
        else:
            bits |= 1
        value = _bits_to_float(bits)
    if len(_QUANTIZE_CACHE) > 8192:
        _QUANTIZE_CACHE.clear()
    _QUANTIZE_CACHE[key] = value
    return value


def slope_is_accurate(slope: float) -> bool:
    """Decode the segment type from the slope's float16 encoding."""
    return (_float16_bits(slope) & 1) == 0


class Segment:
    """A learned index segment within one LPA group.

    ``slope`` (and therefore the stride of an accurate segment) is immutable
    after construction — merges only ever trim ``start_lpa``/``length`` — so
    the stride is computed once and cached in the ``stride`` slot.
    ``level`` is the :class:`repro.core.level.Level` that holds the segment,
    set by ``Level.insert`` and unset until then: simulator bookkeeping that
    lets the group's owner index charge a lookup at its owner's depth, not
    part of the 8-byte encoding.
    """

    level: Level

    __slots__ = (
        "group_base",
        "start_lpa",
        "length",
        "slope",
        "intercept",
        "accurate",
        "stride",
        "level",
    )

    def __init__(
        self,
        group_base: int,
        start_lpa: int,
        length: int,
        slope: float,
        intercept: float,
        accurate: bool,
    ) -> None:
        if length < 0:
            raise ValueError(f"segment length {length} is negative")
        if start_lpa < group_base or start_lpa + length >= group_base + GROUP_SIZE:
            raise ValueError(
                f"segment [{start_lpa}, {start_lpa + length}] does not fit in group "
                f"starting at {group_base}"
            )
        self.group_base = group_base
        self.start_lpa = start_lpa
        self.length = length
        self.slope = slope
        self.intercept = intercept
        self.accurate = accurate
        #: LPA step between covered points of an accurate segment
        #: (``ceil(1 / K)``; 1 for single points and zero slopes).
        stride = _STRIDE_CACHE.get(slope)
        if stride is None:
            stride = 1 if slope == 0.0 else int(math.ceil(1.0 / slope))
            if len(_STRIDE_CACHE) > 8192:
                _STRIDE_CACHE.clear()
            _STRIDE_CACHE[slope] = stride
        self.stride = stride

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_anchor(
        cls,
        group_base: int,
        start_lpa: int,
        length: int,
        raw_slope: float,
        anchor_lpa: int,
        anchor_ppa: int,
        accurate: bool,
        intercept_shift: float = 0.0,
    ) -> "Segment":
        """Build a segment whose model passes (near) the anchor point.

        The intercept is derived so that ``predict(anchor_lpa)`` equals
        ``anchor_ppa`` (plus an optional ``intercept_shift`` used by the
        learner to centre rounding errors of approximate segments).
        """
        slope = quantize_slope(raw_slope, accurate)
        anchor_offset = anchor_lpa - group_base
        intercept = anchor_ppa - slope * anchor_offset + intercept_shift
        return cls(
            group_base=group_base,
            start_lpa=start_lpa,
            length=length,
            slope=slope,
            intercept=intercept,
            accurate=accurate,
        )

    @classmethod
    def single_point(cls, group_base: int, lpa: int, ppa: int) -> "Segment":
        """The degenerate segment for a random write: L = 0, K = 0, I = PPA."""
        return cls(
            group_base=group_base,
            start_lpa=lpa,
            length=0,
            slope=0.0,
            intercept=float(ppa),
            accurate=True,
        )

    # ------------------------------------------------------------------ #
    # Interval & membership
    # ------------------------------------------------------------------ #
    @property
    def end_lpa(self) -> int:
        """Last LPA of the covered interval (inclusive)."""
        return self.start_lpa + self.length

    def covers(self, lpa: int) -> bool:
        """True when ``lpa`` falls inside the segment's LPA interval."""
        start = self.start_lpa
        return start <= lpa <= start + self.length

    def overlaps(self, other: "Segment") -> bool:
        """True when the LPA intervals of the two segments intersect."""
        return self.start_lpa <= other.end_lpa and other.start_lpa <= self.end_lpa

    def overlaps_range(self, start_lpa: int, end_lpa: int) -> bool:
        start = self.start_lpa
        return start <= end_lpa and start_lpa <= start + self.length

    def has_lpa_accurate(self, lpa: int) -> bool:
        """Membership test for accurate segments (Algorithm 2, ``has_lpa``).

        An accurate segment covers the regularly strided LPAs
        ``S, S + stride, S + 2*stride, ...`` within its interval.
        """
        start = self.start_lpa
        return start <= lpa <= start + self.length and (lpa - start) % self.stride == 0

    def covered_lpas_accurate_list(self) -> List[int]:
        """The LPAs an accurate segment encodes (from its metadata), as a list.

        Built with a single C-level ``range`` expansion — the merge
        procedure calls this for every victim candidate, so avoiding a
        generator matters.
        """
        start = self.start_lpa
        return list(range(start, start + self.length + 1, self.stride))

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, lpa: int) -> int:
        """``PPA = ceil(K * offset + I)`` where offset is group-relative."""
        offset = lpa - self.group_base
        return int(math.ceil(self.slope * offset + self.intercept))

    # ------------------------------------------------------------------ #
    # 8-byte encoding
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte on-device format.

        Layout: ``<BBHi`` — start offset (1 B), length (1 B), float16 slope
        bits (2 B), intercept as a rounded signed 32-bit integer (4 B).
        """
        offset = self.start_lpa - self.group_base
        slope_bits = _float16_bits(self.slope)
        intercept = int(round(self.intercept))
        return struct.pack("<BBHi", offset, self.length, slope_bits, intercept)

    @classmethod
    def from_bytes(cls, data: bytes, group_base: int) -> "Segment":
        """Decode the 8-byte format (inverse of :meth:`to_bytes`)."""
        if len(data) != SEGMENT_BYTES:
            raise ValueError(f"expected {SEGMENT_BYTES} bytes, got {len(data)}")
        offset, length, slope_bits, intercept = struct.unpack("<BBHi", data)
        slope = _bits_to_float(slope_bits)
        return cls(
            group_base=group_base,
            start_lpa=group_base + offset,
            length=length,
            slope=slope,
            intercept=float(intercept),
            accurate=slope_is_accurate(slope),
        )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """DRAM bytes charged for this segment."""
        return SEGMENT_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "acc" if self.accurate else "apx"
        return (
            f"Segment({kind}, [{self.start_lpa}, {self.end_lpa}], "
            f"K={self.slope:.4f}, I={self.intercept:.2f})"
        )


def group_base_of(lpa: int, group_size: int = GROUP_SIZE) -> int:
    """The base LPA of the group that contains ``lpa``."""
    return (lpa // group_size) * group_size
