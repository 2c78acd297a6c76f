"""Greedy maximum-error-bounded piecewise linear regression (Section 3.1-3.3).

LeaFTL learns LPA→PPA mappings with the greedy streaming PLR algorithm of
Xie et al. [64]: points are consumed in ascending LPA order while a *cone* of
feasible slopes (anchored at the segment's first point) is narrowed; when a
new point would empty the cone, the current segment is closed and a new one
starts.  Every point of a closed segment is guaranteed to be within
``[-gamma, +gamma]`` of the fitted line.

Because the on-device segment encoding rounds the slope to float16 and the
prediction applies a ceiling, the learner *verifies* every candidate segment
against the exact :meth:`repro.core.segment.Segment.predict` semantics before
emitting it, and classifies it as

* **accurate** when every covered LPA predicts its exact PPA,
* **approximate** when every prediction is within ``gamma``,
* otherwise the candidate is split in half and each half relearned by the
  same greedy cone walk (a rare fallback that keeps the error bound a hard
  guarantee rather than a statistical one).

A segment never leaves its 256-LPA group, so a fit or a verification touches
at most 256 points: both are plain loops over the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.segment import GROUP_SIZE, Segment


@dataclass
class LearnedSegment:
    """A freshly learned segment plus the LPAs it covers.

    The covered-LPA list is needed once, at insertion time: approximate
    segments register their LPAs in the Conflict Resolution Buffer.  It is
    not part of the segment's 8-byte footprint.
    """

    segment: Segment
    lpas: List[int]

    @property
    def accurate(self) -> bool:
        return self.segment.accurate

    def __len__(self) -> int:
        return len(self.lpas)


class PLRLearner:
    """Learns index segments from sorted (LPA, PPA) mapping batches."""

    def __init__(self, gamma: int = 0, group_size: int = GROUP_SIZE) -> None:
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        if group_size <= 0 or group_size > GROUP_SIZE:
            raise ValueError("group_size must be in (0, 256]")
        self.gamma = gamma
        self.group_size = group_size

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def learn(
        self,
        mappings: Sequence[Tuple[int, int]],
        carry: Optional[Callable[[Sequence[Tuple[int, int]]], bool]] = None,
    ) -> List[LearnedSegment]:
        """Learn segments from a batch of ``(lpa, ppa)`` pairs.

        The batch is the content of one write-buffer flush: LPAs are unique.
        They do not need to arrive sorted; sorting happens here (matching the
        buffer-sorting co-design of Section 3.3, where ascending LPAs receive
        ascending PPAs).  Segments never span a group boundary because the
        1-byte ``S_LPA`` field is a group-relative offset.

        ``carry``, when given, is offered every candidate segment the cone
        walk closes (its points, before any fitting); a candidate for which
        it returns true is taken as already encoded and yields no segment.
        """
        if not mappings:
            return []
        # Plain tuple order: with unique LPAs it is the LPA order, and a
        # duplicate LPA still lands next to its twin for the check below.
        points = sorted(mappings)
        self._check_unique(points)

        learned: List[LearnedSegment] = []
        run_start = 0
        group_size = self.group_size
        current_group = points[0][0] // group_size * group_size
        for index, (lpa, _ppa) in enumerate(points):
            base = lpa // group_size * group_size
            if base != current_group:
                learned.extend(
                    self._learn_group(points[run_start:index], current_group, carry)
                )
                run_start = index
                current_group = base
        learned.extend(self._learn_group(points[run_start:], current_group, carry))
        return learned

    # ------------------------------------------------------------------ #
    # Per-group learning
    # ------------------------------------------------------------------ #
    def _learn_group(
        self,
        points: Sequence[Tuple[int, int]],
        group_base: int,
        carry: Optional[Callable[[Sequence[Tuple[int, int]]], bool]] = None,
    ) -> List[LearnedSegment]:
        """Greedy cone-based PLR over the points of a single group."""
        count = len(points)
        if count == 1 and carry is None:
            # Isolated write: degenerate single-point segment, no cone walk.
            lpa, ppa = points[0]
            return [
                LearnedSegment(Segment.single_point(group_base, lpa, ppa), [lpa])
            ]
        segments: List[LearnedSegment] = []
        start = 0
        while start < count:
            end, low, high = self._extend_cone(points, start)
            candidate = points[start:end]
            if carry is None or not carry(candidate):
                segments.extend(
                    self._finalize(candidate, group_base, cone=(low, high))
                )
            start = end
        return segments

    def _extend_cone(
        self, points: Sequence[Tuple[int, int]], start: int
    ) -> Tuple[int, float, float]:
        """Extend the feasible-slope cone from ``points[start]``.

        Returns the exclusive end index of the longest feasible segment plus
        the final cone bounds, so the caller can derive the fitted slope
        without re-walking the points (the bounds are narrowed with exactly
        the float operations a fresh pass would perform).
        """
        x0, y0 = points[start]
        low = -math.inf
        high = math.inf
        gamma = float(self.gamma)
        group_span = self.group_size - 1
        index = start + 1
        count = len(points)
        if gamma == 0.0:
            # Single-ratio form: ``(y ± 0.0 - y0) / dx`` and ``(y - y0) / dx``
            # are bit-identical for exact-integer operands, so point_low and
            # point_high collapse into one division.
            while index < count:
                x, y = points[index]
                if x - x0 > group_span:
                    break
                ratio = (y - y0) / (x - x0)
                new_low = low if low > ratio else ratio
                new_high = high if high < ratio else ratio
                if new_low > new_high:
                    break
                low, high = new_low, new_high
                index += 1
            return index, low, high
        while index < count:
            x, y = points[index]
            # The configured group span, not the module-wide maximum: with
            # group_size < 256 a cone must still stop at the group boundary
            # (the 1-byte S_LPA/L fields are group-relative).
            if x - x0 > group_span:
                break
            dx = float(x - x0)
            point_low = (y - gamma - y0) / dx
            point_high = (y + gamma - y0) / dx
            new_low = low if low > point_low else point_low
            new_high = high if high < point_high else point_high
            if new_low > new_high:
                break
            low, high = new_low, new_high
            index += 1
        return index, low, high

    def _finalize(
        self,
        points: Sequence[Tuple[int, int]],
        group_base: int,
        cone: Tuple[float, float],
    ) -> List[LearnedSegment]:
        """Fit, quantize and verify one candidate segment.

        ``cone`` carries the feasible-slope bounds :meth:`_extend_cone`
        narrowed over exactly these points, so the slope needs no second
        pass over them.

        Falls back to splitting the candidate when the quantized model cannot
        honour the error bound (a rare event caused by float16 rounding).
        """
        if len(points) == 1:
            lpa, ppa = points[0]
            return [LearnedSegment(Segment.single_point(group_base, lpa, ppa), [lpa])]

        lpas = [lpa for lpa, _ in points]
        x0, y0 = points[0]
        xn, yn = points[-1]
        raw_slope = self._slope_from_cone(*cone)
        length = xn - x0

        for accurate in (True, False) if self.gamma > 0 else (True,):
            for shift in (0.0, -0.5, -1.0):
                segment = Segment.from_anchor(
                    group_base=group_base,
                    start_lpa=x0,
                    length=length,
                    raw_slope=raw_slope,
                    anchor_lpa=x0,
                    anchor_ppa=y0,
                    accurate=accurate,
                    intercept_shift=shift,
                )
                if self._verify(segment, points, exact=accurate, lpas=lpas):
                    return [LearnedSegment(segment, lpas)]

        # Quantization broke the bound: split the candidate and relearn each
        # half with the greedy cone walk.  The second half gets a new anchor,
        # about which its points need not fit one cone; the walk splits there.
        middle = len(points) // 2
        return self._learn_group(points[:middle], group_base) + self._learn_group(
            points[middle:], group_base
        )

    def _slope_from_cone(self, low: float, high: float) -> float:
        slope = (low + high) / 2.0 if self.gamma else low
        # Clamp to [0, 1] with max()/min() equal-value semantics (the first
        # argument wins on ties, so a -0.0 slope stays -0.0).
        if slope < 0.0:
            return 0.0
        return slope if slope <= 1.0 else 1.0

    def _verify(
        self,
        segment: Segment,
        points: Sequence[Tuple[int, int]],
        exact: bool,
        lpas: Optional[List[int]] = None,
    ) -> bool:
        """Check the quantized model against the real predict() semantics."""
        limit = 0 if exact else self.gamma
        slope = segment.slope
        intercept = segment.intercept
        group_base = segment.group_base
        ceil = math.ceil
        for lpa, ppa in points:
            error = ceil(slope * (lpa - group_base) + intercept) - ppa
            if error > limit or -error > limit:
                return False
        # Accurate segments must also be *enumerable* from their metadata:
        # the stride test of Algorithm 2 has to report exactly the learned
        # LPAs, otherwise lookups would claim LPAs the segment does not hold.
        # Both sides are sorted and duplicate-free, so list equality replaces
        # the set comparison.
        if exact and len(points) > 1:
            if lpas is None:
                lpas = [lpa for lpa, _ in points]
            if lpas != segment.covered_lpas_accurate_list():
                return False
        return True

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_unique(points: Sequence[Tuple[int, int]]) -> None:
        for (lpa_a, _), (lpa_b, _) in zip(points, points[1:]):
            if lpa_a == lpa_b:
                raise ValueError(f"duplicate LPA {lpa_a} in one learning batch")
