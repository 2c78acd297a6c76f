"""Per-channel NAND operation scheduling.

Every flash read, program and erase must cross its channel bus.  The
scheduler owns the one timeline the device's decisions read:

* **channel bus** — one operation at a time; a request that arrives while
  the bus is occupied starts when the bus frees up.  This is the resource
  foreground reads contend on with background flush/GC traffic.

There is no per-die timeline: nothing a die did ever delayed an operation,
and no decision, counter or artifact read when a die was busy.  What
``dies_per_channel`` still changes is the bus share of a program or erase,
which the flash array computes before it reserves: the cell-level part of
the operation proceeds inside the die after the transfer, so operations on
different dies of a channel overlap and each occupies the bus for
``cell_time / dies_per_channel`` — the steady-state share of a fully
pipelined channel.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple


class NANDScheduler:
    """Arbitrates channel-bus occupancy for flash operations."""

    def __init__(self, channels: int, dies_per_channel: int = 1) -> None:
        if channels <= 0:
            raise ValueError("channels must be positive")
        # Validated but unused, like ``reserve(die=)``: the frozen ledger
        # passes both (ROADMAP item 11c).
        if dies_per_channel <= 0:
            raise ValueError("dies_per_channel must be positive")
        self._channels = channels
        self._bus_busy_until: List[float] = [0.0] * channels
        self._bus_time_us: List[float] = [0.0] * channels
        #: Optional observation hook called as ``probe(channel, start_us,
        #: finish_us)`` for every bus reservation.  Purely observational —
        #: it must not touch the scheduler — and ``None`` (the default)
        #: keeps the hot path at a single attribute check.
        self.probe: Optional[Callable[[int, float, float], None]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def channels(self) -> int:
        return self._channels

    def busy_until(self, channel: int) -> float:
        """Time until which ``channel``'s bus is occupied."""
        return self._bus_busy_until[channel]

    def bus_time_us(self, channel: int) -> float:
        """Cumulative bus-occupied time of ``channel`` (for windowed rates)."""
        return self._bus_time_us[channel]

    def timelines(self) -> Tuple[List[float], List[float]]:
        """The live per-channel bus-busy-until and bus-time lists.

        For a caller that chains reservations inline, one loop for a whole
        burst (:meth:`repro.flash.flash_array.FlashArray.read_chunk`): per
        operation it must perform exactly :meth:`reserve`'s float
        operations on these lists and call :attr:`probe` the same way.
        """
        return self._bus_busy_until, self._bus_time_us

    def least_busy_channel(self, candidates: Optional[Sequence[int]] = None) -> int:
        """The channel whose bus frees up earliest (ties → lowest index).

        Background traffic (GC migrations, wear-leveling moves) uses this to
        place its destination blocks where it will contend least with
        foreground reads.  Deterministic, so replays stay reproducible.
        """
        pool = range(self._channels) if candidates is None else candidates
        return min(pool, key=lambda ch: (self._bus_busy_until[ch], ch))

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def reserve(
        self, channel: int, at_us: float, bus_us: float, die: Optional[int] = None
    ) -> float:
        """Schedule one operation; returns its bus completion time.

        ``bus_us`` is the time the operation occupies ``channel``'s bus.
        ``die`` is accepted and ignored (see ``__init__``).
        """
        busy = self._bus_busy_until[channel]
        start = at_us if at_us > busy else busy
        finish = start + bus_us
        self._bus_busy_until[channel] = finish
        self._bus_time_us[channel] += bus_us
        if self.probe is not None:
            self.probe(channel, start, finish)
        return finish

    def reserve_run(self, channel: int, at_us: float, bus_us: float, count: int) -> float:
        """``count`` back-to-back :meth:`reserve` calls with identical args.

        Performs exactly the float operations of the equivalent call
        sequence (the per-operation timing chain is digest-critical), so a
        whole burst — a block's worth of programs, a victim's worth of GC
        reads — costs one call instead of one per page.  Returns the bus
        completion time of the *last* operation.
        """
        if self.probe is not None and count > 0:
            # With a probe installed every operation must be visible
            # individually; :meth:`reserve` performs the identical float
            # chain (same order of the same operations), so delegating is
            # digest-exact.  count == 0 falls through to the batched body,
            # which returns the current bus-busy time untouched.
            finish = self._bus_busy_until[channel]
            for _ in range(count):
                finish = self.reserve(channel, at_us, bus_us)
            return finish
        busy = self._bus_busy_until[channel]
        bus_total = self._bus_time_us[channel]
        for _ in range(count):
            start = at_us if at_us > busy else busy
            busy = start + bus_us
            bus_total += bus_us
        self._bus_busy_until[channel] = busy
        self._bus_time_us[channel] = bus_total
        return busy
