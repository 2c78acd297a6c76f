"""Event-loop traffic per ledger workload: ``python -m tools.sim_traffic [SEED [SCALE]]``.

Wraps ``EventLoop.schedule`` and ``EventLoop.take_if_next`` from outside and prints the table
``sim/events.py`` is sized to: calls, completions taken in place (scheduled and observed, never
dispatched), events dispatched per completed request (the ledger's ``sim.events_per_io``), the
most events ever pending, the share scheduled at the current instant, the share landing on an
occupied timestamp (that instant, or one already holding a pending event), count per kind.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / part) for part in ("src", "")]

from benchmarks.ledger.workloads import SPECS, prepare  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402


def traffic(name, seed, scale, original=EventLoop.schedule, take=EventLoop.take_if_next):
    kinds, live, tally, loops = Counter(), Counter(), Counter(), []  # live: fire time -> pending there

    def schedule(loop, time_us, kind, callback=None, payload=None, priority=0):
        if loop not in loops:  # an event that fires (either way) leaves ``live``
            loops.append(loop)
            loop.chain_observer(lambda event: live.subtract([event.time_us]))
        fire_at = max(time_us, loop.now_us)
        kinds[kind] += 1
        tally["at_now"] += fire_at == loop.now_us
        tally["occupied"] += fire_at == loop.now_us or live[fire_at] > 0
        live[fire_at] += 1
        event = original(loop, time_us, kind, callback, payload, priority)
        tally["max_pending"] = max(tally["max_pending"], loop.pending)
        return event

    def take_if_next(loop, event):
        taken = take(loop, event)
        tally["taken"] += taken
        return taken

    prepared = prepare(name, seed, scale)  # ends in begin_measurement(): stats count the replay
    EventLoop.schedule, EventLoop.take_if_next = schedule, take_if_next
    try:
        prepared.replay()
    finally:
        EventLoop.schedule, EventLoop.take_if_next = original, take
    completed = prepared.ssd.stats.requests_completed
    calls = sum(kinds.values())
    shares = {key: f"{100 * tally[key] / max(calls, 1):.1f}%" for key in ("at_now", "occupied")}
    return (
        f"{name}: schedule={calls} taken={tally['taken']} "
        f"dispatched_per_request={(calls - tally['taken']) / max(completed, 1):.3f} "
        f"max_pending={tally['max_pending']} {shares} {dict(kinds.most_common())}"
    )


if __name__ == "__main__":
    seed, scale = (sys.argv[1:] + ["1", "0.2"][len(sys.argv) - 1 :])[:2]
    print(*(traffic(workload, int(seed), float(scale)) for workload in SPECS), sep="\n")
