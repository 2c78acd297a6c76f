"""Alternated parent/change pairs of one ledger workload (host-speed claims).

    python tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --seed S --pairs N

Runs ``benchmarks/ledger/run.py --trace 0`` in each checkout, the side that
goes first flipped every pair, and prints per host metric each side's
median [q1, q3], the median per-pair change/parent ratio, the pairs the
change won and a verdict: ``gain`` (or ``loss``) when the change wins (or
loses) at least 9/10 of the pairs, ties counting for neither, and the two
medians differ by more than the parent's interquartile range; otherwise
``unresolved``.  Exits 1 when a simulated metric differs between two runs
of one side: the simulator is deterministic per seed, so that is a behaviour
change, not noise.  A change that moves the simulated metrics on purpose
(say, a smaller mapping table) is reported parent -> change, not refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

#: Host-clock metrics and whether higher is better; every other metric the
#: entry point prints is simulated and must repeat exactly.
HOST = {"host_ios_per_s": True, "host_pages_per_s": True, "setup_s": False, "peak_rss_mb": False}


def run_once(checkout: str, args: argparse.Namespace) -> Dict[str, float]:
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def spread(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: List[float], change: List[float], higher: bool) -> Tuple[int, str]:
    """Pairs the change won, and ``gain`` / ``loss`` / ``unresolved``."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = quartiles(parent)
    better = sign * (statistics.median(change) - statistics.median(parent))
    if 10 * wins >= 9 * len(parent) and better > q3 - q1:
        return wins, "gain"
    if 10 * losses >= 9 * len(parent) and -better > q3 - q1:
        return wins, "loss"
    return wins, "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args))
            first, last = runs[side][0], runs[side][-1]
            moved = [name for name in last if name not in HOST and last[name] != first.get(name)]
            if moved:
                print(f"pair {pair + 1}, {side}: simulated metrics moved: {moved}")
                return 1
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    parent_sim, change_sim = runs["parent"][0], runs["change"][0]
    differ = {name: (parent_sim[name], value) for name, value in change_sim.items()
              if name not in HOST and value != parent_sim.get(name)}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, simulated metrics repeat on each side; "
          f"parent -> change: {differ or 'identical'}")
    for name, higher in HOST.items():
        parent, change = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        wins, label = verdict(parent, change, higher)
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        print(f"{name}: parent {spread(parent)}  change {spread(change)}"
              f"  median ratio {ratio:.3f}  wins {wins}/{args.pairs}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
