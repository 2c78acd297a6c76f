"""Alternated parent/change pairs of one ledger workload (host-speed claims).

    python tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --seed S --pairs N

Runs ``benchmarks/ledger/run.py --trace 0`` in each checkout, the side that
goes first flipped every pair, and prints per host metric each side's
median [q1, q3], the median per-pair change/parent ratio and the pairs the
change won.  Exits 1 when a simulated metric differs between two runs: the
simulator is deterministic per seed, so that is a behaviour change, not noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

#: Host-clock metrics and whether higher is better; every other metric the
#: entry point prints is simulated and must repeat exactly.
HOST = {"host_ios_per_s": True, "host_pages_per_s": True, "setup_s": False, "peak_rss_mb": False}


def run_once(checkout: str, args: argparse.Namespace) -> Dict[str, float]:
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def spread(values: List[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


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
            first, last = runs["parent"][0], runs[side][-1]
            moved = [name for name in last if name not in HOST and last[name] != first.get(name)]
            if moved:
                print(f"pair {pair + 1}, {side}: simulated metrics moved: {moved}")
                return 1
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, simulated metrics identical")
    for name, higher in HOST.items():
        parent, change = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        print(f"{name}: parent {spread(parent)}  change {spread(change)}"
              f"  median ratio {ratio:.3f}  wins {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
