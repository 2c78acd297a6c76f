"""Append one perf point to ``BENCH_ledger.json``: the committed trajectory of the frozen ledger.

    python tools/ledger_point.py [CHECKOUT] --label "PR 21"

Runs ``benchmarks/ledger/run.py --trace 0`` in CHECKOUT (default: this one) RUNS times per workload of its
``BENCHMARK.json``, for that file's ``run_seconds``, and appends one row here: label, commit, seed, and per
workload the simulated metrics (deterministic per seed: a run that disagrees with the first exits 1) and each
host-clock metric's ``[median, q1, q3]`` — one box's record, never a gate (a claim needs ``tools/ab_pairs.py``).
One ``--trace 1`` run per workload adds the ``exact`` work counters, which repeat on any machine: a row-to-row
change in one of them is a code change.  Among them, ``calls_per_host_page`` is the Python and C calls one
replay executes per host page, counted with ``sys.setprofile`` in a fresh interpreter that imports the
checkout's ledger workloads read-only (seed 1, scale ``CALLS_SCALE``); the same replay gives
``core.mappings_fitted_per_host_page``, the mappings it fitted (learned minus carried) per host write page,
which ``core.points_fitted_per_host_page`` (every mapping installed, carried ones included) cannot show.  ``env`` names the box (interpreter,
platform, CPU count), so a drift between rows' host columns can at least be attributed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

LEDGER = Path(__file__).resolve().parents[1] / "BENCH_ledger.json"
#: One seed for every row, so the simulated columns of two rows are comparable.
SEED, RUNS = 1, 3
#: Host-clock metrics; every other metric the entry point prints is simulated and must repeat exactly.
HOST = ("host_ios_per_s", "host_pages_per_s", "setup_s", "peak_rss_mb")
#: Work counters taken from the traced run (it prints every per-layer metric; these are the machine-free ones).
EXACT = (
    "sim.events_per_io",
    "sim.nand_reserve_calls",
    "core.points_fitted_per_host_page",
    "core.levels_per_lookup",
    "ssd.gc_pages_moved_per_erase",
    "flash.pages_programmed",
    "flash.pages_read",
)
#: Scale of the profiled replay behind ``calls_per_host_page``: every call pays a Python callback there.
CALLS_SCALE = 0.25
#: The child that counts them: ``python -c CALLS_SCRIPT WORKLOAD SEED SCALE`` prints calls per host page, then
#: the mappings the replay fitted (learned minus carried, from the registry snapshot) per host write page.
CALLS_SCRIPT = """
import sys
from benchmarks.ledger.workloads import prepare
from repro.obs.registry import device_snapshot

prepared = prepare(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
before = device_snapshot(prepared.ssd)
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call" or event == "c_call":
        calls += 1


sys.setprofile(count)
prepared.replay()
sys.setprofile(None)
stats = prepared.ssd.stats
print(calls / (stats.host_read_pages + stats.host_write_pages))
d = device_snapshot(prepared.ssd).delta(before)
carried = d["mapping_table.mappings_carried"] if "mapping_table.mappings_carried" in d else 0.0
print((d["mapping_table.mappings_learned"] - carried) / max(d["ssd.host_write_pages"], 1.0))
"""


def run_once(checkout: str, workload: str, seconds: float, trace: int = 0) -> dict:
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
    command += ["--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def profiled_counts(checkout: str, workload: str) -> Tuple[float, float]:
    """Calls per host page and mappings fitted per host write page, one seed-``SEED`` replay at ``CALLS_SCALE``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(checkout) / "src"), checkout])
    command = [sys.executable, "-c", CALLS_SCRIPT, workload, str(SEED), str(CALLS_SCALE)]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    calls, fitted = done.stdout.split()[-2:]
    return float(calls), float(fitted)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=str(LEDGER.parent))
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=args.checkout, capture_output=True, text=True)
    spec = json.loads((Path(args.checkout) / "BENCHMARK.json").read_text(encoding="utf-8"))
    row = {"label": args.label, "commit": commit.stdout.strip(), "seed": SEED, "runs": RUNS, "workloads": {}}
    row["env"] = {"python": sys.version, "platform": platform.platform(), "cpu_count": os.cpu_count()}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = [run_once(args.checkout, workload, spec["run_seconds"]) for _ in range(RUNS)]
        simulated = {name: value for name, value in runs[0].items() if name not in HOST}
        if any({name: run[name] for name in simulated} != simulated for run in runs):
            print(f"{workload}: simulated metrics differ between runs of one seed", file=sys.stderr)
            return 1
        quartiles = {name: statistics.quantiles([run[name] for run in runs], n=4) for name in HOST}
        host = {name: [round(value, 4) for value in (q2, q1, q3)] for name, (q1, q2, q3) in quartiles.items()}
        started = time.perf_counter()
        traced = run_once(args.checkout, workload, spec["run_seconds"], trace=1)
        exact = {name: traced[name] for name in EXACT}
        exact["calls_per_host_page"], exact["core.mappings_fitted_per_host_page"] = profiled_counts(
            args.checkout, workload
        )
        row["workloads"][workload] = {"sim": simulated, "host": host, "exact": exact}
        print(f"{workload}: host_pages_per_s {host['host_pages_per_s']}; traced run "
              f"{time.perf_counter() - started:.0f} s, {exact}", file=sys.stderr)
    rows = (json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else []) + [row]
    LEDGER.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
