"""The PR driver's entry point (the ``command`` of ``BENCHMARK.json``).

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload per invocation; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
every per-layer metric with ``--trace 1``.  Exits non-zero, printing no
result, when the simulator (``src/repro``) is not there to measure.

This is ``ledger.run_ledger`` for one workload and one half; ``PYTHONPATH=src
python -m benchmarks.ledger`` is the same routine for all four and both
halves, with a report and the result file ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no simulator to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.ledger import spec
    from benchmarks.ledger.ledger import driver_result, run_ledger

    if args.workload not in spec.WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; known: {list(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    document = run_ledger(
        args.seed, [args.workload], args.seconds, end_to_end=not trace, per_layer=trace
    )
    failures = document["workloads"][args.workload]["end_to_end"]["ops_failed_share"]
    for line in document["problems"] + failures["audit_failures"]:
        print(f"ledger: {line}", file=sys.stderr)
    result = driver_result(document, args.workload, trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
