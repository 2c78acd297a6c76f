"""``PYTHONPATH=src python -m benchmarks.ledger [--seed N] [--out FILE]``
``PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json``

The first form runs the whole ledger and prints every metric by name with
its unit; ``--out`` also writes the result document ``compare`` reads.
Exits non-zero when an output check, a counter self-check or a determinism
check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Mapping, Optional

from benchmarks.ledger import compare, spec
from benchmarks.ledger.ledger import run_ledger


def print_report(document: Mapping[str, Any]) -> None:
    print(
        f"perf ledger  seed {document['seed']}  scale {document['scale']}  "
        f"replay seconds {document['seconds']:g}  python {document['python']}  nproc {document['nproc']}"
    )
    print("host clock = CPU seconds of the single-threaded child, best repeat [q1, q3 of the repeats];")
    print("sim clock = the modelled device")
    print("the device model is unvalidated against hardware: no error figure is reported\n")
    for name, result in document["workloads"].items():
        print(f"== {name}  (requests sha256 {document['digests'][name][:16]})")
        print(f"   {result['why']}")
        print("   end to end:")
        for metric, entry in result["end_to_end"].items():
            spread = (
                f"[{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"
                if entry["n"] > 1
                else "(identical in every repeat)"
            )
            print(
                f"     {metric:<22} {entry['value']:>14.6g} {entry['unit']:<6} {entry['clock']:<5}"
                f" {spread:<36} {entry['better']} is better, bound {entry['bound']:.0%}"
            )
        print("   per layer:")
        for metric, value in result["per_layer"].items():
            definition = spec.PER_LAYER_BY_NAME[metric]
            print(f"     {metric:<40} {value:>16.6g} {definition.unit:<6} [{definition.source}]")
        print("   traced replay, self time by layer row (share of the traced second):")
        for row, share in result["layer_shares"]:
            if share > 0:
                print(f"     {share:>7.2%}  {row}")
        print()

    print("== across workloads (the two ROADMAP questions)")
    print(f"   {'workload':<13} {'host us/IO':>11} {'host us/page':>13} {'pages/IO':>9} {'datapath self us/page (traced)':>31}")
    for name, result in document["workloads"].items():
        e2e, layers = result["end_to_end"], result["per_layer"]
        per_io = 1e6 / e2e["host_ios_per_s"]["value"]
        per_page = 1e6 / e2e["host_pages_per_s"]["value"]
        datapath = 1e6 * layers["ssd.datapath_self_s"] / result["host_pages"]
        print(f"   {name:<13} {per_io:>11.2f} {per_page:>13.3f} {per_io / per_page:>9.2f} {datapath:>31.3f}")
    if document["problems"]:
        print("\nPROBLEMS:")
        for line in document["problems"]:
            print(f"  {line}")


def failed(document: Mapping[str, Any]) -> bool:
    return bool(document["problems"]) or any(
        result["end_to_end"]["ops_failed_share"]["value"] > 0
        for result in document["workloads"].values()
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare")
        parser.add_argument("a", help="baseline result file")
        parser.add_argument("b", help="result file of the change")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the result document (JSON) here")
    args = parser.parse_args(argv)
    document = run_ledger(
        args.seed, log=lambda line: print(f"[ledger] {line}", file=sys.stderr, flush=True)
    )
    print_report(document)
    for result in document["workloads"].values():
        for line in result["end_to_end"]["ops_failed_share"]["audit_failures"]:
            print(f"  output check: {line}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed(document) else 0


if __name__ == "__main__":
    sys.exit(main())
