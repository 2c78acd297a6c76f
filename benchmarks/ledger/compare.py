"""``python -m benchmarks.ledger compare A.json B.json``.

Holds ledger result B (the change) against result A (the baseline): every
workload in its own row per end-to-end metric, with both values (host
metrics: the best repeat), both quartile ranges of the repeats, the
relative change and the metric's bound.  A metric is a **regression** when
B's value is worse than A's by more than the bound (``ops_failed_share``:
when it rose at all), and **unresolved** — neither passed nor failed — when
either side's quartile range is wider than the bound, unless every run of
B reads better than every run of A.

Exit status: 0 nothing regressed, 1 at least one regression, 2 the files
cannot be compared (different request-list digests, seeds, scales or run
lengths).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from benchmarks.ledger import spec

OK, UNRESOLVED, REGRESSION = "ok", "unresolved", "REGRESSION"


class Incomparable(ValueError):
    """The two result files did not measure the same inputs."""


def check_comparable(a: Mapping[str, Any], b: Mapping[str, Any]) -> None:
    for key in ("schema", "seed", "scale", "seconds"):
        if a.get(key) != b.get(key):
            raise Incomparable(f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    if a["digests"] != b["digests"]:
        changed = sorted(
            name
            for name in set(a["digests"]) | set(b["digests"])
            if a["digests"].get(name) != b["digests"].get(name)
        )
        raise Incomparable(f"request-list digests differ for {changed}: not the same benchmark")


def _spread(entry: Mapping[str, Any]) -> float:
    median = abs(entry["median"])
    return (entry["q3"] - entry["q1"]) / median if median else 0.0


def judge(metric: spec.EndToEnd, a: Mapping[str, Any], b: Mapping[str, Any]) -> Tuple[float, str]:
    """(B's change for the worse as a share of A's value, status)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    relative = worse_by / abs(a["value"]) if a["value"] else 0.0
    if metric.name == "ops_failed_share":
        return relative, REGRESSION if worse_by > 0 else OK
    allowed = max(metric.bound * abs(a["value"]), metric.absolute_bound)
    if worse_by > allowed:
        return relative, REGRESSION
    if max(_spread(a), _spread(b)) > metric.bound:
        b_always_better = (
            max(b["values"]) < min(a["values"])
            if metric.better == "lower"
            else min(b["values"]) > max(a["values"])
        )
        if not b_always_better:
            return relative, UNRESOLVED
    return relative, OK


def compare(a: Mapping[str, Any], b: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload); raises :class:`Incomparable`."""
    check_comparable(a, b)
    rows: List[Dict[str, Any]] = []
    for metric in spec.END_TO_END:
        for workload in spec.WORKLOADS:
            entry_a = a["workloads"][workload]["end_to_end"][metric.name]
            entry_b = b["workloads"][workload]["end_to_end"][metric.name]
            relative, status = judge(metric, entry_a, entry_b)
            rows.append(
                {
                    "metric": metric.name,
                    "workload": workload,
                    "unit": metric.unit,
                    "a": entry_a,
                    "b": entry_b,
                    "worse_by": relative,
                    "bound": metric.bound,
                    "status": status,
                }
            )
    return rows


def _cell(entry: Mapping[str, Any]) -> str:
    if entry["n"] == 1:
        return f"{entry['value']:.6g}"
    return f"{entry['value']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"


def render(rows: Sequence[Mapping[str, Any]]) -> str:
    lines = [
        f"{'metric':<22} {'workload':<13} {'A: value [q1, q3]':<40} "
        f"{'B: value [q1, q3]':<40} {'worse by':>9} {'bound':>6}  status"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<22} {row['workload']:<13} {_cell(row['a']):<40} "
            f"{_cell(row['b']):<40} {row['worse_by']:>+9.2%} {row['bound']:>6.0%}  {row['status']}"
        )
    counts = {status: sum(r["status"] == status for r in rows) for status in (OK, UNRESOLVED, REGRESSION)}
    lines.append(
        f"{counts[OK]} ok, {counts[UNRESOLVED]} unresolved (spread wider than bound), "
        f"{counts[REGRESSION]} regressed; 'worse by' is B against A's value, positive = worse"
    )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        a, b = json.load(handle_a), json.load(handle_b)
    try:
        rows = compare(a, b)
    except Incomparable as error:
        print(f"cannot compare: {error}")
        return 2
    print(f"A = {path_a}  B = {path_b}  seed {a['seed']}  python {a['python']} / {b['python']}  nproc {a['nproc']} / {b['nproc']}")
    print(render(rows))
    return 1 if any(row["status"] == REGRESSION for row in rows) else 0
