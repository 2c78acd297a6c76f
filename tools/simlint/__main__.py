"""Command-line entry point: ``python -m tools.simlint PATH [PATH ...]``.

Exit status: 0 when clean, 1 when findings were reported, 2 on a usage or
parse error or a missing / incomplete ``simlint.toml`` — the contract the
CI ``static-analysis`` job relies on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from tools.simlint import RULES, SimlintConfig, lint_paths


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.simlint",
        description="Determinism-and-correctness static analysis for the simulator.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code].name}")
            print(f"    {RULES[code].rationale}")
        return 0
    if not args.paths:
        parser.error("give at least one file or directory to lint")

    roots = [Path(p) for p in args.paths]
    missing = [str(root) for root in roots if not root.exists()]
    if missing:
        print(f"simlint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        config = SimlintConfig.discover(roots[0])
    except (OSError, ValueError) as exc:
        print(f"simlint: config error: {exc}", file=sys.stderr)
        return 2

    findings, files, errors = lint_paths(roots, config)
    for error in errors:
        print(f"simlint: {error}", file=sys.stderr)
    for finding in findings:
        print(finding.render())
    print(f"simlint: {files} files checked, {len(findings)} finding(s)", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
