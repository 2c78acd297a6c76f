"""simlint — determinism-and-correctness static analysis for the simulator.

Run from the repository root::

    python -m tools.simlint src/ tools/

The rules (see ``python -m tools.simlint --list-rules``):

========  ===================================================================
SIM001    no wall-clock reads inside the device model (simulated time only)
SIM002    randomness must be an injected, explicitly seeded ``Random``
SIM003    no iteration over unordered sets where order feeds behaviour
SIM004    no ``==``/``!=`` between float timestamps (``*_us`` / ``*_s``)
SIM005    no mutable default arguments
SIM006    stats counters are ``+=``-monotone outside ``__init__``/``reset``
SIM008    telemetry observes, never steers (no foreign writes / sim calls)
========  ===================================================================

There is no SIM007: "every ``*Stats`` counter reaches the registry" is
enforced where it is decided, by ``repro.obs.registry.snapshot_stats``
raising ``TypeError`` under the tier-1 test
``tests/test_telemetry.py::TestCounterRegistry``.

Suppress a single finding inline with ``# simlint: disable=SIM003`` on the
offending line; each rule's scope is its ``[rules.SIMxxx]`` table in
``simlint.toml`` and nowhere else.
"""

from pathlib import Path
from typing import List, Sequence, Tuple

from tools.simlint.config import SimlintConfig
from tools.simlint.engine import RULES, Finding, iter_python_files, lint_file
from tools.simlint import rules as _rules  # noqa: F401  (registers the rules)

__all__ = ["RULES", "Finding", "SimlintConfig", "lint_file", "lint_paths"]


def lint_paths(
    roots: Sequence[Path], config: SimlintConfig
) -> Tuple[List[Finding], int, List[str]]:
    """Lint every in-scope ``.py`` file under ``roots``.

    Returns ``(sorted findings, files checked, parse errors)``; a file
    that does not parse is reported by name and the rest are still linted.
    """
    rules = [RULES[code]() for code in sorted(RULES)]
    findings: List[Finding] = []
    errors: List[str] = []
    files = 0
    for path in iter_python_files(roots):
        if config.is_excluded(path):
            continue
        applicable = [rule for rule in rules if config.rule_applies(rule, path)]
        if not applicable:
            continue
        files += 1
        try:
            findings.extend(lint_file(path, config.relpath(path), applicable))
        except SyntaxError as exc:
            errors.append(
                f"{config.relpath(path)}: syntax error: {exc.msg} (line {exc.lineno})"
            )
    return sorted(findings), files, errors
