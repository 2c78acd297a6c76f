"""simlint configuration: path scoping per rule, loaded from ``simlint.toml``.

The config file lives at the repository root and is the only place a
rule's scope is written (SIM001 to the device model, SIM006 to the stats
modules, ...): every registered rule needs a ``[rules.SIMxxx]`` table
with a ``paths`` list, and a missing file or table is an error, not a
fallback.  Files are matched by posix-style path prefix relative to the
config root, so ``"src/repro/sim"`` covers the whole package and
``"src/repro/flash/allocator.py"`` exactly one file.

The file is parsed with the standard library's :mod:`tomllib` (Python
3.11+) — no third-party TOML dependency.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from tools.simlint.engine import RULES, Rule

#: Name of the config file, searched upward from the first lint root.
CONFIG_NAME = "simlint.toml"

#: Directories never linted (match anywhere in the path).
_ALWAYS_EXCLUDED = (".git", "__pycache__")


@dataclass
class SimlintConfig:
    """Resolved configuration: the root paths are relative to, exclusions,
    and each rule's scope (rule code -> path prefixes)."""

    root: Path
    exclude: Tuple[str, ...]
    rules: Dict[str, Tuple[str, ...]]

    @classmethod
    def load(cls, path: Path) -> "SimlintConfig":
        with path.open("rb") as handle:
            data = tomllib.load(handle)
        simlint = data.get("simlint", {})
        raw_rules = data.get("rules", {})
        if not isinstance(simlint, dict) or not isinstance(raw_rules, dict):
            raise ValueError(f"{path}: [simlint] and [rules] must be tables")
        unknown = sorted(set(raw_rules) - set(RULES))
        if unknown:
            raise ValueError(f"{path}: unknown rule {unknown[0]!r}")
        rules: Dict[str, Tuple[str, ...]] = {}
        for code in sorted(RULES):
            table = raw_rules.get(code)
            if not isinstance(table, dict) or not isinstance(table.get("paths"), list):
                raise ValueError(f"{path}: rule {code} has no [rules.{code}] paths list")
            rules[code] = tuple(table["paths"])
        return cls(
            root=path.parent.resolve(),
            exclude=tuple(simlint.get("exclude", ())),
            rules=rules,
        )

    @classmethod
    def discover(cls, start: Path) -> "SimlintConfig":
        """Load the ``simlint.toml`` at ``start`` or its nearest ancestor."""
        probe = start.resolve()
        for candidate in (probe, *probe.parents):
            config_path = candidate / CONFIG_NAME
            if config_path.is_file():
                return cls.load(config_path)
        raise FileNotFoundError(f"no {CONFIG_NAME} at or above {probe}")

    # ------------------------------------------------------------------ #
    # Scoping
    # ------------------------------------------------------------------ #
    def relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def is_excluded(self, path: Path) -> bool:
        rel = self.relpath(path)
        parts = rel.split("/")
        if any(part in _ALWAYS_EXCLUDED for part in parts):
            return True
        return any(_prefix_match(rel, prefix) for prefix in self.exclude)

    def rule_applies(self, rule: Rule, path: Path) -> bool:
        rel = self.relpath(path)
        return any(_prefix_match(rel, scope) for scope in self.rules[rule.code])


def _prefix_match(rel: str, scope: str) -> bool:
    """``scope`` matches ``rel`` exactly, or as a directory prefix."""
    if scope in ("", "."):
        return True
    scope = scope.rstrip("/")
    return rel == scope or rel.startswith(scope + "/")
