"""simlint configuration: path scoping per rule, loaded from ``simlint.toml``.

The config file lives at the repository root and scopes each rule to the
paths where its contract applies (SIM001 to the device model, SIM006 to the
stats modules, ...).  Files are matched by posix-style path prefix relative
to the config root, so ``"src/repro/sim"`` covers the whole package and
``"src/repro/flash/allocator.py"`` exactly one file.

The file is parsed with the standard library's :mod:`tomllib` (Python
3.11+) — no third-party TOML dependency.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tools.simlint.engine import RULES, Rule

#: Default name of the config file, searched upward from the lint roots.
CONFIG_NAME = "simlint.toml"

#: Directories never linted (match anywhere in the path).
_ALWAYS_EXCLUDED = (".git", "__pycache__")


def _load_toml(path: Path) -> Dict[str, object]:
    with path.open("rb") as handle:
        return tomllib.load(handle)


@dataclass
class RuleConfig:
    """Per-rule overrides from ``[rules.SIMxxx]`` tables."""

    enabled: bool = True
    paths: Optional[Tuple[str, ...]] = None  # None = the rule's defaults


@dataclass
class SimlintConfig:
    """Resolved configuration: lint roots, exclusions, per-rule scoping."""

    root: Path = field(default_factory=Path.cwd)
    include: Tuple[str, ...] = ("src", "tools")
    exclude: Tuple[str, ...] = ()
    rules: Dict[str, RuleConfig] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "SimlintConfig":
        data = _load_toml(path)
        simlint = data.get("simlint", {})
        if not isinstance(simlint, dict):
            raise ValueError(f"{path}: [simlint] must be a table")
        rules: Dict[str, RuleConfig] = {}
        raw_rules = data.get("rules", {})
        if isinstance(raw_rules, dict):
            for code, overrides in raw_rules.items():
                if not isinstance(overrides, dict):
                    raise ValueError(f"{path}: [rules.{code}] must be a table")
                if code not in RULES:
                    raise ValueError(f"{path}: unknown rule {code!r}")
                paths = overrides.get("paths")
                rules[code] = RuleConfig(
                    enabled=bool(overrides.get("enabled", True)),
                    paths=tuple(paths) if paths is not None else None,
                )
        return cls(
            root=path.parent.resolve(),
            include=tuple(simlint.get("include", ("src", "tools"))),
            exclude=tuple(simlint.get("exclude", ())),
            rules=rules,
        )

    @classmethod
    def discover(cls, start: Path) -> "SimlintConfig":
        """Find ``simlint.toml`` at ``start`` or the nearest ancestor."""
        probe = start.resolve()
        if probe.is_file():
            probe = probe.parent
        for candidate in (probe, *probe.parents):
            config_path = candidate / CONFIG_NAME
            if config_path.is_file():
                return cls.load(config_path)
        return cls(root=probe)

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
        override = self.rules.get(rule.code)
        if override is not None and not override.enabled:
            return False
        scopes: Sequence[str]
        if override is not None and override.paths is not None:
            scopes = override.paths
        else:
            scopes = rule.default_paths
        rel = self.relpath(path)
        return any(_prefix_match(rel, scope) for scope in scopes)

    def active_rules(self) -> List[Rule]:
        """Instantiate every enabled rule, in code order."""
        active: List[Rule] = []
        for code in sorted(RULES):
            override = self.rules.get(code)
            if override is not None and not override.enabled:
                continue
            active.append(RULES[code]())
        return active


def _prefix_match(rel: str, scope: str) -> bool:
    """``scope`` matches ``rel`` exactly, or as a directory prefix."""
    if scope in ("", "."):
        return True
    scope = scope.rstrip("/")
    return rel == scope or rel.startswith(scope + "/")
