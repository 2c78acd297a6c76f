"""simlint core: findings, the rule registry and the per-file lint driver.

simlint is a repo-specific static-analysis pass for the simulator.  Every
result this reproduction claims (bit-exact engine regressions, differential
GC oracles, reproducible percentiles) rests on the simulator being
deterministic under a seed; the rules in :mod:`tools.simlint.rules` encode
the coding contracts that determinism depends on, so they are checked by
machine instead of by review.

Design notes
------------
* **stdlib only** — the linter must run in a bare checkout (``ast`` +
  ``tomllib``, no third-party dependencies).
* **one parse per file** — all applicable rules share the same
  :class:`FileContext` (source, AST, suppression map).
* **suppressions are per line and per code** — ``# simlint: disable=SIM003``
  on the offending line; a bare ``# simlint: disable`` silences every rule
  on that line.  There are deliberately no file-level pragmas: a file that
  needs one should be excluded via ``simlint.toml`` where the exception is
  reviewable in one place.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

#: Matches a suppression comment anywhere in a physical line.  Codes are
#: comma-separated; omitting ``=CODES`` disables every rule for the line.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:\s*=\s*(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*))?"
)

#: Sentinel entry meaning "every code is suppressed on this line".
_ALL_CODES = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class FileContext:
    """Everything a rule needs about one source file (parsed once)."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        self._suppressed: Dict[int, Set[str]] = self._scan_suppressions()

    def _scan_suppressions(self) -> Dict[int, Set[str]]:
        suppressed: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                suppressed.setdefault(lineno, set()).add(_ALL_CODES)
            else:
                for code in codes.split(","):
                    suppressed.setdefault(lineno, set()).add(code.strip())
        return suppressed

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self._suppressed.get(line)
        return codes is not None and (code in codes or _ALL_CODES in codes)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Rule:
    """Base class of all simlint rules.

    Subclasses set the class attributes and implement :meth:`check`; the
    :func:`register` decorator adds them to the registry.  Where a rule
    applies is not the rule's to say: its ``[rules.<code>]`` table in
    ``simlint.toml`` is the one place a scope is written.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def emit(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Iterator[Finding]:
        """Yield a finding unless a suppression comment covers its line."""
        finding = ctx.finding(node, self.code, message)
        if not ctx.is_suppressed(self.code, finding.line):
            yield finding


#: Registry of every known rule, keyed by code (``SIM001`` ...).
RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


# --------------------------------------------------------------------------- #
# Import resolution shared by several rules
# --------------------------------------------------------------------------- #
class ImportMap:
    """Maps local names to canonical dotted paths.

    ``import numpy as np`` makes ``np.random.randint`` resolve to
    ``numpy.random.randint``; ``from random import randint as ri`` makes
    ``ri`` resolve to ``random.randint``; ``from datetime import datetime``
    makes ``datetime.now`` resolve to ``datetime.datetime.now``.  Rules
    match on the canonical path, so aliasing cannot dodge them.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self._names[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, if importable."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._names.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def parse_file(path: Path, display_path: str) -> FileContext:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(display_path, source, tree)


def lint_file(
    path: Path,
    display_path: str,
    rules: Sequence[Rule],
) -> List[Finding]:
    """Run ``rules`` over one file; returns sorted findings."""
    ctx = parse_file(path, display_path)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            yield path
