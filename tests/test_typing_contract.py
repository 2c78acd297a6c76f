"""The annotation contract mypy.ini enforces, checked without mypy.

CI runs real mypy in the static-analysis job; developer machines (and
this test environment) may not have it installed.  This test replicates
the two mypy settings that are pure syntax properties —
``disallow_untyped_defs``/``disallow_incomplete_defs`` and
``no_implicit_optional`` — over the same subtree ``mypy.ini`` scopes
(``src/repro/{core,ftl,flash,sim,ssd}``), so an unannotated def or an
implicit Optional fails fast locally instead of only in CI.

It also holds the import contract: a package ``__init__`` is only its
docstring, so each name has one import path (its defining module), and
importing a module loads only what that module imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TYPED_PACKAGES = ("core", "ftl", "flash", "sim", "ssd")


def typed_files():
    for package in TYPED_PACKAGES:
        yield from sorted((REPO / "src" / "repro" / package).rglob("*.py"))


def _optional_ok(annotation: ast.expr) -> bool:
    rendered = ast.unparse(annotation)
    return "Optional" in rendered or "None" in rendered or rendered in ("object", "Any")


def _violations(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = [a for a in positional + args.kwonlyargs if a.arg not in ("self", "cls")]
        for arg in named:
            if arg.annotation is None:
                yield (node.lineno, f"{node.name}: parameter {arg.arg!r} unannotated")
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                yield (node.lineno, f"{node.name}: *{vararg.arg} unannotated")
        if node.returns is None and node.name != "__init__":
            yield (node.lineno, f"{node.name}: no return annotation")
        defaults = args.defaults
        for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
            if (
                isinstance(default, ast.Constant)
                and default.value is None
                and arg.annotation is not None
                and not _optional_ok(arg.annotation)
            ):
                yield (node.lineno, f"{node.name}: implicit Optional parameter {arg.arg!r}")
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if (
                default is not None
                and isinstance(default, ast.Constant)
                and default.value is None
                and arg.annotation is not None
                and not _optional_ok(arg.annotation)
            ):
                yield (node.lineno, f"{node.name}: implicit Optional parameter {arg.arg!r}")


@pytest.mark.parametrize("path", list(typed_files()), ids=lambda p: str(p.relative_to(REPO)))
def test_typed_subtree_is_fully_annotated(path):
    found = [f"{path}:{line} {message}" for line, message in _violations(path)]
    assert found == [], "\n".join(found)


def test_mypy_config_scopes_the_same_subtree():
    text = (REPO / "mypy.ini").read_text()
    for package in TYPED_PACKAGES:
        assert f"src/repro/{package}" in text
    assert "disallow_untyped_defs = True" in text
    assert "no_implicit_optional = True" in text


def test_package_inits_hold_only_a_docstring():
    found = []
    for path in sorted((REPO / "src" / "repro").rglob("__init__.py")):
        body = ast.parse(path.read_text()).body
        docstring = (
            len(body) == 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )
        if not docstring:
            found.append(str(path.relative_to(REPO)))
    assert found == [], f"package __init__ files with statements besides the docstring: {found}"


def test_namespace_imports_without_the_device_model():
    """``repro.host.namespace`` sits below the device: importing it in a
    fresh interpreter must not load ``repro.ssd.ssd``."""
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, repro.host.namespace; print(*sorted(m for m in sys.modules if m.startswith('repro')))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "repro.host.namespace" in loaded
    assert "repro.ssd.ssd" not in loaded, f"loaded: {loaded}"
