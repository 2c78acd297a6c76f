"""Reader census: ``python -m tools.reader_census PACKAGE_DIR [PACKAGE_DIR ...]`` (e.g. ``src/repro/obs``).

For every top-level name and public method a package defines: its lines and how often each kind of reader
names it — ``pkg`` (the package itself, definition included), ``lib`` (``src`` outside the package,
``benchmarks``, ``tools``), ``examples``, ``tests``, ``ci`` (words of ``.github/workflows/ci.yml``).  Then
every settable value — defaulted keyword, class attribute, argparse flag (shown as ``argv(--flag=default)``)
— with the distinct values callers pass; a flag's are what follows it in an argv-style list or a CI step.
Counts are by bare identifier (a common word over-counts).  A ``registry`` reader is the registry walker
(``repro.obs.registry.snapshot_stats``), which exports every field and numeric property of a class in
``REGISTERED_STATS`` by reflection, so no identifier names them: such a property shows ``registry=1`` (fields are
settables, never names).  The last line is the total a PR reports before → after: per package, the names (and
their lines) with ``pkg`` = ``lib`` = ``examples`` = ``registry`` = 0 — no reader outside the tests.  ``ci`` is
shown but not counted there: CI names modules and flags, and a bare word of the workflow (``step``, ``run``)
matching a method is not a read.
"""

import ast
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPE_OF_DIR = {"src": "lib", "benchmarks": "lib", "tools": "lib", "examples": "examples", "tests": "tests"}
REGISTRY = ROOT / "src/repro/obs/registry.py"


def definitions(package):
    """(names: 'module.name' -> lines, settable: (callable or 'argv', keyword or '--flag') -> default source)."""
    names, settable = {}, {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "add_argument"):
            if call.args and str(getattr(call.args[0], "value", "")).startswith("--"):
                defaults = [ast.unparse(k.value) for k in call.keywords if k.arg == "default"]
                settable[("argv", call.args[0].value)] = defaults[0] if defaults else "-"
        members = [("", node) for node in tree.body]
        members += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, node in members:
            assigned = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
            for name in assigned or [getattr(node, "name", "_")]:
                if not name.startswith("_") and (not owner or isinstance(node, ast.FunctionDef)):
                    names[".".join(filter(None, (path.stem, owner, name)))] = node.end_lineno - node.lineno + 1
                if owner and assigned and getattr(node, "value", None):
                    settable[(owner, name)] = ast.unparse(node.value)
            if isinstance(node, ast.FunctionDef):
                positional = node.args.args[len(node.args.args) - len(node.args.defaults):]
                defaulted = list(zip(positional, node.args.defaults)) + list(zip(node.args.kwonlyargs, node.args.kw_defaults))
                callee = owner if node.name == "__init__" else node.name
                settable.update({(callee, arg.arg): ast.unparse(default) for arg, default in defaulted if default is not None})
    return names, settable


def exported(package):
    """'module.Class.name' of each numeric property (annotated ``int`` / ``float``) of a ``REGISTERED_STATS`` class."""
    registered = next(
        ast.literal_eval(node.value)
        for node in ast.parse(REGISTRY.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "REGISTERED_STATS"
    )
    return {
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(package.rglob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and cls.name in registered
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and "property" in map(ast.unparse, node.decorator_list)
        and ast.unparse(node.returns or ast.Constant(None)) in ("int", "float")
    }


def readers(package):
    """(scope -> Counter of identifiers, (callable or 'argv', keyword or '--flag') -> scope -> {value source})."""
    idents, passed = defaultdict(Counter), defaultdict(lambda: defaultdict(set))
    ci_text = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    idents["ci"].update(re.findall(r"\w+", ci_text))
    for flag, value in re.findall(r"(--[\w-]+)[ =]+(\S+)", ci_text):
        passed[("argv", flag)]["ci"].add(value)
    for directory, scope in SCOPE_OF_DIR.items():
        for path in sorted((ROOT / directory).rglob("*.py")):
            where = "pkg" if package in path.parents else "tests" if path.name.startswith("test_") else scope
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                words = [getattr(node, "id", None), getattr(node, "attr", None)]
                words += [alias.name for alias in getattr(node, "names", []) if isinstance(node, ast.ImportFrom)]
                idents[where].update(word for word in words if word)
                for kw in getattr(node, "keywords", []) if isinstance(node, ast.Call) else []:
                    callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
                    passed[(callee, kw.arg)][where].add(ast.unparse(kw.value))
                sequence = getattr(node, "elts", getattr(node, "args", []))  # a list / tuple literal or a call's arguments
                for flag, value in zip(sequence, sequence[1:]) if isinstance(sequence, list) else []:
                    if isinstance(flag, ast.Constant) and str(flag.value).startswith("--"):
                        passed[("argv", flag.value)][where].add(ast.unparse(value))
    return idents, passed


if __name__ == "__main__":
    totals = []
    for package in (ROOT / arg for arg in sys.argv[1:]):
        (names, settable), (idents, passed), registry = definitions(package), readers(package), exported(package)
        print(f"{package.relative_to(ROOT)}: {len(names)} names, {len(settable)} settable")
        unread = []
        for shown, lines in names.items():
            bare = shown.rsplit(".", 1)[1]
            counts = [idents[scope][bare] for scope in ("pkg", "lib", "examples")] + [int(shown in registry)]
            print(f"  {shown} [{lines} lines]", *(f"{scope}={count}" for scope, count in zip(("pkg", "lib", "examples", "registry"), counts)),
                  *(f"{scope}={idents[scope][bare]}" for scope in ("tests", "ci")))
            if not any(counts):
                unread.append(lines)
        totals.append(f"{package.relative_to(ROOT)} {len(unread)} names / {sum(unread)} lines")
        for (callee, keyword), default in settable.items():
            values = (f"{scope}: {', '.join(sorted(found))}" for scope, found in sorted(passed[(callee, keyword)].items()))
            print(f"  {callee}({keyword}={default[:48]}) | {' | '.join(values) or 'set by nobody'}")
    print("no reader outside tests: " + "; ".join(totals))
