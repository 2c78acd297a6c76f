"""Settable-value census: ``python -m tools.option_census [SURFACE ...]``.

For every config / scenario dataclass under ``src/`` and every entry point in ``ENTRY_POINTS``: each field, its
default and the distinct values callers pass, by who calls — ``lib`` (``src``, ``benchmarks``, ``tools``),
``examples``, ``tests`` (``tests/`` and any ``test_*.py``).  ``~`` marks a value arriving through a
forwarder (``replace()``, ``dict()``, ``*_setup()``, an ``axis_grid`` axis), attributed to
every surface that has all the fields the call names.  Then every ``os.environ`` read: the total counts the
``lib`` ones, and the examples' and tests' reads are printed on a line of their own.  A field whose
``lib`` column (plus the default, if a ``lib`` caller relies on it) shows one value is a constant.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPE_OF_DIR = {"src": "lib", "benchmarks": "lib", "tools": "lib", "examples": "examples", "tests": "tests"}
SUFFIXES = ("Config", "Setup", "Scenario", "Options", "Budget")
#: Dataclasses that are settable surfaces although their names carry none of the suffixes.
DATACLASSES = ("TenantWorkload",)
#: Non-dataclass entry points, by the call name that sets them: a class name sets its ``__init__``.
ENTRY_POINTS = {
    "SimulatedSSD": "SimulatedSSD.__init__",
    "HostInterface": "HostInterface.__init__",
    "add_namespace": "HostInterface.add_namespace",
    "Namespace": "Namespace.__init__",
    "SubmissionQueue": "SubmissionQueue.__init__",
    "TokenBucket": "TokenBucket.__init__",
}


def parsed(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"))


def surfaces():
    """surface name -> {field: default source}, in declaration order."""
    found = {}
    for _, tree in parsed("src"):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if (cls.name.endswith(SUFFIXES) or cls.name in DATACLASSES) and cls.decorator_list:
                fields = (stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign))
                found[cls.name] = {f.target.id: ast.unparse(f.value) if f.value else "<required>" for f in fields}
            for method in (s for s in cls.body if f"{cls.name}.{getattr(s, 'name', '')}" in ENTRY_POINTS.values()):
                args, defaults = method.args.args[1:], [ast.unparse(d) for d in method.args.defaults]
                sources = ["<required>"] * (len(args) - len(defaults)) + defaults
                found[f"{cls.name}.{method.name}"] = {arg.arg: src for arg, src in zip(args, sources)}
    return found


def census(found):
    """(surface -> field -> scope -> {value source}, scope -> [environment reads])."""
    uses = defaultdict(lambda: defaultdict(lambda: defaultdict(set)))
    environ = defaultdict(list)
    for directory, scope in SCOPE_OF_DIR.items():
        for path, tree in parsed(directory):
            where = "tests" if path.name.startswith("test_") else scope
            for node in ast.walk(tree):
                if isinstance(node, (ast.Call, ast.Subscript)):
                    target = ast.unparse(node.func if isinstance(node, ast.Call) else node.value)
                    if target in ("os.environ", "os.environ.get", "os.getenv"):
                        environ[where].append(f"{path}:{node.lineno}: {ast.unparse(node)}")
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                surface = ENTRY_POINTS.get(name, name)
                passed = [(kw.arg, ast.unparse(kw.value)) for kw in node.keywords if kw.arg]
                if surface in found:
                    for field, value in list(zip(found[surface], map(ast.unparse, node.args))) + passed:
                        uses[surface][field][where].add(value)
                elif name in ("replace", "dict", "axis_grid") or name.endswith("_setup"):
                    if name == "axis_grid" and len(node.args) > 2 and isinstance(node.args[1], ast.Constant):
                        passed.append((node.args[1].value, ast.unparse(node.args[2])))
                    for surface, fields in found.items():
                        if passed and all(field in fields for field, _ in passed):
                            for field, value in passed:
                                uses[surface][field][where].add("~" + value)
    return uses, environ


if __name__ == "__main__":
    found = surfaces()
    uses, environ = census(found)
    chosen = sys.argv[1:] or sorted(found)
    for surface in chosen:
        print(f"{surface}: {len(found.get(surface, {}))} settable" + ("" if surface in found else " (not defined)"))
        for field, default in found.get(surface, {}).items():
            columns = (f"{scope}: {', '.join(sorted(v))}" for scope, v in sorted(uses[surface][field].items()))
            print(f"  {field} = {default} | {' | '.join(columns) or 'set by nobody'}")
    lib_reads = environ.pop("lib", [])
    print(f"os.environ reads: {len(lib_reads)}", *lib_reads, sep="\n  ")
    other_reads = [read for scope in sorted(environ) for read in environ[scope]]
    print(f"os.environ reads in examples / tests (not in the total): {len(other_reads)}", *other_reads, sep="\n  ")
    print(f"total settable: {sum(len(found.get(s, {})) for s in chosen) + len(lib_reads)} ({' + '.join(chosen)} + environ)")
