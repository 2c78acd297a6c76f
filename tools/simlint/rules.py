"""The simlint rule set.

Each rule encodes one coding contract the simulator's determinism or
statistics correctness depends on.  Rules are heuristic AST checks — false
negatives are acceptable, false positives are suppressed inline with
``# simlint: disable=SIMxxx`` or scoped out in ``simlint.toml``.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Iterator, List, Optional, Set, Tuple

from tools.simlint.engine import FileContext, Finding, ImportMap, Rule, register

# --------------------------------------------------------------------------- #
# SIM001 — no wall-clock time inside the simulator
# --------------------------------------------------------------------------- #
#: Calls that read the host machine's clock.  Any of these inside the device
#: model couples simulated behaviour to wall time and breaks replayability.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class NoWallClock(Rule):
    code = "SIM001"
    name = "no-wall-clock"
    rationale = (
        "Simulator code must advance simulated time only (EventLoop.now_us / "
        "explicit at_us clocks); reading the host clock makes replay "
        "timing-dependent and unreproducible."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield from self.emit(
                    ctx,
                    node,
                    f"wall-clock call {resolved}() in simulator code; "
                    "use simulated time (EventLoop.now_us / at_us) instead",
                )


# --------------------------------------------------------------------------- #
# SIM002 — randomness must be injected and seeded
# --------------------------------------------------------------------------- #
@register
class SeededRandomOnly(Rule):
    code = "SIM002"
    name = "seeded-random-only"
    rationale = (
        "Randomness must flow through an injected, explicitly seeded "
        "random.Random: the module-level API draws from shared hidden state, "
        "so results depend on import order and on every other caller."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "random.Random":
                if not node.args and not node.keywords:
                    yield from self.emit(
                        ctx,
                        node,
                        f"{resolved}() without a seed is entropy-seeded; "
                        "pass an explicit seed",
                    )
            elif (
                resolved.startswith("random.")
                and resolved.count(".") == 1
                and resolved != "random.SystemRandom"
            ):
                yield from self.emit(
                    ctx,
                    node,
                    f"module-level {resolved}() uses the shared global RNG; "
                    "thread a seeded random.Random instance through instead",
                )


# --------------------------------------------------------------------------- #
# SIM003 — no iteration over unordered sets where order feeds behaviour
# --------------------------------------------------------------------------- #
#: Builtins whose result depends on the iteration order of their argument.
#: ``sorted`` is excluded on purpose: it imposes a total order (ties in a
#: ``key=`` remain order-dependent, but that is the caller's explicit
#: contract to get right).  ``sum``/``min``/``max`` are included: float sums
#: are order-sensitive and min/max tie-break by first occurrence.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "min", "max", "sum", "next"}
)

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATIONS = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet"})
_CONTAINER_ANNOTATIONS = frozenset(
    {"list", "List", "dict", "Dict", "tuple", "Tuple", "Sequence", "Mapping",
     "defaultdict", "DefaultDict", "Optional"}
)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: When iterating: a dict built by dict.fromkeys(<set>) is tracked as a
#: set, so its .keys() is the set too.
_ITERABLE_SET_METHODS = _SET_METHODS | {"keys"}


def _annotation_kind(node: Optional[ast.AST]) -> Optional[str]:
    """Classify an annotation: ``"set"``, ``"container_of_set"`` or None.

    ``Set[int]`` is a set; ``List[Set[int]]`` / ``Dict[str, Set[int]]`` are
    containers whose *elements/values* are sets (indexing them yields a
    set); anything else is unknown.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return "set" if node.id in _SET_ANNOTATIONS else None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name in _SET_ANNOTATIONS:
            return "set"
        if base_name in _CONTAINER_ANNOTATIONS:
            args = node.slice
            elements = args.elts if isinstance(args, ast.Tuple) else [args]
            # The element (last type parameter: List[T] -> T, Dict[K, V] -> V)
            # determines what a subscript access yields.
            if elements and _annotation_kind(elements[-1]) == "set":
                return "container_of_set"
    return None


class _SetSymbols(ast.NodeVisitor):
    """Collects symbols known (heuristically) to hold sets.

    Tracked symbols are simple names (``free``) and self-attributes
    (``self._free_blocks``), keyed per enclosing function so locals of
    different functions do not alias.  Sources of set-ness:

    * assignment from a set literal / comprehension / ``set()`` /
      ``frozenset()`` call;
    * an annotation (``x: Set[int]``, ``self.y: List[Set[int]] = ...``);
    * ``dict.fromkeys(<set>)`` — the dict inherits the set's order.
    """

    def __init__(self) -> None:
        self.sets: Set[Tuple[str, str]] = set()
        self.containers: Set[Tuple[str, str]] = set()
        self._scope: List[str] = ["<module>"]

    # -- scope bookkeeping ------------------------------------------------ #
    def _key(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Name):
            return (self._scope[-1], node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            # self attributes live at class scope: visible from any method.
            return ("self", node.attr)
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- classification --------------------------------------------------- #
    def is_set(
        self,
        node: ast.AST,
        key_of: Callable[[ast.AST], Optional[Tuple[str, str]]],
        methods: FrozenSet[str],
    ) -> bool:
        """Whether ``node`` evaluates to a set, by the symbols known so far.

        ``key_of`` resolves a name / self-attribute to its symbol key (the
        collecting pass and the checking pass scope names differently);
        ``methods`` are the calls on a known set that yield its elements.
        """
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _SET_CONSTRUCTORS:
                return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # set-producing methods on a known set: a.union(b), a.copy(), ...
            if key_of(node.func.value) in self.sets and node.func.attr in methods:
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left, key_of, methods) or self.is_set(
                node.right, key_of, methods
            )
        if isinstance(node, ast.Subscript):
            # Indexing a container-of-sets (List[Set[int]], Dict[K, Set[V]])
            # yields a set: `pool = self._free_blocks[ch]`.
            if key_of(node.value) in self.containers:
                return True
        return key_of(node) in self.sets

    def _record(self, target: ast.AST, kind: Optional[str]) -> None:
        key = self._key(target)
        if key is None or kind is None:
            return
        if kind == "set":
            self.sets.add(key)
        elif kind == "container_of_set":
            self.containers.add(key)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node.target, _annotation_kind(node.annotation))
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and _annotation_kind(node.annotation) == "set":
            self.sets.add((self._scope[-1], node.arg))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        kind: Optional[str] = None
        if self.is_set(value, self._key, _SET_METHODS):
            kind = "set"
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "fromkeys"
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == "dict"
            and value.args
            and self.is_set(value.args[0], self._key, _SET_METHODS)
        ):
            # dict.fromkeys(a_set): the dict's order is the set's order.
            kind = "set"
        for target in node.targets:
            self._record(target, kind)
        self.generic_visit(node)


@register
class NoSetIteration(Rule):
    code = "SIM003"
    name = "no-set-iteration"
    rationale = (
        "Iterating a set (or anything derived from one) in scheduling, "
        "allocation, arbitration or GC-victim selection feeds hash-table "
        "layout into simulated behaviour; use insertion-ordered structures "
        "(dict keys, lists) or an explicit total order."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        symbols = _SetSymbols()
        symbols.visit(ctx.tree)

        scope_stack: List[str] = ["<module>"]

        def is_set_expr(node: ast.AST) -> bool:
            return symbols.is_set(node, key_of, _ITERABLE_SET_METHODS)

        def key_of(node: ast.AST) -> Optional[Tuple[str, str]]:
            known = symbols.sets | symbols.containers
            if isinstance(node, ast.Name):
                # Prefer the enclosing function's binding; fall back to a
                # module-level one (closures/globals referenced from methods).
                for candidate in ((scope_stack[-1], node.id), ("<module>", node.id)):
                    if candidate in known:
                        return candidate
                return (scope_stack[-1], node.id)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return ("self", node.attr)
            return None

        findings: List[Finding] = []

        def flag(node: ast.AST, how: str) -> None:
            findings.extend(
                self.emit(
                    ctx,
                    node,
                    f"{how} iterates unordered set {ast.unparse(node)!r}; order "
                    "feeds simulated behaviour — use an insertion-ordered "
                    "structure or an explicit total order",
                )
            )

        def walk(node: ast.AST) -> None:
            pushed = False
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope_stack.append(node.name)
                pushed = True
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                flag(node.iter, "for loop")
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        flag(comp.iter, "comprehension")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SENSITIVE_CALLS
                and node.args
                and is_set_expr(node.args[0])
            ):
                flag(node.args[0], f"{node.func.id}()")
            for child in ast.iter_child_nodes(node):
                walk(child)
            if pushed:
                scope_stack.pop()

        walk(ctx.tree)
        yield from iter(findings)


# --------------------------------------------------------------------------- #
# SIM004 — no float-timestamp equality
# --------------------------------------------------------------------------- #
def _timestamp_name(node: ast.AST) -> Optional[str]:
    """The identifier of a timestamp-like expression (``*_us`` / ``*_s``)."""
    if isinstance(node, ast.Name):
        ident: Optional[str] = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    elif isinstance(node, ast.Call):
        return _timestamp_name(node.func)
    else:
        return None
    if ident and (ident.endswith("_us") or ident.endswith("_s")):
        return ident
    return None


@register
class NoFloatTimestampEquality(Rule):
    code = "SIM004"
    name = "no-float-timestamp-equality"
    rationale = (
        "Timestamps are floats accumulated through arithmetic; exact ==/!= "
        "on them is representation-dependent.  Compare integer ticks, use "
        "ordering comparisons, or an explicit epsilon helper."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            comparators = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = comparators[index], comparators[index + 1]
                # `x_us == None` style is SIM-irrelevant (and a bug anyway).
                if any(
                    isinstance(side, ast.Constant) and side.value is None
                    for side in (left, right)
                ):
                    continue
                name = _timestamp_name(left) or _timestamp_name(right)
                if name is not None:
                    operator = "==" if isinstance(op, ast.Eq) else "!="
                    yield from self.emit(
                        ctx,
                        node,
                        f"float timestamp {name!r} compared with {operator}; "
                        "use integer ticks, ordering, or an epsilon helper",
                    )


# --------------------------------------------------------------------------- #
# SIM005 — no mutable default arguments
# --------------------------------------------------------------------------- #
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


@register
class NoMutableDefaults(Rule):
    code = "SIM005"
    name = "no-mutable-defaults"
    rationale = (
        "A mutable default is created once at definition time and shared by "
        "every call — state leaks across requests/replays and breaks "
        "run-to-run reproducibility."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)

        def is_mutable(default: ast.AST) -> bool:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                return True
            if isinstance(default, ast.Call):
                if isinstance(default.func, ast.Name) and default.func.id in _MUTABLE_CALLS:
                    return True
                resolved = imports.resolve(default.func)
                if resolved in _MUTABLE_CALLS:
                    return True
            return False

        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if is_mutable(default):
                    yield from self.emit(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and create inside the function",
                    )


# --------------------------------------------------------------------------- #
# SIM006 — stats counters are += monotone
# --------------------------------------------------------------------------- #
def _counter_fields(tree: ast.Module) -> Set[str]:
    """Counter field names declared by ``*Stats`` classes in this module.

    A counter is a class-level ``name: int = 0`` / ``name: float = 0.0``
    annotation (dataclass style) or a ``self.name = 0`` in ``__init__``.
    """
    counters: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Stats"):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.annotation, ast.Name)
                and stmt.annotation.id in ("int", "float")
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value in (0, 0.0)
            ):
                counters.add(stmt.target.id)
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Attribute)
                        and isinstance(sub.targets[0].value, ast.Name)
                        and sub.targets[0].value.id == "self"
                        and isinstance(sub.value, ast.Constant)
                        and sub.value.value in (0, 0.0)
                    ):
                        counters.add(sub.targets[0].attr)
    return counters


def _allowed_writer(name: str) -> bool:
    return name == "__init__" or name.startswith("reset")


@register
class MonotoneStatsCounters(Rule):
    code = "SIM006"
    name = "monotone-stats-counters"
    rationale = (
        "Statistics counters feed summary/merge semantics (and the future "
        "fleet merger sums them across devices): writes must be += "
        "increments so merging stays additive.  Raw reassignment belongs "
        "only in __init__/reset()."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        counters = _counter_fields(ctx.tree)
        if not counters:
            return

        def walk(node: ast.AST, func: Optional[str]) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                child_func = func
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_func = child.name
                if func is not None and not _allowed_writer(func):
                    if isinstance(child, ast.Assign):
                        for target in child.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr in counters
                            ):
                                yield from self.emit(
                                    ctx,
                                    child,
                                    f"raw reassignment of stats counter "
                                    f"{target.attr!r} outside __init__/reset; "
                                    "counters must stay += monotone for merge "
                                    "semantics",
                                )
                    elif isinstance(child, ast.AugAssign) and not isinstance(
                        child.op, ast.Add
                    ):
                        target = child.target
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr in counters
                        ):
                            yield from self.emit(
                                ctx,
                                child,
                                f"non-additive update of stats counter "
                                f"{target.attr!r}; counters must stay += "
                                "monotone for merge semantics",
                            )
                yield from walk(child, child_func)

        yield from walk(ctx.tree, None)


# --------------------------------------------------------------------------- #
# SIM008 — observer purity in the telemetry layer
# --------------------------------------------------------------------------- #
#: Method names that drive or mutate the simulation.  Deliberately short
#: and high-confidence: the generic attribute-assignment check catches
#: arbitrary state writes, so this set only needs the sanctioned entry
#: points an observer could be tempted to call.  ``write``/``read`` are
#: absent (file handles), as are ``append``/``pop``/``update`` (an
#: observer's own collections).
_SIM008_MUTATORS = frozenset(
    {
        "submit",
        "power_fail",
        "erase",
        "erase_block",
        "program",
        "program_run",
        "recover",
        "run",
        "run_frontend",
        "flush",
        "begin_measurement",
        "quiesce",
        "maybe_start",
        "drain",
        "discard",
    }
)


@register
class ObserverPurity(Rule):
    code = "SIM008"
    name = "observer-purity"
    rationale = (
        "Telemetry must observe, never steer: code under src/repro/obs "
        "runs inside the event loop's observer fan-out, so a stray "
        "attribute write or a call into a simulation entry point would "
        "perturb scheduling and break the digests-identical guarantee.  "
        "Observers may only assign to self; driving the sim belongs in "
        "scenario drivers with an explicit disable."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: list = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif node.value is not None:
                    targets = [node.target]
                for target in targets:
                    # Tuple targets: `a.x, b = ...` unpacks into elements.
                    elements = (
                        list(target.elts)
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for element in elements:
                        if not isinstance(element, ast.Attribute):
                            continue
                        base = element.value
                        # `self.anything = ...` (but not `self.x.y = ...`)
                        # is the observer's own state; everything else is
                        # foreign.
                        if isinstance(base, ast.Name) and base.id == "self":
                            continue
                        yield from self.emit(
                            ctx,
                            node,
                            f"observer assigns to foreign attribute "
                            f"{ast.unparse(element)!r}; telemetry may only "
                            "mutate self",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _SIM008_MUTATORS
                ):
                    yield from self.emit(
                        ctx,
                        node,
                        f"observer calls simulation mutator "
                        f"{ast.unparse(func)!r}; telemetry must not drive "
                        "the sim",
                    )
