"""Determinism rules (DET001-DET003).

The serving layer promises bit-identical parity between the online and
offline pipelines (``docs/serving.md``), and every evaluation artifact is
regenerated from fixed seeds.  These rules mechanically enforce the three
properties that parity rests on, in the planning / simulation / serving
paths (:data:`~repro.analysis.findings.DETERMINISTIC_PATHS`):

* **DET001** — no wall-clock reads outside the stats module.  Results
  must be pure functions of the workload; wall-clock belongs only to
  service telemetry, which lives in ``serving/stats.py`` by design.
* **DET002** — no unseeded randomness.  ``np.random.default_rng()``
  without a seed, the legacy ``np.random.*`` global generator, and the
  stdlib ``random`` module's global functions all draw from process-level
  state that varies run to run.
* **DET003** — no order-sensitive accumulation over unordered iterables.
  Set iteration order depends on the per-process hash seed
  (``PYTHONHASHSEED``); folding floats, appending to lists, or joining
  strings in that order makes results differ across runs.  Dicts built
  *from* sets (``{k: ... for k in some_set}``, ``dict.fromkeys(s)``)
  inherit the problem through their insertion order, so iterating their
  ``.values()``/``.keys()``/``.items()`` is flagged too.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

from .astutil import ImportMap, dotted_name
from .findings import DETERMINISTIC_PATHS, FileRule, Finding
from .source import SourceFile

__all__ = [
    "WallClockRule",
    "UnseededRandomRule",
    "UnorderedAccumulationRule",
    "DETERMINISM_RULES",
    "fixpoint",
]

T = TypeVar("T")

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_NP_GLOBAL_RNG = {
    "numpy.random." + name
    for name in (
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "poisson", "seed",
    )
}

_STDLIB_RANDOM = {
    "random." + name
    for name in (
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "gauss", "normalvariate", "betavariate",
        "expovariate", "seed", "getrandbits", "triangular",
    )
}


class WallClockRule(FileRule):
    """DET001: wall-clock reads in deterministic paths."""

    id = "DET001"
    name = "wall-clock read in a deterministic path"
    rationale = (
        "Served results must be pure functions of the workload; the only "
        "module allowed to observe wall-clock time is serving/stats.py "
        "(telemetry), which this scope excludes."
    )
    scope = DETERMINISTIC_PATHS

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        imports = ImportMap(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(
                    source,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read `{resolved}()` in a deterministic path; "
                    "route timing through repro.serving.stats",
                )


class UnseededRandomRule(FileRule):
    """DET002: unseeded random number generation."""

    id = "DET002"
    name = "unseeded random number generation"
    rationale = (
        "Planning and simulation must reproduce bit-identically from a "
        "seed; process-global RNG state breaks replay and the serving "
        "parity tests."
    )
    scope = DETERMINISTIC_PATHS

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        imports = ImportMap(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "numpy.random.default_rng":
                if self._unseeded(node):
                    yield self.finding(
                        source,
                        node.lineno,
                        node.col_offset,
                        "np.random.default_rng() without a seed; pass an "
                        "explicit seed (or a seeded Generator) instead",
                    )
            elif resolved in _NP_GLOBAL_RNG:
                yield self.finding(
                    source,
                    node.lineno,
                    node.col_offset,
                    f"legacy global generator `{resolved}()`; use a seeded "
                    "np.random.default_rng(seed) Generator",
                )
            elif resolved in _STDLIB_RANDOM:
                yield self.finding(
                    source,
                    node.lineno,
                    node.col_offset,
                    f"stdlib `{resolved}()` draws from process-global state; "
                    "use a seeded np.random.default_rng(seed)",
                )

    @staticmethod
    def _unseeded(call: ast.Call) -> bool:
        if call.args:
            first = call.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in call.keywords:
            if keyword.arg == "seed":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                )
        return True


def fixpoint(step: Callable[[T], T], initial: T) -> T:
    """Iterate ``step`` from ``initial`` until the value stops changing.

    DET003 iterates its whole-module binding table here, so set-taint
    propagates through name chains.  ``step`` must be monotone on a
    finite domain.
    """
    current = initial
    while True:
        after = step(current)
        if after == current:
            return current
        current = after


class UnorderedAccumulationRule(FileRule):
    """DET003: order-sensitive accumulation over unordered iterables."""

    id = "DET003"
    name = "order-sensitive accumulation over an unordered iterable"
    rationale = (
        "Set iteration order follows the per-process hash seed; float "
        "sums, appends, and joins over it differ across runs, which the "
        "offline/online parity guarantee cannot tolerate.  Sort first "
        "(`sorted(...)`) to pin the fold order."
    )
    scope = DETERMINISTIC_PATHS

    _MUTATORS = {"append", "extend", "add", "insert", "appendleft"}
    _REDUCERS = {"sum"}  # math.fsum is exactly rounded -> order-independent

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        imports = ImportMap(source.tree)
        setish_names, unordered_dict_names = self._collect_bindings(
            source.tree, imports
        )
        tracker = _UnorderedTracker(imports, setish_names, unordered_dict_names)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and tracker.is_unordered(node.iter):
                if self._accumulates(node):
                    yield self.finding(
                        source,
                        node.lineno,
                        node.col_offset,
                        "for-loop over an unordered iterable accumulates "
                        "order-sensitively; iterate `sorted(...)` instead",
                    )
            elif isinstance(node, ast.Call):
                reduced = self._reduced_iterable(node, imports)
                if reduced is not None and tracker.is_unordered(reduced):
                    yield self.finding(
                        source,
                        node.lineno,
                        node.col_offset,
                        "order-sensitive reduction over an unordered "
                        "iterable; reduce over `sorted(...)` instead",
                    )

    # ------------------------------------------------------------------
    # What counts as accumulation
    # ------------------------------------------------------------------
    def _accumulates(self, loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                return True
        return False

    def _reduced_iterable(
        self, call: ast.Call, imports: ImportMap
    ) -> Optional[ast.AST]:
        """The iterable argument if ``call`` is an order-sensitive reduce."""
        resolved = imports.resolve(call.func)
        is_join = (
            isinstance(call.func, ast.Attribute) and call.func.attr == "join"
        )
        is_reduce = resolved == "functools.reduce"
        if resolved in self._REDUCERS or is_join:
            arg_index = 0
        elif is_reduce:
            arg_index = 1
        else:
            return None
        if len(call.args) <= arg_index:
            return None
        arg = call.args[arg_index]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            return arg.generators[0].iter
        return arg

    # ------------------------------------------------------------------
    # What counts as unordered
    # ------------------------------------------------------------------
    def _collect_bindings(
        self, tree: ast.AST, imports: ImportMap
    ) -> Tuple[Set[str], Set[str]]:
        """Names bound (only) to set-ish / set-derived-dict expressions.

        Tracked flow-insensitively over the whole module: a name counts
        as unordered only if *every* assignment to it is unordered, so a
        later ``xs = sorted(xs)`` rebinding clears it.  Iterated to a
        fixpoint (:func:`fixpoint`) so taint
        chains through names (``live = set(ks)`` then
        ``table = {k: 0 for k in live}``).
        """
        assigns: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            name = self._bind_name(node.targets[0])
            if name is not None:
                assigns.append((name, node.value))

        def step(
            current: Tuple[frozenset, frozenset]
        ) -> Tuple[frozenset, frozenset]:
            setish, dictish = current
            probe = _UnorderedTracker(imports, set(setish), set(dictish))
            set_flags: Dict[str, bool] = {}
            dict_flags: Dict[str, bool] = {}
            for name, value in assigns:
                is_set = probe.is_setish(value)
                is_udict = probe.is_unordered_dict(value)
                set_flags[name] = set_flags.get(name, True) and is_set
                dict_flags[name] = dict_flags.get(name, True) and is_udict
            return (
                frozenset(n for n, flag in set_flags.items() if flag),
                frozenset(n for n, flag in dict_flags.items() if flag),
            )

        setish, dictish = fixpoint(step, (frozenset(), frozenset()))
        return set(setish), set(dictish)

    @staticmethod
    def _bind_name(target: ast.AST) -> Optional[str]:
        """``x`` or ``self.x`` targets; anything fancier is ignored."""
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None


class _UnorderedTracker:
    """Classifies expressions as set-ish / set-derived-dict / unordered."""

    _SET_CALLS = {"set", "frozenset"}
    _SET_METHODS = {
        "union", "intersection", "difference", "symmetric_difference", "copy",
    }

    def __init__(
        self,
        imports: ImportMap,
        setish_names: Set[str],
        unordered_dict_names: Set[str],
    ):
        self.imports = imports
        self.setish_names = setish_names
        self.unordered_dict_names = unordered_dict_names

    def _name_of(self, node: ast.AST) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        return dotted if dotted.count(".") <= 1 else None

    def is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) or isinstance(node, ast.Attribute):
            name = self._name_of(node)
            return name in self.setish_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_setish(node.left) or self.is_setish(node.right)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                return node.func.id in self._SET_CALLS
            if isinstance(node.func, ast.Attribute):
                return (
                    node.func.attr in self._SET_METHODS
                    and self.is_setish(node.func.value)
                )
        return False

    def is_unordered_dict(self, node: ast.AST) -> bool:
        """A dict whose insertion order came from iterating a set."""
        if isinstance(node, ast.DictComp):
            return self.is_setish(node.generators[0].iter)
        if isinstance(node, ast.Call):
            resolved = self.imports.resolve(node.func)
            if resolved == "dict.fromkeys" and node.args:
                return self.is_setish(node.args[0])
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self._name_of(node) in self.unordered_dict_names
        return False

    def is_unordered(self, node: ast.AST) -> bool:
        """Whether iterating ``node`` yields a hash-seed-dependent order."""
        if self.is_setish(node):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in {"values", "keys", "items"} and not node.args:
                return self.is_unordered_dict(node.func.value)
        return self.is_unordered_dict(node)


DETERMINISM_RULES = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedAccumulationRule(),
)
