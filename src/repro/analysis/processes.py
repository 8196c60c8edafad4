"""Process-safety rules (MP001-MP005) for code that forks.

Code that forks worker processes rests on four inter-process invariants
that a single-statement linter cannot see:

* **fork-before-threads ordering** — ``fork()`` in a process that already
  runs threads clones held locks and half-initialized state into the
  child (MP001);
* **exactly-once shared-memory cleanup** — a created segment must be
  closed on every exceptional path and either unlinked or handed off on
  every normal path (MP002);
* **bounded, timeout-guarded queue traffic** — an unbounded queue or a
  bare blocking ``get()`` turns a dead worker into a hung coordinator
  (MP003);
* **a picklable, ordering-safe, generation-tagged message protocol** —
  open handles and locks do not cross a spawn boundary, set iteration
  order is per-process, and untagged messages defeat the stale-delivery
  filter after a worker restart (MP004, MP005).

These rules run on the shared analysis engine: MP001 and MP002 solve
dataflow problems over per-function CFGs (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) — MP001 additionally consults the
project-wide call graph (:mod:`repro.analysis.callgraph`) to know which
calls may transitively fork — while MP003 and MP004 walk the same CFGs
statement-by-statement so each expression is inspected exactly once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .astutil import terminal_name, walk_functions
from .callgraph import CallGraph
from .cfg import (
    AMBIGUOUS,
    CFG,
    CFGNode,
    RETURN_VALUE,
    build_cfg,
)
from .dataflow import State, solve_forward
from .findings import (
    FileRule,
    Finding,
    PathScope,
    ProjectRule,
    THREADED_PATHS,
)
from .source import SourceFile

__all__ = [
    "ForkAfterThreadsRule",
    "ShmemLifecycleRule",
    "QueueDisciplineRule",
    "MessagePicklabilityRule",
    "GenerationTagRule",
    "PROCESS_RULES",
]

#: Paths that cross process boundaries: the durability layer, whose
#: recovery harness forks victim processes and whose WAL/checkpoint
#: directories are handed across process restarts.  ``dist/`` names no
#: package in ``src/``; it keeps the rule fixtures under
#: ``tests/fixtures/lint/dist/`` in scope.
PROCESS_PATHS = PathScope(
    include=("dist/", "durability/"),
    exclude=("analysis/",),
)

#: Constructors that start (or wrap machinery that starts) threads.
_THREAD_FACTORIES = {"Thread", "ThreadPoolExecutor", "WindowExecutor", "Timer"}

#: Calls that create a child process (``multiprocessing`` contexts all
#: route through a ``Process`` constructor; ``os.fork`` is the raw form).
_FORK_CALLS = {"Process", "fork", "forkpty"}

#: Lock/synchronization constructors that must not cross a pickle boundary.
_SYNC_FACTORIES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
}


def _calls_at(node: CFGNode) -> List[ast.Call]:
    """Every call expression evaluated *at* this CFG node."""
    calls: List[ast.Call] = []
    for expr in CFG.evaluated_exprs(node):
        calls.extend(c for c in ast.walk(expr) if isinstance(c, ast.Call))
    return calls


def _function_cfgs(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[str], ast.AST, CFG]]:
    """``(name, function node, CFG)`` for the module and every function."""
    for func in walk_functions(tree):
        name = getattr(func, "name", None)
        yield name, func, build_cfg(func)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# MP001 — fork after threads
# ----------------------------------------------------------------------
class ForkAfterThreadsRule(ProjectRule):
    """MP001: a fork-capable call reachable after thread creation."""

    id = "MP001"
    name = "process fork reachable after thread/executor creation"
    rationale = (
        "fork() clones only the calling thread: locks held by other "
        "threads stay locked forever in the child, and pool state is "
        "copied mid-mutation.  Workers must be forked before any thread "
        "or executor exists, or the fork must be justified (e.g. a "
        "spawn-context restart that shares no locked state)."
    )
    scope = THREADED_PATHS
    example = (
        "def serve(self):\n"
        "    pool = ThreadPoolExecutor(4)   # threads exist from here on\n"
        "    ...\n"
        "    self._restart_worker()         # MP001: may call Process()\n"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        graph = CallGraph.build(sources)
        forky = _FORK_CALLS | graph.reaches_call(set(_FORK_CALLS))
        for source in sources:
            if source.tree is None:
                continue
            yield from self._check_file(source, forky)

    def _check_file(
        self, source: SourceFile, forky: Set[str]
    ) -> Iterator[Finding]:
        assert source.tree is not None
        for func_name, _func, cfg in _function_cfgs(source.tree):
            if func_name is None:  # module level: no thread state machine
                continue

            def transfer(node: CFGNode, state: State) -> State:
                for call in _calls_at(node):
                    if terminal_name(call.func) in _THREAD_FACTORIES:
                        state["threads"] = True
                return state

            state_in, _ = solve_forward(
                cfg, transfer, {}, lambda a, b: bool(a) or bool(b)
            )
            for node in cfg.statement_nodes():
                if not state_in.get(node.index, {}).get("threads"):
                    continue
                for call in _calls_at(node):
                    callee = terminal_name(call.func)
                    if callee in forky:
                        yield self.finding(
                            source,
                            call.lineno,
                            call.col_offset,
                            f"`{callee}()` may fork a process, but "
                            f"`{func_name}` has already started threads "
                            "on this path; fork workers before creating "
                            "threads or executors",
                        )


# ----------------------------------------------------------------------
# MP002 — shared-memory segment lifecycle
# ----------------------------------------------------------------------
#: resource lattice, joined towards *least* progress so a leak on any
#: path survives the merge
_SHM_ORDER = {"created": 0, "closed": 1, "unlinked": 2, "escaped": 3}


def _shm_join(a: object, b: object) -> object:
    return a if _SHM_ORDER.get(str(a), 0) <= _SHM_ORDER.get(str(b), 0) else b


def _is_shm_create(call: ast.Call) -> bool:
    if terminal_name(call.func) != "SharedMemory":
        return False
    for keyword in call.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


class ShmemLifecycleRule(FileRule):
    """MP002: segment created without guaranteed close/unlink."""

    id = "MP002"
    name = "shared-memory segment without guaranteed cleanup"
    rationale = (
        "A SharedMemory segment created with create=True outlives the "
        "process: it must be close()d on every exceptional path (put the "
        "close in a finally/with) and, on normal paths, either unlink()ed "
        "or handed off to the consumer (returned as part of a spec).  "
        "Anything less leaks kernel objects on worker crashes — silently, "
        "run after run."
    )
    scope = PROCESS_PATHS
    example = (
        "def write(name, data):\n"
        "    shm = SharedMemory(create=True, size=len(data), name=name)\n"
        "    shm.buf[: len(data)] = data   # may raise -> segment leaks\n"
        "    shm.close()                   # MP002: not in a finally\n"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        for _name, func, cfg in _function_cfgs(source.tree):
            creations = self._creation_sites(func, cfg)
            if not creations:
                continue
            yield from self._check_function(source, cfg, creations)

    @staticmethod
    def _creation_sites(
        func: ast.AST, cfg: CFG
    ) -> Dict[str, Tuple[int, int]]:
        """``var -> (line, col)`` of ``var = SharedMemory(create=True)``."""
        sites: Dict[str, Tuple[int, int]] = {}
        for node in cfg.statement_nodes():
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _is_shm_create(stmt.value)
            ):
                sites[stmt.targets[0].id] = (stmt.lineno, stmt.col_offset)
        return sites

    def _check_function(
        self,
        source: SourceFile,
        cfg: CFG,
        creations: Dict[str, Tuple[int, int]],
    ) -> Iterator[Finding]:
        tracked = set(creations)

        def transfer(node: CFGNode, state: State) -> State:
            stmt = node.stmt
            if node.kind == "stmt" and isinstance(stmt, ast.Assign):
                target = stmt.targets[0] if len(stmt.targets) == 1 else None
                if isinstance(target, ast.Name) and target.id in tracked:
                    if isinstance(stmt.value, ast.Call) and _is_shm_create(
                        stmt.value
                    ):
                        state[target.id] = "created"
                    else:  # rebound to something else: obligation dropped
                        state.pop(target.id, None)
                    return state
            for call in _calls_at(node):
                # var.close() / var.unlink() progress the lifecycle ...
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in state
                    and func.attr in ("close", "unlink")
                ):
                    var = func.value.id
                    if func.attr == "close" and state[var] == "created":
                        state[var] = "closed"
                    elif func.attr == "unlink":
                        state[var] = "unlinked"
                    continue
                # ... and passing the handle itself to another callable
                # hands ownership off (attribute reads like shm.name or
                # shm.buf do not -- they pass derived values, not the
                # handle).
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in state:
                        state[arg.id] = "escaped"
            return state

        state_in, state_out = solve_forward(cfg, transfer, {}, _shm_join)

        reported: Set[Tuple[str, str]] = set()

        def report(var: str, key: str, message: str) -> Iterator[Finding]:
            if (var, key) in reported:
                return
            reported.add((var, key))
            line, col = creations[var]
            yield self.finding(source, line, col, message)

        # Normal exits: a value-bearing return may hand the segment off;
        # any other exit must have unlinked it.
        for pred in sorted(cfg.pred[cfg.exit]):
            kind = cfg.exit_kinds.get(pred, AMBIGUOUS)
            if kind in (RETURN_VALUE, AMBIGUOUS):
                continue
            out = state_out.get(pred, {})
            for var in creations:
                if out.get(var) in ("created", "closed"):
                    yield from report(
                        var,
                        "leak",
                        f"segment `{var}` is neither unlink()ed nor handed "
                        "off (returned) on a normal exit path; the kernel "
                        "object leaks",
                    )

        # Exceptional exit: close() must have been guaranteed (finally /
        # with) before the exception leaves the function.
        raise_state = state_in.get(cfg.raise_exit, {})
        for var in creations:
            if raise_state.get(var) == "created":
                yield from report(
                    var,
                    "exc",
                    f"segment `{var}` is not close()d on an exceptional "
                    "path; wrap the post-create work in try/finally with "
                    "`close()` in the finally block",
                )


# ----------------------------------------------------------------------
# MP003 — queue discipline
# ----------------------------------------------------------------------
class QueueDisciplineRule(FileRule):
    """MP003: unbounded queues / blocking gets without timeout."""

    id = "MP003"
    name = "unbounded queue or blocking get() without timeout"
    rationale = (
        "Coordinator paths must bound every queue (an unbounded queue "
        "turns a slow consumer into unbounded memory growth) and put a "
        "timeout on every blocking get() (a crashed worker otherwise "
        "hangs the coordinator forever instead of tripping the "
        "heartbeat/restart path)."
    )
    scope = PROCESS_PATHS
    example = (
        "q = ctx.Queue()          # MP003: no maxsize -> unbounded\n"
        "msg = q.get()            # MP003: no timeout -> hangs on crash\n"
        "msg = q.get(timeout=hb)  # ok\n"
    )

    _QUEUE_FACTORIES = {"Queue", "JoinableQueue"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        for _name, _func, cfg in _function_cfgs(source.tree):
            for node in cfg.statement_nodes():
                for call in _calls_at(node):
                    yield from self._check_call(source, call)

    def _check_call(
        self, source: SourceFile, call: ast.Call
    ) -> Iterator[Finding]:
        callee = terminal_name(call.func)
        if callee in self._QUEUE_FACTORIES:
            if not self._bounded(call):
                yield self.finding(
                    source,
                    call.lineno,
                    call.col_offset,
                    f"`{callee}()` without a positive maxsize is unbounded; "
                    "pass a capacity (backpressure is the only thing that "
                    "keeps a slow coordinator from buffering every window)",
                )
        elif callee == "SimpleQueue":
            yield self.finding(
                source,
                call.lineno,
                call.col_offset,
                "`SimpleQueue()` cannot be bounded; use `Queue(maxsize=...)`",
            )
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "get"
            and not call.args
            and not self._has_timeout(call)
        ):
            yield self.finding(
                source,
                call.lineno,
                call.col_offset,
                "blocking `get()` without a timeout hangs forever if the "
                "producer died; pass `timeout=` (or use `get_nowait()`)",
            )

    @staticmethod
    def _bounded(call: ast.Call) -> bool:
        size: Optional[ast.AST] = call.args[0] if call.args else None
        for keyword in call.keywords:
            if keyword.arg == "maxsize":
                size = keyword.value
        if size is None:
            return False
        if isinstance(size, ast.Constant):
            return isinstance(size.value, int) and size.value > 0
        return True  # non-constant capacity: assume configured

    @staticmethod
    def _has_timeout(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "timeout":
                return True
            if keyword.arg == "block" and (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            ):
                return True  # non-blocking get never hangs
        return False


# ----------------------------------------------------------------------
# MP004 — message picklability / ordering safety
# ----------------------------------------------------------------------
def _unsafe_kind(expr: ast.AST) -> Optional[str]:
    """Why ``expr`` must not cross a process boundary, if it must not."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set (iteration order is per-process)"
    if isinstance(expr, ast.Call):
        callee = terminal_name(expr.func)
        if callee in ("set", "frozenset"):
            return "set (iteration order is per-process)"
        if callee == "open":
            return "open file handle (not picklable)"
        if callee in _SYNC_FACTORIES:
            return f"{callee} (synchronization primitives do not pickle)"
    return None


class MessagePicklabilityRule(FileRule):
    """MP004: unsafe values flowing into worker-bound messages."""

    id = "MP004"
    name = "unpicklable or ordering-unsafe value in a cross-process message"
    rationale = (
        "Queue payloads are pickled at the boundary: open handles and "
        "locks fail (or worse, half-work under fork), and a set's "
        "iteration order differs per process, so any consumer that "
        "iterates it breaks the determinism guarantee.  Convert to "
        "sorted tuples/arrays before enqueueing."
    )
    scope = PROCESS_PATHS
    example = (
        "pending = {3, 1, 2}\n"
        "queue.put(pending)            # MP004: set crosses the boundary\n"
        "queue.put(sorted(pending))    # ok: ordered and picklable\n"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        for _name, _func, cfg in _function_cfgs(source.tree):
            yield from self._check_function(source, cfg)

    def _check_function(
        self, source: SourceFile, cfg: CFG
    ) -> Iterator[Finding]:
        def transfer(node: CFGNode, state: State) -> State:
            stmt = node.stmt
            if node.kind == "stmt" and isinstance(stmt, ast.Assign):
                if len(stmt.targets) == 1 and isinstance(
                    stmt.targets[0], ast.Name
                ):
                    kind = _unsafe_kind(stmt.value)
                    if kind is not None:
                        state[stmt.targets[0].id] = kind
                    else:
                        state.pop(stmt.targets[0].id, None)
            return state

        state_in, _ = solve_forward(
            cfg, transfer, {}, lambda a, b: a if str(a) <= str(b) else b
        )

        for node in cfg.statement_nodes():
            state = state_in.get(node.index, {})
            for call in _calls_at(node):
                if not self._is_message_bound(call):
                    continue
                args = list(call.args) + [kw.value for kw in call.keywords]
                for arg in args:
                    kind = _unsafe_kind(arg)
                    if kind is None and isinstance(arg, ast.Name):
                        kind_obj = state.get(arg.id)
                        kind = str(kind_obj) if kind_obj is not None else None
                    if kind is not None:
                        yield self.finding(
                            source,
                            arg.lineno,
                            arg.col_offset,
                            f"{kind} flows into a worker-bound message; "
                            "convert to an ordered, picklable form first",
                        )

    @staticmethod
    def _is_message_bound(call: ast.Call) -> bool:
        """``queue.put(...)`` or a ``*Message(...)`` construction."""
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "put",
            "put_nowait",
        ):
            return True
        callee = terminal_name(call.func)
        return callee is not None and callee.endswith("Message")


# ----------------------------------------------------------------------
# MP005 — generation tags
# ----------------------------------------------------------------------
class GenerationTagRule(FileRule):
    """MP005: message class without a generation field."""

    id = "MP005"
    name = "cross-process message class lacks a generation tag"
    rationale = (
        "After a worker restart, messages from the previous incarnation "
        "may still sit in the queue; the coordinator drops them by "
        "comparing a per-worker generation counter.  A message class "
        "without a `generation` field silently defeats that filter and "
        "double-counts windows."
    )
    scope = PROCESS_PATHS
    example = (
        "@dataclass(frozen=True)\n"
        "class ShardDoneMessage:   # MP005: no `generation` field\n"
        "    shard: int\n"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        classes = {
            node.name: node
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
        }
        for name, node in sorted(classes.items()):
            if not name.endswith("Message"):
                continue
            if "generation" not in self._fields(node, classes):
                yield self.finding(
                    source,
                    node.lineno,
                    node.col_offset,
                    f"message class `{name}` has no `generation` field; "
                    "the coordinator cannot drop stale deliveries from a "
                    "restarted worker without one",
                )

    def _fields(
        self,
        node: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        seen: Optional[Set[str]] = None,
    ) -> Set[str]:
        """Declared field names, including same-module base classes."""
        seen = set() if seen is None else seen
        if node.name in seen:
            return set()
        seen.add(node.name)
        fields: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        fields.add(target.id)
        for base in node.bases:
            base_name = terminal_name(base)
            if base_name in classes:
                fields |= self._fields(classes[base_name], classes, seen)
        return fields


PROCESS_RULES = (
    ForkAfterThreadsRule(),
    ShmemLifecycleRule(),
    QueueDisciplineRule(),
    MessagePicklabilityRule(),
    GenerationTagRule(),
)
