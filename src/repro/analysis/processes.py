"""Process-safety rules (MP001, MP003) for code that forks.

Code that forks worker processes (the durability layer's recovery
harness forks its victim runs) rests on two inter-process invariants
that a single-statement linter cannot see:

* **fork-before-threads ordering** — ``fork()`` in a process that already
  runs threads clones held locks and half-initialized state into the
  child (MP001);
* **bounded, timeout-guarded queue traffic** — an unbounded queue or a
  bare blocking ``get()`` turns a dead worker into a hung coordinator
  (MP003).

Both rules run on the shared analysis engine: MP001 solves a dataflow
problem over per-function CFGs (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) and consults the project-wide call graph
(:mod:`repro.analysis.callgraph`) to know which calls may transitively
fork, while MP003 walks the same CFGs statement-by-statement so each
expression is inspected exactly once.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .astutil import terminal_name, walk_functions
from .callgraph import CallGraph
from .cfg import CFG, CFGNode, build_cfg
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
    "QueueDisciplineRule",
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


def _calls_at(node: CFGNode) -> List[ast.Call]:
    """Every call expression evaluated *at* this CFG node."""
    calls: List[ast.Call] = []
    for expr in CFG.evaluated_exprs(node):
        calls.extend(c for c in ast.walk(expr) if isinstance(c, ast.Call))
    return calls


def _function_cfgs(tree: ast.AST) -> Iterator[Tuple[Optional[str], CFG]]:
    """``(name, CFG)`` for the module and every function."""
    for func in walk_functions(tree):
        name = getattr(func, "name", None)
        yield name, build_cfg(func)  # type: ignore[arg-type]


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
        for func_name, cfg in _function_cfgs(source.tree):
            if func_name is None:  # module level: no thread state machine
                continue

            def transfer(node: CFGNode, state: State) -> State:
                for call in _calls_at(node):
                    if terminal_name(call.func) in _THREAD_FACTORIES:
                        state["threads"] = True
                return state

            state_in = solve_forward(
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
        for _name, cfg in _function_cfgs(source.tree):
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


PROCESS_RULES = (
    ForkAfterThreadsRule(),
    QueueDisciplineRule(),
)
