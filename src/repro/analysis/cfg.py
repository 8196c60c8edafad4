"""AST -> intraprocedural control-flow graph.

The CFG is the substrate of the dataflow rules (``analysis/dataflow.py``
solves over it): one node per *statement*, plus synthetic entry / exit /
raise-exit nodes and synthetic cleanup nodes for ``finally`` blocks and
``with`` exits.  The builder models the edges the process-safety rules
depend on:

* **branches and loops** — ``if``/``while``/``for`` with back edges and
  zero-iteration exits (``while True`` conservatively keeps an exit edge;
  infeasible paths are acceptable, missed paths are not);
* **try/except/else/finally** — every statement inside a ``try`` (or
  ``with``) body gets an implicit exception edge to the innermost
  handler dispatch / cleanup node; ``finally`` bodies are built once and
  conservatively continue to *every* continuation that can enter them
  (normal successor, enclosing exception target, function exit);
* **with** — the body's exception edges route through a synthetic
  ``with_end`` node carrying the ``With`` statement, so transfer
  functions can model ``__exit__`` cleanup on both the normal and the
  exceptional path;
* **abrupt exits** — ``return``/``break``/``continue``/``raise`` route
  through the pending cleanup (finally / with) stack before reaching
  their targets.

Exception edges are marked via :attr:`CFG.exc_edges`; the solver carries
the join of the raising statement's pre- and post-state over them (its
effect may or may not have happened).  Statements outside any
``try``/``with`` body get no implicit exception edge: the CFG does not
assume every line can throw.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["CFGNode", "CFG", "build_cfg"]

FunctionLike = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic structural marker."""

    index: int
    #: the statement this node executes (``None`` for synthetic nodes)
    stmt: Optional[ast.stmt]
    #: ``"stmt"``, ``"entry"``, ``"exit"``, ``"raise_exit"``,
    #: ``"with_end"`` (stmt is the ``With``), or ``"finally"`` (stmt is
    #: the ``Try`` whose finalbody follows)
    kind: str = "stmt"


@dataclass
class CFG:
    """The control-flow graph of one function (or module) body."""

    nodes: List[CFGNode] = field(default_factory=list)
    succ: Dict[int, Set[int]] = field(default_factory=dict)
    pred: Dict[int, Set[int]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2
    #: edges that model an exception in flight (solver uses the source's
    #: pre-state on these, since the raising statement's effect may not
    #: have happened)
    exc_edges: Set[Tuple[int, int]] = field(default_factory=set)

    def add_node(self, stmt: Optional[ast.stmt], kind: str = "stmt") -> int:
        node = CFGNode(index=len(self.nodes), stmt=stmt, kind=kind)
        self.nodes.append(node)
        self.succ[node.index] = set()
        self.pred[node.index] = set()
        return node.index

    def add_edge(self, src: int, dst: int, exc: bool = False) -> None:
        self.succ[src].add(dst)
        self.pred[dst].add(src)
        if exc:
            self.exc_edges.add((src, dst))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def statement_nodes(self) -> List[CFGNode]:
        """The non-synthetic nodes, in creation (roughly source) order."""
        return [n for n in self.nodes if n.kind == "stmt"]

    @staticmethod
    def evaluated_exprs(node: CFGNode) -> List[ast.AST]:
        """The expression subtrees actually evaluated *at* ``node``.

        A compound statement's head node evaluates only its own
        expressions (an ``if``'s test, a ``for``'s iterable, a ``with``'s
        context managers) — the body statements are separate nodes, so
        transfer functions must not :func:`ast.walk` the whole compound
        statement.  Synthetic nodes (``finally``, ``with_end``,
        ``dispatch``) evaluate nothing.
        """
        stmt = node.stmt
        if stmt is None or node.kind != "stmt":
            return []
        if isinstance(stmt, ast.If):
            return [stmt.test]
        if isinstance(stmt, ast.While):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter, stmt.target]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return list(stmt.items)
        if isinstance(stmt, ast.Try):  # pragma: no cover - heads are synthetic
            return []
        if isinstance(stmt, ast.Return):
            return [] if stmt.value is None else [stmt.value]
        if isinstance(stmt, ast.Raise):
            return [e for e in (stmt.exc, stmt.cause) if e is not None]
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return []  # opaque nested definition
        return [stmt]


class _Builder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self.cfg.entry = self.cfg.add_node(None, kind="entry")
        self.cfg.exit = self.cfg.add_node(None, kind="exit")
        self.cfg.raise_exit = self.cfg.add_node(None, kind="raise_exit")
        #: innermost implicit-exception target (``None`` outside try/with)
        self._exc_stack: List[Optional[int]] = [None]
        #: pending cleanup (finally / with_end) entry nodes, innermost last
        self._cleanup_stack: List[int] = []
        #: abrupt-continuation kinds routed into each cleanup node
        self._cleanup_kinds: Dict[int, Set[str]] = {}
        #: (continue target, break frontier collector), innermost last
        self._loop_stack: List[Tuple[int, List[int]]] = []

    # -- helpers --------------------------------------------------------
    def _connect(self, frontier: Sequence[int], node: int) -> None:
        for src in frontier:
            self.cfg.add_edge(src, node)

    def _exc_target(self) -> Optional[int]:
        return self._exc_stack[-1]

    def _implicit_exc_edge(self, node: int) -> None:
        target = self._exc_target()
        if target is not None:
            self.cfg.add_edge(node, target, exc=True)

    def _route_abrupt(self, node: int, kind: str, target: int) -> None:
        """Send ``node``'s abrupt exit through pending cleanup, or direct."""
        if self._cleanup_stack:
            cleanup = self._cleanup_stack[-1]
            self.cfg.add_edge(node, cleanup)
            self._cleanup_kinds.setdefault(cleanup, set()).add(kind)
        else:
            self.cfg.add_edge(node, target)

    # -- statement dispatch ---------------------------------------------
    def build_block(
        self, stmts: Sequence[ast.stmt], frontier: List[int]
    ) -> List[int]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after an abrupt statement
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _build_stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._build_return(stmt, frontier)
        if isinstance(stmt, ast.Raise):
            return self._build_raise(stmt, frontier)
        if isinstance(stmt, ast.Break):
            return self._build_break(stmt, frontier)
        if isinstance(stmt, ast.Continue):
            return self._build_continue(stmt, frontier)
        # Simple statement (incl. nested def/class, which are opaque).
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        self._implicit_exc_edge(node)
        return [node]

    def _build_if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        self._implicit_exc_edge(node)
        then_frontier = self.build_block(stmt.body, [node])
        else_frontier = (
            self.build_block(stmt.orelse, [node]) if stmt.orelse else [node]
        )
        return then_frontier + else_frontier

    def _build_loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], frontier: List[int]
    ) -> List[int]:
        head = self.cfg.add_node(stmt)
        self._connect(frontier, head)
        self._implicit_exc_edge(head)
        breaks: List[int] = []
        self._loop_stack.append((head, breaks))
        body_frontier = self.build_block(stmt.body, [head])
        self._connect(body_frontier, head)  # back edge
        self._loop_stack.pop()
        exit_frontier = (
            self.build_block(stmt.orelse, [head]) if stmt.orelse else [head]
        )
        return exit_frontier + breaks

    def _build_return(self, stmt: ast.Return, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        self._implicit_exc_edge(node)
        self._route_abrupt(node, "return", self.cfg.exit)
        return []

    def _build_raise(self, stmt: ast.Raise, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        target = self._exc_target()
        if target is not None:
            self.cfg.add_edge(node, target, exc=True)
        elif self._cleanup_stack:
            cleanup = self._cleanup_stack[-1]
            self.cfg.add_edge(node, cleanup, exc=True)
            self._cleanup_kinds.setdefault(cleanup, set()).add("raise")
        else:
            self.cfg.add_edge(node, self.cfg.raise_exit, exc=True)
        return []

    def _build_break(self, stmt: ast.Break, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        if self._loop_stack:
            if self._cleanup_stack:
                cleanup = self._cleanup_stack[-1]
                self.cfg.add_edge(node, cleanup)
                self._cleanup_kinds.setdefault(cleanup, set()).add("break")
            else:
                self._loop_stack[-1][1].append(node)
        return []

    def _build_continue(self, stmt: ast.Continue, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        if self._loop_stack:
            self._route_abrupt(node, "continue", self._loop_stack[-1][0])
        return []

    # -- structured statements ------------------------------------------
    def _build_with(
        self, stmt: Union[ast.With, ast.AsyncWith], frontier: List[int]
    ) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._connect(frontier, node)
        self._implicit_exc_edge(node)
        with_end = self.cfg.add_node(stmt, kind="with_end")
        self._exc_stack.append(with_end)
        self._cleanup_stack.append(with_end)
        body_frontier = self.build_block(stmt.body, [node])
        self._cleanup_stack.pop()
        self._exc_stack.pop()
        self._connect(body_frontier, with_end)
        self._finish_cleanup(with_end, [with_end])
        return [with_end]

    def _build_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        has_finally = bool(stmt.finalbody)
        fin_entry = (
            self.cfg.add_node(stmt, kind="finally") if has_finally else None
        )
        if fin_entry is not None:
            self._cleanup_stack.append(fin_entry)

        # Where does an exception inside the body go?
        dispatch: Optional[int] = None
        if stmt.handlers:
            dispatch = self.cfg.add_node(stmt, kind="dispatch")
        body_exc_target = dispatch if dispatch is not None else fin_entry
        self._exc_stack.append(
            body_exc_target if body_exc_target is not None else self._exc_target()
        )
        body_frontier = self.build_block(stmt.body, list(frontier))
        self._exc_stack.pop()

        else_frontier = (
            self.build_block(stmt.orelse, body_frontier)
            if stmt.orelse
            else body_frontier
        )

        handler_frontiers: List[int] = []
        if dispatch is not None:
            # Handler bodies raise outward: to the finally if present,
            # else to the enclosing target.
            self._exc_stack.append(
                fin_entry if fin_entry is not None else self._exc_target()
            )
            for handler in stmt.handlers:
                handler_frontiers.extend(
                    self.build_block(handler.body, [dispatch])
                )
            self._exc_stack.pop()
            # The dispatch may match no handler: the exception continues
            # to the finally / enclosing target / function raise-exit.
            # A bare ``except:`` or ``except BaseException:`` catches
            # everything, so no exception escapes the dispatch.
            if not self._has_catch_all(stmt.handlers):
                self._propagate_exception(dispatch, fin_entry)

        normal_frontier = else_frontier + handler_frontiers
        if fin_entry is None:
            return normal_frontier

        self._cleanup_stack.pop()
        self._connect(normal_frontier, fin_entry)
        fin_frontier = self.build_block(stmt.finalbody, [fin_entry])
        self._finish_cleanup(fin_entry, fin_frontier)
        return fin_frontier

    @staticmethod
    def _has_catch_all(handlers: List[ast.ExceptHandler]) -> bool:
        for handler in handlers:
            if handler.type is None:
                return True
            if (
                isinstance(handler.type, ast.Name)
                and handler.type.id == "BaseException"
            ):
                return True
        return False

    def _propagate_exception(self, node: int, fin_entry: Optional[int]) -> None:
        """An uncaught exception at ``node`` continues outward."""
        if fin_entry is not None:
            self.cfg.add_edge(node, fin_entry, exc=True)
            self._cleanup_kinds.setdefault(fin_entry, set()).add("raise")
            return
        target = self._exc_target()
        if target is not None:
            self.cfg.add_edge(node, target, exc=True)
        else:
            self.cfg.add_edge(node, self.cfg.raise_exit, exc=True)

    def _finish_cleanup(self, entry: int, end_frontier: List[int]) -> None:
        """Continue a completed cleanup body to every continuation that
        can have entered it (conservative join of the routed kinds)."""
        kinds = self._cleanup_kinds.pop(entry, set())
        # Exceptions can always have routed in (the body's implicit exc
        # edges target the entry), so always propagate outward.  These
        # continuation edges are *normal* edges: the cleanup body itself
        # completed, so its effects hold when the original exception
        # resumes — a ``close()`` inside a ``finally`` must be visible at
        # the raise-exit.
        for src in end_frontier:
            target = self._exc_target()
            if target is not None:
                self.cfg.add_edge(src, target)
            elif self._cleanup_stack:
                outer = self._cleanup_stack[-1]
                self.cfg.add_edge(src, outer)
                self._cleanup_kinds.setdefault(outer, set()).add("raise")
            else:
                self.cfg.add_edge(src, self.cfg.raise_exit)
        for kind in kinds - {"raise"}:
            for src in end_frontier:
                if kind == "return":
                    if self._cleanup_stack:
                        outer = self._cleanup_stack[-1]
                        self.cfg.add_edge(src, outer)
                        self._cleanup_kinds.setdefault(outer, set()).add(kind)
                    else:
                        self.cfg.add_edge(src, self.cfg.exit)
                elif kind == "break" and self._loop_stack:
                    if self._cleanup_stack:
                        outer = self._cleanup_stack[-1]
                        self.cfg.add_edge(src, outer)
                        self._cleanup_kinds.setdefault(outer, set()).add(kind)
                    else:
                        self._loop_stack[-1][1].append(src)
                elif kind == "continue" and self._loop_stack:
                    if self._cleanup_stack:
                        outer = self._cleanup_stack[-1]
                        self.cfg.add_edge(src, outer)
                        self._cleanup_kinds.setdefault(outer, set()).add(kind)
                    else:
                        self.cfg.add_edge(src, self._loop_stack[-1][0])


def build_cfg(func: FunctionLike) -> CFG:
    """The CFG of ``func``'s body (a function/method def, or a module).

    Nested function and class definitions are opaque single statements —
    their bodies get their own CFGs when analyzed; control never flows
    *into* them at the definition site.
    """
    builder = _Builder()
    cfg = builder.cfg
    frontier = builder.build_block(func.body, [cfg.entry])
    for src in frontier:
        cfg.add_edge(src, cfg.exit)
    return cfg
