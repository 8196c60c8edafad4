"""Project-wide call graph over the in-scope source set.

One pass per file collects every function/method definition and the
simple (terminal) names it calls; :meth:`CallGraph.reachable` then
answers which functions can run downstream of a set of root names
(THR001's "reachable from a thread target").

Resolution is deliberately conservative: a call resolves to *every*
definition with the same terminal name, anywhere in the in-scope set.
That over-approximates (``a.serve()`` matches every ``serve``), which is
the right failure mode for a lint — a missed edge would silently hide a
hazard, an extra edge at worst costs a justified suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .astutil import terminal_name
from .source import SourceFile

__all__ = ["FunctionDecl", "CallGraph"]


@dataclass
class FunctionDecl:
    """One function/method definition and the simple names it calls."""

    name: str
    #: enclosing class name for methods; ``None`` for plain/nested funcs
    cls: Optional[str]
    path: str
    line: int
    calls: Set[str] = field(default_factory=set)


class _DeclCollector(ast.NodeVisitor):
    """Per-file pass: definitions and the terminal names each one calls."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.decls: List[FunctionDecl] = []
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionDecl] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.AST, name: str) -> None:
        enclosing_class = self._class_stack[-1] if self._class_stack else None
        if self._func_stack:  # a nested function is not a method
            enclosing_class = None
        decl = FunctionDecl(
            name=name,
            cls=enclosing_class,
            path=self.source.display_path,
            line=getattr(node, "lineno", 1),
        )
        self.decls.append(decl)
        self._func_stack.append(decl)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Call(self, node: ast.Call) -> None:
        callee = terminal_name(node.func)
        if self._func_stack and callee is not None:
            self._func_stack[-1].calls.add(callee)
        self.generic_visit(node)


class CallGraph:
    """The conservative name-resolution call graph of a source set."""

    def __init__(self, decls: Sequence[FunctionDecl]):
        self.by_name: Dict[str, List[FunctionDecl]] = {}
        for decl in decls:
            self.by_name.setdefault(decl.name, []).append(decl)

    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "CallGraph":
        decls: List[FunctionDecl] = []
        for source in sources:
            if source.tree is None:
                continue
            collector = _DeclCollector(source)
            collector.visit(source.tree)
            decls.extend(collector.decls)
        return cls(decls)

    def calls_of(self, name: str) -> Set[str]:
        """Union of the call sets of every definition named ``name``."""
        out: Set[str] = set()
        for decl in self.by_name.get(name, []):
            out |= decl.calls
        return out

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every name reachable from ``roots`` along call edges.

        Includes the roots themselves and call targets with no in-scope
        definition (they terminate the walk but are still "reached").
        """
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(call for call in self.calls_of(name) if call not in seen)
        return seen
