"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["dotted_name", "terminal_name", "ImportMap"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a ``Name``/``Attribute`` chain, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ImportMap:
    """Maps local names to the dotted module paths they were imported as.

    ``import numpy as np`` makes ``np`` resolve to ``numpy``;
    ``from datetime import datetime as dt`` makes ``dt`` resolve to
    ``datetime.datetime``.  :meth:`resolve` rewrites a call chain like
    ``np.random.default_rng`` into ``numpy.random.default_rng`` so rules
    can match fully-qualified names regardless of import style.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative imports never shadow stdlib targets
                    continue
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted path of a ``Name``/``Attribute`` chain."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin
