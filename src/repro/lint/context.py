"""Per-file analysis context and the one traversal every rule shares.

One :class:`FileContext` wraps a parsed module with what the rules need
but :mod:`ast` does not provide: import-alias resolution (so ``from
time import perf_counter as pc`` still resolves ``pc()`` to
``time.perf_counter``) and the ancestor stack of the traversal.
:meth:`FileContext.walk` visits every node of the file once, depth
first, and hands it to the visitors registered for its type; while a
visitor runs, :attr:`FileContext.stack` holds the node's ancestors, so
parent and enclosing-scope lookups read the stack instead of climbing
a parent map.

Because the analysis is AST-based, docstrings and comments are never
confused with code: a prose mention of ``time.time()`` is a string
constant, not a :class:`ast.Call`, so it cannot trigger a rule.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.lint.config import LintConfig

#: Function definitions (a ``lambda`` is not one: it has no name).
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Nodes whose children can hold an import statement.
_STATEMENTS = (ast.stmt, ast.excepthandler, ast.match_case)

Visitor = Callable[[ast.AST], None]


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """The whole file's import table, from a scan of its statements.

    Statements are scanned breadth first; a name bound twice keeps the
    last binding met.
    """
    aliases: Dict[str, str] = {"np": "numpy"}
    queue = deque([tree])
    while queue:
        node = queue.popleft()
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for name in node.names if node.level == 0 else ():
                if name.name != "*":
                    aliases[name.asname or name.name] = (
                        f"{module}.{name.name}" if module else name.name
                    )
        else:
            queue.extend(
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, _STATEMENTS)
            )
    return aliases


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: str, tree: ast.Module, config: LintConfig) -> None:
        self.path = path
        self.rel_path = path.replace("\\", "/")
        self.tree = tree
        self.config = config
        self.aliases = _import_aliases(tree)
        #: Ancestors of the node being visited, outermost first.
        self.stack: List[ast.AST] = []

    def walk(self, visitors: Mapping[type, Sequence[Visitor]]) -> None:
        """Visit every node once, depth first, in source order."""
        stack = self.stack
        pending = [iter((self.tree,))]
        while pending:
            node = next(pending[-1], None)
            if node is None:
                pending.pop()
                if stack:
                    stack.pop()
                continue
            for visit in visitors.get(type(node), ()):
                visit(node)
            stack.append(node)
            pending.append(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully-qualified dotted name of an expression, alias-expanded."""
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        expanded = self.aliases.get(head, head)
        return f"{expanded}.{rest}" if rest else expanded

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Alias-expanded dotted name of a call's target."""
        return self.resolve(call.func)

    # ------------------------------------------------------------------
    # Scope lookups for the node being visited
    # ------------------------------------------------------------------
    @property
    def parent(self) -> Optional[ast.AST]:
        """The syntactic parent (``None`` for the module)."""
        return self.stack[-1] if self.stack else None

    def ancestors(self) -> Iterator[ast.AST]:
        """Ancestors, innermost first."""
        return reversed(self.stack)

    def enclosing_function(self) -> Optional[ast.AST]:
        """Innermost enclosing function/lambda definition, if any."""
        for ancestor in reversed(self.stack):
            if isinstance(ancestor, (*FUNCTIONS, ast.Lambda)):
                return ancestor
        return None

    def enclosing_class(self) -> Optional[ast.ClassDef]:
        """Innermost enclosing class definition, if any."""
        for ancestor in reversed(self.stack):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None


__all__ = ["FUNCTIONS", "FileContext", "dotted_name"]
