"""mutable-shared-state (FDL006): no accidental aliasing across calls.

Two shapes are flagged:

* **Mutable default arguments** anywhere — ``def f(xs=[])`` shares one
  list across every call, the classic Python trap; in a campaign runner
  it also couples repetitions that must be independent.
* **Mutable class-level attributes** on classes in the configured
  detector/predictor directories
  (:data:`~repro.lint.config.LintConfig.mutable_class_dirs`) — a
  ``history = []`` in a class body is shared by *all* instances, so the
  thirty detector combinations in the MultiPlexer bank would alias one
  buffer and fairness (identical inputs, independent state) breaks.
  Immutable class constants (numbers, strings, tuples, frozensets) are
  fine; dunders like ``__slots__`` are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import in_dirs
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

#: Constructor names whose zero-config call yields a shared mutable.
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
     "OrderedDict"}
)


def _mutable_literal(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """A short description if ``node`` evaluates to a fresh mutable."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = ctx.resolve_call(node)
        if name is not None:
            terminal = name.rsplit(".", 1)[-1]
            if terminal in MUTABLE_CONSTRUCTORS:
                return terminal
    return None


class MutableSharedStateRule(LintRule):
    rule = "mutable-shared-state"
    code = "FDL006"
    invariant = (
        "detector-bank independence: no mutable object is shared across "
        "calls (default args) or across instances (class attributes)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            if in_dirs(ctx.rel_path, ctx.config.mutable_class_dirs):
                yield from self._check_class_body(ctx, node)
        else:
            yield from self._check_defaults(ctx, node)

    def _check_defaults(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        args = func.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            kind = _mutable_literal(ctx, default)
            if kind is not None:
                yield self.make(
                    ctx,
                    default,
                    f"mutable default argument ({kind}) is shared "
                    f"across calls of {func.name}()",
                    hint="default to None and create the "
                    f"{kind} inside the function body",
                )

    def _check_class_body(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            names = [
                t.id for t in targets
                if isinstance(t, ast.Name) and not t.id.startswith("__")
            ]
            if not names:
                continue
            kind = _mutable_literal(ctx, value)
            if kind is not None:
                yield self.make(
                    ctx,
                    stmt,
                    f"class-level mutable ({kind}) attribute "
                    f"{', '.join(names)} on {cls.name} is shared by "
                    f"every instance in the bank",
                    hint="initialise it per-instance in __init__ so the "
                    "30-way MultiPlexer bank stays independent",
                )


RULES = [MutableSharedStateRule()]

__all__ = ["MUTABLE_CONSTRUCTORS", "MutableSharedStateRule", "RULES"]
