"""error-swallowing (FDL009): broad excepts must account for the error.

A failure detector's own failures must stay observable.  A bare
``except:`` (or ``except Exception:`` / ``except BaseException:``) that
neither re-raises nor counts the event is a silent hole: the service
keeps running but the operator can never learn the component is sick —
the exact failure mode the graceful-degradation layer exists to
surface.  The rule accepts a broad handler when its body

* contains a ``raise`` (re-raise, or funnel into a typed error), or
* mutates a counter — an assignment/aug-assignment to (or a call of) a
  name containing one of the configured counter fragments
  (``total``, ``count``, ``dropped``, ``errors``, ...), or
* carries a justified ``# fdlint: disable=error-swallowing`` pragma.

Handlers for *specific* exception types (``OSError``,
``sqlite3.Error``, ``asyncio.CancelledError``, ...) are not flagged:
naming the type is already a statement about what is being tolerated.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

#: Exception names (terminal, after any module prefix) that make a
#: handler "broad": it catches everything the program can throw.
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for expr in exprs:
        name = dotted_name(expr)
        if name is not None and name.rsplit(".", 1)[-1] in BROAD_EXCEPTIONS:
            return True
    return False


def _names_counter(name: str, fragments: Tuple[str, ...]) -> bool:
    lowered = name.rsplit(".", 1)[-1].lower()
    return any(fragment in lowered for fragment in fragments)


def _accounts_for_error(
    handler: ast.ExceptHandler, fragments: Tuple[str, ...]
) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                name = dotted_name(target)
                if name is not None and _names_counter(name, fragments):
                    return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and _names_counter(name, fragments):
                return True
    return False


class ErrorSwallowingRule(LintRule):
    rule = "error-swallowing"
    code = "FDL009"
    invariant = (
        "failure observability: a bare/broad `except` either re-raises, "
        "counts a metric, or carries a justified pragma — errors are "
        "never silently swallowed"
    )
    node_types = (ast.ExceptHandler,)

    def visit(
        self, node: ast.ExceptHandler, ctx: FileContext
    ) -> Iterator[Finding]:
        if not _is_broad(node) or _accounts_for_error(
            node, ctx.config.error_counter_fragments
        ):
            return
        caught = (
            "bare except" if node.type is None
            else f"except {ast.unparse(node.type)}"
        )
        yield self.make(
            ctx,
            node,
            f"{caught} swallows the error: the handler neither "
            "re-raises nor counts it",
            hint="re-raise (possibly as a typed error), increment an "
            "error/restart counter, or catch the specific exception "
            "type you mean to tolerate",
        )


RULES = [ErrorSwallowingRule()]

__all__ = ["BROAD_EXCEPTIONS", "ErrorSwallowingRule", "RULES"]
