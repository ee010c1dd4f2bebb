"""float-time-equality (FDL005): no ``==`` between float times.

Scheduler time, one-way delays and freshness deadlines are floats;
``tau == now`` is true only by accident of rounding, and a detector
branching on it behaves differently between the simulator's exact
event times and the service's loop-derived times.  The rule flags
``==`` / ``!=`` comparisons where either operand is *time-valued by
name* (``*time*``, ``*deadline*``, ``*timeout*``, ``*delay*``,
``*duration*``, ``*elapsed*``, or short conventional names ``t``,
``t0``, ``now``, ``eta``, …; see the config fields).  The legitimate
sentinel patterns are whitelisted: comparison against literal ``0`` /
``0.0`` (the "unset" convention) and against ``float("inf")`` /
``float("-inf")`` markers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule


def _is_sentinel(node: ast.expr) -> bool:
    """Literal 0/0.0, +-inf via float(...), or None."""
    if isinstance(node, ast.Constant) and (
        node.value is None or node.value == 0
    ):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_sentinel(node.operand)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
    ):
        return True
    return False


class FloatTimeEqualityRule(LintRule):
    rule = "float-time-equality"
    code = "FDL005"
    invariant = (
        "numerical robustness: float-valued times and durations are "
        "never compared with == / != (sim-exact ties do not survive "
        "real clocks)"
    )
    node_types = (ast.Compare,)

    def _time_like(self, ctx: FileContext, node: ast.expr) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        terminal = name.rsplit(".", 1)[-1].lower()
        if terminal in ctx.config.time_exact_names:
            return True
        return any(
            fragment in terminal
            for fragment in ctx.config.time_name_fragments
        )

    def visit(self, node: ast.Compare, ctx: FileContext) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_sentinel(left) or _is_sentinel(right):
                continue
            if self._time_like(ctx, left) or self._time_like(ctx, right):
                yield self.make(
                    ctx,
                    node,
                    "exact equality between float time/duration "
                    "values",
                    hint="compare with an epsilon (math.isclose) or "
                    "restructure around <= / >= ordering",
                )


RULES = [FloatTimeEqualityRule()]

__all__ = ["FloatTimeEqualityRule", "RULES"]
