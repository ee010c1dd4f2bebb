"""Shared rule shapes (not itself a rule module — no ``RULES`` here).

A per-file rule is anything with ``rule`` (slug), ``code`` (``FDLnnn``),
``severity``, a one-line ``invariant``, the ``node_types`` it inspects
and a ``visit(node, ctx)`` generator.  The engine walks each file once
and calls ``visit`` for every node of those types, with
``ctx.stack`` holding the node's ancestors, so a new rule adds no walk.
:class:`LintRule` provides the finding constructor so concrete rules
stay focused on their node checks.  A *project* rule
(:class:`ProjectRule`, ``project = True``) instead implements
``check_project(project)`` over the linked
:class:`~repro.lint.project.ProjectContext` — the engine runs these
once per invocation, after the per-file pass; the findings of both
kinds go through one suppression pass.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Tuple

from repro.lint.context import FileContext
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.project import ProjectContext


class LintRule:
    """Base class for concrete per-file rules (see module docstring)."""

    rule: str = ""
    code: str = ""
    severity: str = "error"
    #: One-line statement of the invariant the rule protects (docs/CLI).
    invariant: str = ""
    #: Project rules run once over the linked graph, not per file.
    project: bool = False
    #: Node types a per-file rule's :meth:`visit` receives.
    node_types: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Findings at ``node``; ``ctx.stack`` holds its ancestors."""
        raise NotImplementedError

    def make(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> Finding:
        """A finding of this rule anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule,
            code=self.code,
            severity=self.severity,
            message=message,
            hint=hint,
        )


class ProjectRule(LintRule):
    """Base class for interprocedural rules over the project graph."""

    project: bool = True

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def at(
        self,
        path: str,
        line: int,
        message: str,
        hint: str = "",
        col: int = 1,
    ) -> Finding:
        """A finding of this rule anchored at an explicit location."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.rule,
            code=self.code,
            severity=self.severity,
            message=message,
            hint=hint,
        )


__all__ = ["LintRule", "ProjectRule"]
