"""detector-bank-construction (FDL008): banks come from ``fd.bank``.

The thirty-detector matrix is materialised in exactly one place —
:func:`repro.fd.bank.make_detector_bank`, which returns the fused
:class:`repro.fd.bank.DetectorBank` (shared predictor and margin states,
one timer per endpoint) — so every consumer gets the same strategy
wiring, stale-observation policy and per-id transition hooks.
Hand-rolling the fan-out (constructing
:class:`repro.fd.detector.PushFailureDetector` inside a loop or
comprehension that iterates the combination ids) silently forks that
policy — a later fix to the bank (initial timeouts, tracer plumbing,
observe-stale semantics) would not reach the inline copy — and brings
back the per-heartbeat cost the bank exists to remove: every predictor
updated six times, thirty timers re-armed.  Constructing
a *single* detector directly stays legal — the tuning and sweep layers
do it on purpose — and so does any loop over non-combination sources
(e.g. the consensus harness's loop over peers).  The bank module itself
is whitelisted via
:data:`repro.lint.config.LintConfig.bank_allowed_files`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import path_matches
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

#: Comprehension node types (their ``generators`` carry the iterables).
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _iter_sources(node: ast.AST) -> Iterator[ast.expr]:
    """The iterable expressions a loop/comprehension draws from."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, _COMPREHENSIONS):
        for generator in node.generators:
            yield generator.iter


class BankConstructionRule(LintRule):
    rule = "detector-bank-construction"
    code = "FDL008"
    invariant = (
        "one detector matrix: fan-out over combination ids happens only "
        "in repro.fd.bank, never as an inline PushFailureDetector loop"
    )

    def _is_combination_source(
        self, ctx: FileContext, source: ast.expr
    ) -> bool:
        """Whether a loop iterable is (derived from) the combination ids."""
        for node in ast.walk(source):
            name: Optional[str] = None
            if isinstance(node, ast.Call):
                name = ctx.resolve_call(node)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = ctx.resolve(node)
            if name is None:
                continue
            terminal = name.rsplit(".", 1)[-1].lower()
            if "combination" in terminal or terminal in ctx.config.bank_id_names:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if path_matches(ctx.rel_path, ctx.config.bank_allowed_files):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node)
            if name is None or name.rsplit(".", 1)[-1] != "PushFailureDetector":
                continue
            for ancestor in ctx.ancestors(node):
                sources = list(_iter_sources(ancestor))
                if not sources:
                    continue
                if any(
                    self._is_combination_source(ctx, source)
                    for source in sources
                ):
                    yield self.make(
                        ctx,
                        node,
                        "inline detector-bank fan-out: PushFailureDetector "
                        "constructed in a loop over combination ids",
                        hint="build the matrix with "
                        "repro.fd.bank.make_detector_bank so every consumer "
                        "shares the bank's wiring (timeouts, hooks, tracing)",
                    )
                    break


RULES = [BankConstructionRule()]

__all__ = ["BankConstructionRule", "RULES"]
