"""sample-array-narrowing (FDL007): batch QoS math stays in arrays.

The vectorized replay path earns its speedup by keeping sample arrays
(suspicion starts/ends, mistake durations, ``*_samples``) in NumPy until
one final ``tolist()`` at the packaging boundary.  A ``float(x)`` applied
per element inside a loop or comprehension over such an array silently
reintroduces the O(n)-python-objects cost the fast path exists to avoid —
and it is exactly the kind of regression a later refactor sneaks in,
because the result is numerically identical.  The rule flags per-element
``float()`` narrowing of sample-named iterables on the batch metrics
path (:data:`~repro.lint.config.LintConfig.sample_batch_files` /
``sample_batch_dirs``); scalar boundary conversions (``float(np.sum(...))``
outside any loop) are fine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.config import in_dirs, path_matches
from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule


def _sample_iterable(ctx: FileContext, iter_node: ast.expr) -> Optional[str]:
    """The sample-named identifier inside ``iter_node``, if any."""
    for sub in ast.walk(iter_node):
        name = dotted_name(sub)
        if name is None:
            continue
        terminal = name.rsplit(".", 1)[-1].lower()
        if any(
            fragment in terminal
            for fragment in ctx.config.sample_name_fragments
        ):
            return name
    return None


def _target_names(target: ast.expr) -> Set[str]:
    """Loop-variable names bound by a For/comprehension target."""
    return {
        sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)
    }


def _narrowing_calls(
    region: ast.AST, loop_vars: Set[str]
) -> Iterator[ast.Call]:
    """``float(...)`` calls whose argument touches a loop variable."""
    for node in ast.walk(region):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Name) and node.func.id == "float"):
            continue
        if len(node.args) != 1:
            continue
        if any(
            isinstance(sub, ast.Name) and sub.id in loop_vars
            for sub in ast.walk(node.args[0])
        ):
            yield node


class SampleNarrowingRule(LintRule):
    rule = "sample-array-narrowing"
    code = "FDL007"
    invariant = (
        "batch QoS extraction stays vectorized: sample arrays are never "
        "narrowed element-by-element with float() on the metrics path"
    )
    node_types = (
        ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp,
    )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        config = ctx.config
        if not (
            path_matches(ctx.rel_path, config.sample_batch_files)
            or in_dirs(ctx.rel_path, config.sample_batch_dirs)
        ):
            return
        if isinstance(node, ast.For):
            source = _sample_iterable(ctx, node.iter)
            loop_vars = _target_names(node.target)
            regions = [*node.body, *node.orelse]
        else:
            source = None
            loop_vars = set()
            for generator in node.generators:
                found = _sample_iterable(ctx, generator.iter)
                if found is not None:
                    source = source or found
                    loop_vars |= _target_names(generator.target)
            if isinstance(node, ast.DictComp):
                regions = [node.key, node.value]
            else:
                regions = [node.elt]
            regions.extend(
                condition
                for generator in node.generators
                for condition in generator.ifs
            )
        if source is None:
            return
        for region in regions:
            for call in _narrowing_calls(region, loop_vars):
                yield self.make(
                    ctx,
                    call,
                    f"per-element float() narrowing of sample array "
                    f"{source!r}",
                    hint="keep the math in NumPy (np.diff, np.sum, "
                    "vector arithmetic) and convert once at the "
                    "boundary with .tolist()",
                )


RULES = [SampleNarrowingRule()]

__all__ = ["RULES", "SampleNarrowingRule"]
