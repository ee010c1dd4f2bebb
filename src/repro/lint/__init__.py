"""``repro lint`` — an invariant-enforcing static analyzer.

The reproduction rests on structural invariants (sim/real clock
transparency, injected seeded randomness, a non-blocking event loop,
independent detector instances) that ordinary linters cannot know
about.  This package checks them with a pluggable AST rule
corpus; see ``docs/static-analysis.md`` for the rule catalogue and the
pragma/justification convention.
"""

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import LintResult, discover_rules, lint_file, lint_paths
from repro.lint.findings import Finding, Suppression

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "Suppression",
    "discover_rules",
    "lint_file",
    "lint_paths",
]
