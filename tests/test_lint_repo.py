"""Tier-1 guard: the repository's own source passes its own analyzer.

This is the point of the linter — the invariants it encodes (time only
through the Scheduler surface, seeded randomness, no blocking I/O on
the event loop, no float-time equality, no shared mutable state) must
hold for ``src/`` at all times, and every escape hatch must carry a
written justification.  ``src/`` is linted once per module: the full
run covers the project rules too, since per-file selection never
changes the project pass.
"""

from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, lint_paths
from repro.lint.engine import discover_rules

SRC = Path(__file__).resolve().parent.parent / "src"

EXPECTED_RULES = {
    "float-time-equality",
    "mutable-shared-state",
    "sample-array-narrowing",
    "error-swallowing",
    # project tier
    "clock-seed-taint",
    "async-blocking-reach",
    "contract-drift",
}


@pytest.fixture(scope="module")
def src_result():
    return lint_paths([str(SRC)], DEFAULT_CONFIG)


class TestRepoIsClean:
    def test_src_has_zero_findings(self, src_result):
        assert src_result.files_scanned > 50
        rendered = "\n".join(f.render() for f in src_result.findings)
        assert src_result.clean, f"repo lint regressions:\n{rendered}"

    def test_every_suppression_is_justified(self, src_result):
        for suppression in src_result.suppressions:
            assert suppression.justified, (
                f"{suppression.path}:{suppression.line} pragma has no "
                "written justification"
            )
            assert len(suppression.justification.strip()) >= 10, (
                f"{suppression.path}:{suppression.line} justification "
                "is too thin to audit"
            )

    def test_full_rule_set_is_active(self):
        assert set(discover_rules()) == EXPECTED_RULES

    def test_linter_lints_itself(self):
        result = lint_paths([str(SRC / "repro" / "lint")], DEFAULT_CONFIG)
        assert result.clean, [f.render() for f in result.findings]
        assert result.suppressions == []
