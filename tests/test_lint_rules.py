"""Per-rule fixture tests: each rule is present, firing, and precise.

Every per-file rule in ``src/repro/lint/rules/`` has one positive
fixture (must flag) and one negative fixture (must stay silent) under
``tests/lint_fixtures/``; the project rules' fixtures are exercised in
``tests/test_lint_project.py``.  Rules are resolved through the
engine's package discovery, so deleting a rule module makes its
positive test fail — the corpus is genuinely load-bearing.
"""

from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, lint_file, lint_paths
from repro.lint.engine import discover_rules

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

#: per-file rule slug -> (positive fixture, negative fixture)
CORPUS = {
    "float-time-equality": (
        "float_time/positive.py", "float_time/negative.py"
    ),
    "mutable-shared-state": (
        "fd/mutable_positive.py", "fd/mutable_negative.py"
    ),
    "sample-array-narrowing": (
        "metrics/positive.py", "metrics/negative.py"
    ),
    "error-swallowing": ("errors/positive.py", "errors/negative.py"),
}


def findings_for(fixture: str, rule: str):
    result = lint_file(str(FIXTURES / fixture), DEFAULT_CONFIG, select=[rule])
    return [f for f in result.findings if f.rule == rule]


class TestRuleDiscovery:
    def test_at_least_six_rules_ship(self):
        assert len(discover_rules()) >= 6

    @pytest.mark.parametrize("slug", sorted(CORPUS))
    def test_rule_is_discovered(self, slug):
        assert slug in discover_rules(), (
            f"rule module for {slug!r} is missing from repro/lint/rules"
        )

    def test_codes_are_unique(self):
        rules = discover_rules().values()
        codes = [rule.code for rule in rules]
        assert len(set(codes)) == len(codes)

    def test_every_rule_states_its_invariant(self):
        for rule in discover_rules().values():
            assert rule.invariant, f"{rule.rule} has no invariant line"


class TestFixtureCorpus:
    @pytest.mark.parametrize("slug", sorted(CORPUS))
    def test_positive_fixture_is_flagged(self, slug):
        positive, _ = CORPUS[slug]
        found = findings_for(positive, slug)
        assert found, f"{positive} raised no {slug} finding"
        for finding in found:
            assert finding.line > 0 and finding.code.startswith("FDL")
            assert finding.hint, "findings must carry a fix hint"

    @pytest.mark.parametrize("slug", sorted(CORPUS))
    def test_negative_fixture_is_clean(self, slug):
        _, negative = CORPUS[slug]
        assert findings_for(negative, slug) == [], (
            f"{negative} should be clean for {slug}"
        )


class TestClockRulePrecision:
    """Regression: docstrings/comments are never confused with code.

    ``src/repro/service/runtime.py`` *documents* its epoch anchoring
    with the literal text ``time.time()`` and also really calls it once
    in ``AsyncioScheduler.__init__``.  With the whitelist stripped, the
    clock check of ``clock-seed-taint`` must flag exactly the call line
    — not the docstring.
    """

    RUNTIME = SRC / "repro" / "service" / "runtime.py"

    def test_runtime_docstring_not_flagged_call_is(self):
        from repro.lint import LintConfig

        source = self.RUNTIME.read_text(encoding="utf-8")
        lines = source.splitlines()
        call_lines = {
            index
            for index, text in enumerate(lines, start=1)
            if "self._epoch_t0 = time.time()" in text
        }
        prose_lines = {
            index
            for index, text in enumerate(lines, start=1)
            if "time.time()" in text
        } - call_lines
        assert call_lines and prose_lines, "runtime.py layout changed"

        config = LintConfig(clock_allowed_files=())
        result = lint_paths(
            [str(self.RUNTIME)], config, select=["clock-seed-taint"]
        )
        flagged = {f.line for f in result.findings}
        assert flagged == call_lines
        assert not (flagged & prose_lines)

    def test_runtime_is_whitelisted_by_default(self):
        result = lint_paths(
            [str(self.RUNTIME)], DEFAULT_CONFIG, select=["clock-seed-taint"]
        )
        assert result.findings == []
