"""Engine-level tests: pragmas, JSON schema, rule selection, one walk."""

import ast
import json
import os
from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, engine, lint_file, lint_paths
from repro.lint.engine import SCHEMA_VERSION, iter_python_files, known_rule_ids

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


#: One float-time-equality and one mutable-shared-state finding.
TWO_RULES = (
    "class Bank:\n"
    "    shared = []\n"
    "\n"
    "\n"
    "def same(now, when):\n"
    "    return now == when\n"
)


def lint_source(source: str, name: str = "repro/fd/sample.py"):
    return lint_file(name, DEFAULT_CONFIG, source=source)


class TestPragmas:
    def test_justified_pragma_suppresses_and_is_recorded(self):
        result = lint_file(str(FIXTURES / "pragmas/justified.py"),
                           DEFAULT_CONFIG)
        assert result.findings == []
        assert len(result.suppressions) == 1
        suppression = result.suppressions[0]
        assert suppression.justified
        assert "change detection" in suppression.justification
        assert "float-time-equality" in suppression.rules

    def test_unjustified_pragma_suppresses_nothing(self):
        result = lint_file(str(FIXTURES / "pragmas/unjustified.py"),
                           DEFAULT_CONFIG)
        rules = sorted(f.rule for f in result.findings)
        assert "float-time-equality" in rules
        assert "unjustified-suppression" in rules
        assert result.suppressions == []

    def test_unjustified_finding_carries_fdl000(self):
        result = lint_file(str(FIXTURES / "pragmas/unjustified.py"),
                           DEFAULT_CONFIG)
        codes = {f.rule: f.code for f in result.findings}
        assert codes["unjustified-suppression"] == "FDL000"

    def test_trailing_pragma_covers_its_line(self):
        source = (
            "def same(now, when):\n"
            "    return now == when  "
            "# fdlint: disable=float-time-equality (test: trailing form)\n"
        )
        result = lint_source(source)
        assert result.findings == []
        assert len(result.suppressions) == 1

    def test_own_line_pragma_covers_next_line(self):
        source = (
            "def same(now, when):\n"
            "    # fdlint: disable=float-time-equality (test: own-line form)\n"
            "    return now == when\n"
        )
        assert lint_source(source).findings == []

    def test_def_header_pragma_covers_whole_body(self):
        source = (
            "# fdlint: disable=float-time-equality (test: block form)\n"
            "def same(now, when, deadline):\n"
            "    a = now == when\n"
            "    b = deadline != when\n"
            "    return a, b\n"
        )
        result = lint_source(source)
        assert result.findings == []
        assert len(result.suppressions) == 1
        assert len(result.suppressions[0].suppressed) == 2

    def test_pragma_for_wrong_rule_does_not_suppress(self):
        source = (
            "def same(now, when):\n"
            "    return now == when  "
            "# fdlint: disable=error-swallowing (test: wrong rule)\n"
        )
        result = lint_source(source)
        assert [f.rule for f in result.findings] == ["float-time-equality"]

    def test_pragma_text_inside_string_is_inert(self):
        source = (
            'NOTE = "# fdlint: disable=float-time-equality (not a comment)"\n'
            "same = now == when\n"
        )
        result = lint_source(source)
        assert [f.rule for f in result.findings] == ["float-time-equality"]


class TestJsonSchema:
    def test_to_dict_shape(self):
        result = lint_paths(
            [str(FIXTURES / "clock/positive.py"),
             str(FIXTURES / "pragmas/justified.py")],
            DEFAULT_CONFIG,
        )
        payload = result.to_dict()
        assert payload["version"] == SCHEMA_VERSION
        assert payload["files_scanned"] == 2
        for finding in payload["findings"]:
            assert set(finding) >= {
                "path", "line", "col", "rule", "code", "severity",
                "message", "hint",
            }
        for suppression in payload["suppressions"]:
            assert set(suppression) >= {
                "path", "line", "rules", "justification", "suppressed",
            }
        assert payload["counts"]["clock-seed-taint"] >= 1
        # must survive serialization untouched
        assert json.loads(json.dumps(payload)) == payload


class TestSelection:
    def test_select_narrows_to_one_rule(self):
        result = lint_file(
            "repro/fd/sample.py", DEFAULT_CONFIG,
            select=["float-time-equality"], source=TWO_RULES,
        )
        assert {f.rule for f in result.findings} == {"float-time-equality"}

    def test_ignore_drops_one_rule(self):
        result = lint_file(
            "repro/fd/sample.py", DEFAULT_CONFIG,
            ignore=["float-time-equality"], source=TWO_RULES,
        )
        assert {f.rule for f in result.findings} == {"mutable-shared-state"}

    def test_known_rule_ids_include_codes_and_fdl000(self):
        ids = known_rule_ids()
        assert "clock-seed-taint" in ids
        assert "FDL010" in ids
        assert "FDL000" in ids and "unjustified-suppression" in ids


class TestUnknownRuleIds:
    """A stale or misspelt rule id is an error, never a silent no-op."""

    TARGET = str(FIXTURES / "clock/positive.py")

    def test_lint_paths_rejects_unknown_select(self):
        with pytest.raises(ValueError, match="unknown rule 'clock-disciplin'"):
            lint_paths([self.TARGET], DEFAULT_CONFIG,
                       select=["clock-disciplin"])

    def test_lint_paths_rejects_unknown_ignore(self):
        with pytest.raises(ValueError, match="unknown rule 'FDL004'"):
            lint_paths([self.TARGET], DEFAULT_CONFIG, ignore=["FDL004"])

    def test_lint_file_rejects_unknown_select(self):
        with pytest.raises(ValueError, match="unknown rule 'no-such-rule'"):
            lint_file(self.TARGET, DEFAULT_CONFIG, select=["no-such-rule"])

    def test_pragma_naming_unknown_rule_is_fdl000(self):
        source = (
            "def sleepy():\n"
            "    # fdlint: disable=clock-discipline (a renamed rule)\n"
            "    return 1\n"
        )
        result = lint_source(source)
        assert [(f.code, f.line) for f in result.findings] == [
            ("FDL000", 2)
        ]
        assert "clock-discipline" in result.findings[0].message

    def test_pragma_naming_all_or_a_code_is_known(self):
        source = (
            "x = 1  # fdlint: disable=all (test: wildcard)\n"
            "y = 2  # fdlint: disable=FDL010 (test: code)\n"
        )
        assert lint_source(source).findings == []


class TestSyntaxError:
    def test_unparseable_file_yields_syntax_finding(self):
        result = lint_source("def broken(:\n", name="repro/fd/broken.py")
        assert [f.rule for f in result.findings] == ["syntax-error"]
        assert result.findings[0].code == "FDL999"


class TestOverlappingPaths:
    """A file reached through several arguments is linted once."""

    TREE = FIXTURES / "taint"

    def test_each_file_is_listed_once_in_first_seen_order(self):
        once = iter_python_files([str(self.TREE)])
        overlapping = iter_python_files([
            str(self.TREE / "sim" / "positive.py"),
            str(self.TREE),
            str(self.TREE / "sim"),
            os.path.join(str(self.TREE), ".", "sim"),
        ])
        assert len(overlapping) == len(once) == 4
        assert overlapping[0] == str(self.TREE / "sim" / "positive.py")
        assert sorted(overlapping) == sorted(once)

    def test_overlapping_arguments_report_like_one(self):
        once = lint_paths([str(self.TREE)], DEFAULT_CONFIG)
        twice = lint_paths(
            [str(self.TREE), str(self.TREE / "sim"),
             os.path.join(str(self.TREE), ".")],
            DEFAULT_CONFIG,
        )
        assert twice.files_scanned == once.files_scanned == 4
        assert twice.findings == once.findings
        assert twice.suppressions == once.suppressions
        assert [len(s.suppressed) for s in twice.suppressions] == [1]


class TestOneWalk:
    """Each file is traversed once; rules are discovered once per run."""

    def test_traversal_budget_on_the_bank_module(self, monkeypatch):
        bank = SRC / "repro" / "fd" / "detector.py"
        nodes = sum(1 for _ in ast.walk(ast.parse(bank.read_text("utf-8"))))
        real = ast.iter_child_nodes
        calls = []

        def counting(node):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(ast, "iter_child_nodes", counting)
        lint_paths([str(bank)], DEFAULT_CONFIG)
        assert 0 < len(calls) <= 2 * nodes

    def test_rules_are_discovered_once_per_run(self, monkeypatch):
        real = engine.discover_rules
        calls = []

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(engine, "discover_rules", counting)
        result = lint_paths([str(SRC / "repro" / "fd")], DEFAULT_CONFIG)
        assert result.files_scanned > 10
        assert len(calls) == 1
