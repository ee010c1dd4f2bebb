"""Tests for the ``repro lint`` command-line surface.

Exit-code contract: ``0`` clean, ``1`` findings, ``2`` usage error.
"""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
CLEAN = str(FIXTURES / "clock" / "negative.py")
DIRTY = str(FIXTURES / "clock" / "positive.py")


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, capsys):
        assert main(["lint", CLEAN]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s) in 1 file(s)" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", DIRTY]) == 1
        out = capsys.readouterr().out
        assert "clock-seed-taint" in out
        assert "FDL010" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", CLEAN, "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestSelection:
    def test_select_by_code(self, capsys):
        assert main(["lint", DIRTY, "--select", "FDL010"]) == 1
        assert "clock-seed-taint" in capsys.readouterr().out

    def test_ignore_makes_dirty_file_clean(self, capsys):
        assert main(["lint", DIRTY, "--ignore", "clock-seed-taint"]) == 0
        capsys.readouterr()


class TestJsonOutput:
    def test_json_document_parses(self, capsys):
        assert main(["lint", DIRTY, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["clock-seed-taint"] >= 1
        for finding in payload["findings"]:
            assert finding["code"].startswith("FDL")

    def test_json_clean_document(self, capsys):
        assert main(["lint", CLEAN, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
