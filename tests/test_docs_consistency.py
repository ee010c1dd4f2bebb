"""Documentation/code consistency guards.

DESIGN.md promises a module and bench for every experiment;
EXPERIMENTS.md records every table and figure.  These tests keep those
documents honest as the code evolves.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


def module_map():
    """DESIGN.md's module map: file rows, and directories a row covers whole.

    A package heading is indented two spaces (``  fd/``), a file row two
    (top-level modules) or four under its heading (``    bank.py``); a
    directory row under a heading (``    rules/``) covers its files.
    """
    design = read("DESIGN.md")
    start = design.index("src/repro/\n")
    block = design[start:design.index("```", start)].splitlines()[1:]
    rows, covered, package = set(), set(), None
    for line in block:
        heading = re.match(r"  (\w+)/\s", line)
        top_file = re.match(r"  (\w+\.py)\s", line)
        nested = re.match(r"    (\w+)(\.py|/)\s", line)
        if heading:
            package = heading.group(1)
        elif top_file:
            rows.add(top_file.group(1))
        elif nested and package:
            name, kind = nested.groups()
            if kind == "/":
                covered.add(f"{package}/{name}")
            else:
                rows.add(f"{package}/{name}.py")
    return rows, covered


class TestDesignDocument:
    def test_every_bench_file_is_referenced(self):
        design = read("DESIGN.md")
        for bench in sorted((REPO / "benchmarks").glob("test_bench_*.py")):
            assert bench.name in design, (
                f"benchmarks/{bench.name} is not listed in DESIGN.md's "
                "experiment index"
            )

    def test_every_source_package_is_listed(self):
        design = read("DESIGN.md")
        packages = [
            path.name
            for path in (REPO / "src" / "repro").iterdir()
            if path.is_dir() and (path / "__init__.py").exists()
        ]
        for package in packages:
            assert f"{package}/" in design or f"{package}." in design, (
                f"package repro.{package} missing from DESIGN.md inventory"
            )

    def test_every_module_map_row_names_a_file(self):
        rows, _ = module_map()
        missing = sorted(row for row in rows if not (REPO / "src" / "repro" / row).is_file())
        assert not missing, f"DESIGN.md's module map names missing files: {missing}"

    def test_every_module_has_a_module_map_row(self):
        rows, covered = module_map()
        source = REPO / "src" / "repro"
        unlisted = sorted(
            path.relative_to(source).as_posix()
            for path in source.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
            and path.relative_to(source).as_posix() not in rows
            and path.parent.relative_to(source).as_posix() not in covered
        )
        assert not unlisted, f"modules without a DESIGN.md module-map row: {unlisted}"

    def test_design_declares_paper_identity_check(self):
        assert "Paper identity check" in read("DESIGN.md")


class TestExperimentsDocument:
    @pytest.mark.parametrize("section", [
        "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
        "Figure 4", "Figure 5", "Figures 6 & 7", "Figure 8",
        "push vs pull",
    ])
    def test_every_table_and_figure_recorded(self, section):
        assert section in read("EXPERIMENTS.md")

    def test_verdict_vocabulary_used(self):
        experiments = read("EXPERIMENTS.md")
        for verdict in ("REPRODUCED", "PARTIAL"):
            assert verdict in experiments

    def test_known_limits_section_exists(self):
        assert "Known reproduction limits" in read("EXPERIMENTS.md")


class TestReadme:
    def test_readme_names_the_paper(self):
        readme = read("README.md")
        assert "Falai" in readme and "Bondavalli" in readme
        assert "DSN 2005" in readme

    def test_readme_examples_exist(self):
        readme = read("README.md")
        for line in readme.splitlines():
            if "python examples/" in line:
                script = line.split("python ")[1].split()[0]
                assert (REPO / script).exists(), f"README references missing {script}"

    def test_readme_cli_commands_exist(self):
        from repro.cli import _COMMANDS

        readme = read("README.md")
        for command in _COMMANDS:
            assert f"repro {command}" in readme, (
                f"CLI command {command!r} undocumented in README"
            )
