"""Project-pass tests: FDL010-FDL013 fixtures, engine parity, cache."""

import shutil
from dataclasses import replace
from pathlib import Path

from repro.lint import DEFAULT_CONFIG, lint_file, lint_paths
from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.engine import write_baseline, load_baseline

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_dir(subdir, config=DEFAULT_CONFIG, **kwargs):
    return lint_paths([str(FIXTURES / subdir)], config, **kwargs)


# ----------------------------------------------------------------------
# FDL010 clock/seed taint
# ----------------------------------------------------------------------
class TestClockSeedTaint:
    def test_positive_flags_laundered_clock_and_randomness(self):
        result = lint_dir("taint", select=["clock-seed-taint"])
        flagged = [f for f in result.findings
                   if f.path.endswith("sim/positive.py")]
        assert len(flagged) == 2
        assert all(f.code == "FDL010" for f in flagged)
        messages = " | ".join(f.message for f in flagged)
        assert "time.time" in messages
        assert "random.choice" in messages
        # the chain names every hop of the laundering
        assert "stamp() -> wall_clock_now()" in messages

    def test_pragma_on_primitive_does_not_launder(self):
        # runtime_ok.py carries a *justified* FDL001 pragma on its
        # time.time() — that accepts the direct call, but the function
        # still taints callers in the deterministic tier.
        result = lint_dir("taint", select=["clock-seed-taint"])
        negative = [f for f in result.findings
                    if f.path.endswith("sim/negative.py")]
        assert len(negative) == 1
        assert "runtime_now" in negative[0].message

    def test_whitelisted_runtime_file_does_not_taint(self):
        config = replace(
            DEFAULT_CONFIG,
            taint_runtime_files=DEFAULT_CONFIG.taint_runtime_files
            + ("taint/runtime_ok.py",),
        )
        result = lint_dir("taint", config, select=["clock-seed-taint"])
        assert [f for f in result.findings
                if f.path.endswith("negative.py")] == []
        # the positive cases still fire under the widened whitelist
        assert [f for f in result.findings
                if f.path.endswith("positive.py")]


# ----------------------------------------------------------------------
# FDL011 async-blocking reachability
# ----------------------------------------------------------------------
class TestAsyncBlockingReach:
    def test_positive_flags_two_hop_chain_from_coroutine(self):
        result = lint_dir("reach", select=["async-blocking-reach"])
        flagged = [f for f in result.findings
                   if f.path.endswith("positive.py")]
        assert len(flagged) == 1
        finding = flagged[0]
        assert finding.code == "FDL011"
        assert "checkpoint() -> persist()" in finding.message
        assert "blocks on" in finding.message

    def test_negative_offload_and_choke_point_are_clean(self):
        result = lint_dir("reach", select=["async-blocking-reach"])
        assert [f for f in result.findings
                if f.path.endswith("negative.py")] == []


# ----------------------------------------------------------------------
# FDL012 lock-read races
# ----------------------------------------------------------------------
class TestLockReadRace:
    def test_positive_flags_bare_reads_of_guarded_attrs(self):
        result = lint_dir("race", select=["lock-read-race"])
        flagged = [f for f in result.findings
                   if f.path.endswith("positive.py")]
        assert len(flagged) == 2
        assert {f.code for f in flagged} == {"FDL012"}
        attrs = " | ".join(f.message for f in flagged)
        assert "_samples" in attrs
        assert "_high_water" in attrs

    def test_negative_guarded_reads_and_held_only_helper_are_clean(self):
        result = lint_dir("race", select=["lock-read-race"])
        assert [f for f in result.findings
                if f.path.endswith("negative.py")] == []


# ----------------------------------------------------------------------
# FDL013 contract drift
# ----------------------------------------------------------------------
CONTRACT_CONFIG = replace(
    DEFAULT_CONFIG,
    contract_root=str(FIXTURES / "contract/root"),
    contract_metric_renderers=("code/exporter_fix.py",),
    contract_metric_docs=("docs/guide.md",),
    contract_span_emitters=("code/tracer_fix.py",),
    contract_span_analyzers=("code/analyze_fix.py",),
    contract_span_docs=("docs/guide.md",),
    contract_cli_files=("code/cli_fix.py",),
    contract_cli_docs=("docs/guide.md",),
)


class TestContractDrift:
    def run(self):
        return lint_dir(
            "contract/root/code", CONTRACT_CONFIG,
            select=["contract-drift"],
        )

    def test_metric_drift_both_directions(self):
        messages = [f.message for f in self.run().findings]
        assert any("fd_undocumented_thing_total" in m and "rendered" in m
                   for m in messages)
        assert any("fd_ghost_total" in m and "documented" in m
                   for m in messages)
        assert not any("fd_good_total" in m for m in messages)

    def test_span_kind_drift(self):
        messages = [f.message for f in self.run().findings]
        assert any("mystery-kind" in m for m in messages)
        assert any("mystery-batch-kind" in m for m in messages)
        assert not any("'known-kind'" in m for m in messages)

    def test_cli_surface_drift(self):
        messages = [f.message for f in self.run().findings]
        assert any("'hidden'" in m and "not documented" in m
                   for m in messages)
        assert any("--unknown" in m for m in messages)
        assert not any("--known" in m for m in messages)
        assert not any("'demo'" in m and "not documented" in m
                       for m in messages)

    def test_all_findings_are_fdl013(self):
        result = self.run()
        assert result.findings
        assert {f.code for f in result.findings} == {"FDL013"}

    def test_subset_lint_does_not_cross_fire(self):
        # Only the tracer file: the metric and CLI sub-checks are gated
        # on their source files and must stay silent.
        result = lint_paths(
            [str(FIXTURES / "contract/root/code/tracer_fix.py")],
            CONTRACT_CONFIG, select=["contract-drift"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Engine parity: pragmas, selection, baselines, lint_file scope
# ----------------------------------------------------------------------
TAINTED_SIM = """\
from helpers import stamp


def run(trace):
    return stamp(){pragma}
"""

HELPERS = """\
import time


def stamp():
    return time.time()
"""


def _write_taint_tree(tmp_path, pragma=""):
    (tmp_path / "sim").mkdir(parents=True, exist_ok=True)
    (tmp_path / "helpers.py").write_text(HELPERS, encoding="utf-8")
    (tmp_path / "sim" / "run.py").write_text(
        TAINTED_SIM.format(pragma=pragma), encoding="utf-8"
    )
    return tmp_path


class TestProjectEngineParity:
    def test_project_findings_report_without_pragma(self, tmp_path):
        _write_taint_tree(tmp_path)
        result = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                            select=["clock-seed-taint"])
        assert [f.rule for f in result.findings] == ["clock-seed-taint"]

    def test_justified_pragma_suppresses_project_finding(self, tmp_path):
        _write_taint_tree(
            tmp_path,
            pragma="  # fdlint: disable=clock-seed-taint"
            " (test: accepted wall-clock bridge)",
        )
        result = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                            select=["clock-seed-taint"])
        assert result.findings == []
        assert len(result.suppressions) == 1
        assert result.suppressions[0].justified
        assert result.suppressions[0].suppressed[0].code == "FDL010"

    def test_unjustified_pragma_keeps_finding_and_raises_fdl000(
        self, tmp_path
    ):
        _write_taint_tree(
            tmp_path, pragma="  # fdlint: disable=clock-seed-taint"
        )
        result = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                            select=["clock-seed-taint"])
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["clock-seed-taint", "unjustified-suppression"]
        assert result.suppressions == []

    def test_code_selector_works_for_project_rules(self, tmp_path):
        _write_taint_tree(tmp_path)
        by_code = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                             select=["FDL010"])
        assert [f.code for f in by_code.findings] == ["FDL010"]

    def test_ignore_drops_project_rule(self, tmp_path):
        _write_taint_tree(tmp_path)
        result = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                            ignore=["FDL010", "clock-discipline"])
        assert [f for f in result.findings if f.code == "FDL010"] == []

    def test_baseline_filters_project_findings(self, tmp_path):
        _write_taint_tree(tmp_path)
        full = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                          select=["clock-seed-taint"])
        assert full.findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), full)
        filtered = lint_paths(
            [str(tmp_path)], DEFAULT_CONFIG,
            select=["clock-seed-taint"],
            baseline=load_baseline(str(baseline_path)),
        )
        assert filtered.findings == []
        assert filtered.baselined == len(full.findings)

    def test_project_pass_can_be_disabled(self, tmp_path):
        _write_taint_tree(tmp_path)
        result = lint_paths([str(tmp_path)], DEFAULT_CONFIG,
                            select=["clock-seed-taint"], project=False)
        assert result.findings == []

    def test_lint_file_is_per_file_only(self):
        # Single-snippet unit tests must see exactly the lexical rules.
        result = lint_file(
            str(FIXTURES / "taint/sim/positive.py"), DEFAULT_CONFIG
        )
        assert [f for f in result.findings if f.code == "FDL010"] == []


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
class TestLintCache:
    def test_warm_run_hits_and_agrees(self, tmp_path):
        _write_taint_tree(tmp_path / "tree")
        cache_dir = str(tmp_path / "cache")
        cold = lint_paths([str(tmp_path / "tree")], DEFAULT_CONFIG,
                          cache_dir=cache_dir)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.files_scanned
        warm = lint_paths([str(tmp_path / "tree")], DEFAULT_CONFIG,
                          cache_dir=cache_dir)
        assert warm.cache_hits == warm.files_scanned
        assert warm.cache_misses == 0
        assert warm.findings == cold.findings
        assert warm.suppressions == cold.suppressions

    def test_content_change_invalidates_only_that_file(self, tmp_path):
        tree = _write_taint_tree(tmp_path / "tree")
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tree)], DEFAULT_CONFIG, cache_dir=cache_dir)
        helpers = tree / "helpers.py"
        helpers.write_text(
            HELPERS + "\n\ndef extra():\n    return 1\n",
            encoding="utf-8",
        )
        second = lint_paths([str(tree)], DEFAULT_CONFIG,
                            cache_dir=cache_dir)
        assert second.cache_misses == 1
        assert second.cache_hits == second.files_scanned - 1

    def test_doc_edits_affect_cached_project_pass(self, tmp_path):
        # The project pass re-links summaries every run, so reference
        # (doc) drift surfaces even on a fully warm cache.
        root = tmp_path / "root"
        shutil.copytree(FIXTURES / "contract/root", root)
        config = replace(CONTRACT_CONFIG, contract_root=str(root))
        cache_dir = str(tmp_path / "cache")
        first = lint_paths([str(root / "code")], config,
                           select=["contract-drift"], cache_dir=cache_dir)
        guide = root / "docs" / "guide.md"
        guide.write_text(
            guide.read_text(encoding="utf-8")
            + "\nAlso renders `fd_undocumented_thing_total` now.\n"
            + "And the `mystery-kind` span.\n"
            + "\n    repro hidden --flag x\n",
            encoding="utf-8",
        )
        second = lint_paths([str(root / "code")], config,
                            select=["contract-drift"],
                            cache_dir=cache_dir)
        assert second.cache_hits == second.files_scanned
        fixed = {
            m for m in (f.message for f in first.findings)
        } - {m for m in (f.message for f in second.findings)}
        assert any("fd_undocumented_thing_total" in m for m in fixed)
        assert any("mystery-kind" in m for m in fixed)
        assert any("'hidden'" in m for m in fixed)

    def test_rule_ignore_set_salts_the_cache(self, tmp_path):
        _write_taint_tree(tmp_path / "tree")
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(tmp_path / "tree")], DEFAULT_CONFIG,
                   cache_dir=cache_dir)
        narrowed = lint_paths(
            [str(tmp_path / "tree")], DEFAULT_CONFIG,
            ignore=["clock-discipline"], cache_dir=cache_dir,
        )
        # different selection -> different salt -> no stale reuse
        assert narrowed.cache_hits == 0
        assert [f for f in narrowed.findings
                if f.rule == "clock-discipline"] == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        tree = _write_taint_tree(tmp_path / "tree")
        cache_dir = tmp_path / "cache"
        lint_paths([str(tree)], DEFAULT_CONFIG, cache_dir=str(cache_dir))
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        result = lint_paths([str(tree)], DEFAULT_CONFIG,
                            cache_dir=str(cache_dir))
        assert result.cache_hits == 0
        assert result.findings  # identical analysis, recomputed

    def test_default_cache_dir_constant(self):
        assert DEFAULT_CACHE_DIR == ".repro-lint-cache"
