"""Bench for the static analyzer (scripts/bench_lint.py).

Regenerates no paper artifact — it guards the contract of
docs/static-analysis.md: linting all of ``src/`` with every rule
enabled stays under the 5-second budget, so the tier-1 self-check
(``tests/test_lint_repo.py``) and the CI lint gate never become the
slow step of the suite.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_lint import (  # noqa: E402
    FULL_SRC_BUDGET_S,
    WARM_SPEEDUP_FLOOR,
    format_report,
    run_benchmark,
)

pytestmark = pytest.mark.lint


@pytest.fixture(scope="module")
def lint_record(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("lint")
    record = run_benchmark(repeats=2)
    out = out_dir / "BENCH_lint.json"
    out.write_text(json.dumps(record, indent=2))
    print(f"\n{format_report(record)}")
    print(f"wrote {out}")
    return record


def test_full_src_walk_stays_under_budget(lint_record):
    full = lint_record["full_src"]
    assert full["files"] > 50
    assert full["rules"] == 7  # four per-file rules + three project rules
    assert full["best_s"] < FULL_SRC_BUDGET_S, (
        f"linting src took {full['best_s']:.2f}s "
        f"(contract is < {FULL_SRC_BUDGET_S:.1f}s)"
    )


def test_repo_is_clean_under_benchmark_conditions(lint_record):
    assert lint_record["full_src"]["findings"] == 0
    assert lint_record["full_src"]["suppressions"] >= 1


def test_single_file_cost_is_bounded(lint_record):
    # The largest file in the repo parses, contextualizes and walks in
    # well under the budget's per-file share.
    assert lint_record["single_file"]["best_ms"] < 1000.0


def test_warm_cache_meets_speedup_floor(lint_record):
    warm = lint_record["warm_cache"]
    assert warm["misses"] == 0, "warm run must be fully cached"
    assert warm["hits"] == lint_record["full_src"]["files"]
    assert warm["speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm lint is only {warm['speedup']:.2f}x faster than cold "
        f"(contract is >= {WARM_SPEEDUP_FLOOR:.0f}x)"
    )
