"""Every workload end to end at a twentieth of its size."""

import json
import os
import subprocess
import sys

import pytest

from bench import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
SIMULATED = ("campaign_sim", "campaign_replay", "kv_failover")


def run(tmp_path, *arguments):
    out = tmp_path / "results.jsonl"
    completed = subprocess.run(
        [sys.executable, RUN, "--scale", "0.05", "--seconds", "2", "--out", str(out),
         *arguments],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    records = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    return completed, records


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks_at_small_scale(tmp_path, name):
    completed, records = run(tmp_path, "--workload", name, "--seed", "3")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    (record,) = records
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert all(check["ok"] for check in record["checks"])
    assert set(record["end_to_end"]) == {m.name for m in metrics.END_TO_END}
    for key in ("workload", "seed", "git_sha", "nproc", "python", "timestamp",
                "sizes", "repetitions", "steps", "checks"):
        assert key in record
    # A run at another scale than 1 is not a measurement.
    last = completed.stdout.strip().splitlines()[-1]
    assert "no contract line" in last
    assert not last.startswith("{")
    # All scratch is removed on exit.
    assert not os.path.exists(os.path.join(ROOT, "bench", ".tmp"))
    if name in SIMULATED:
        # Simulated time and the call count are exact: a second run of the
        # same seed reads the same to the last digit.
        completed, records = run(tmp_path, "--workload", name, "--seed", "3")
        assert completed.returncode == 0, completed.stdout + completed.stderr
        first, second = (r["end_to_end"] for r in records)
        assert first["py_calls_per_unit"] == second["py_calls_per_unit"]
        assert first["wait_ms"] == second["wait_ms"]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    completed, records = run(tmp_path, "--workload", "campaign_sim", "--trace", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    (record,) = records
    assert set(record["per_layer"]) == {m.name for m in metrics.PER_LAYER}
    assert record["per_layer"]["fd.predictor_updates_per_hb"] == 30
    assert record["per_layer"]["sim.timer_arms_per_hb"] == 30
    assert record["per_layer"]["fd.unique_predictor_share"] == pytest.approx(5 / 30)
    assert record["per_layer"]["trace.overhead_share"] > 0
    assert record["correct"]


def test_committed_goldens_exist_for_the_default_and_held_out_seed():
    from bench.worker import golden_path

    for name in SIMULATED:
        for seed in (metrics.DEFAULT_SEED, metrics.HELD_OUT_SEED):
            with open(golden_path(name, seed), encoding="utf-8") as handle:
                golden = json.load(handle)
            assert golden["workload"] == name and golden["seed"] == seed
            assert len(golden["digest"]) == 64
