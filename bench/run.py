#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload W --seed N [--seconds S] [--trace 0|1]

runs one of the four workloads in a fresh interpreter, prints every metric
by name with its unit, checks the outputs, appends a result record and
ends with the contract's one-line JSON.  ``--selfcheck`` runs every
workload in two interleaved sets and compares them against the
benchmark's own bounds.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCE = os.path.join(ROOT, "src")
if not __package__:
    # Run as a script: import ``bench`` as a package from the checkout's
    # root; as a bare directory on sys.path, its trace.py would shadow the
    # standard library's.
    sys.path[0:1] = [ROOT]

from bench import metrics  # noqa: E402
from bench.estimator import spread  # noqa: E402
from bench.worker import allowed_cpus  # noqa: E402

#: A worker that has not finished by then is killed (the contract allows a
#: run 180 s).
WORKER_TIMEOUT = 170.0
#: Workloads whose ``wait_ms`` and ``py_calls_per_unit`` are exact per seed.
SIMULATED = ("campaign_sim", "campaign_replay", "kv_failover")


def _spawn(request: Dict[str, Any], tmp: str, label: str) -> Dict[str, Any]:
    """Run the worker in a fresh interpreter; its result, or an exception."""
    result_path = os.path.join(tmp, f"{label}.json")
    request = dict(request, result=result_path, spawned_at=time.monotonic())
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(request)],
        cwd=ROOT,
        timeout=WORKER_TIMEOUT,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{label} exited with code {completed.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    inside = os.path.isdir(os.path.join(ROOT, ".git"))
    return completed.stdout.strip() if completed.returncode == 0 and inside else "unknown"


def measure(
    workload: str,
    seed: int,
    *,
    seconds: float = metrics.RUN_SECONDS,
    scale: float = 1.0,
    trace: bool = False,
    write_golden: bool = False,
    keep_tmp: bool = False,
    out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload: the record that is appended to ``out``."""
    tmp = os.path.join(BENCH, ".tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    request = {
        "workload": workload, "seed": seed, "scale": scale, "tmp": tmp,
    }
    try:
        result = _spawn(
            dict(
                request, seconds=seconds, trace=trace, source_root=SOURCE,
                write_golden=write_golden,
            ),
            tmp, "worker",
        )
        if not trace:
            # Set-up is timed on several fresh interpreters (the worker
            # was one); contention only adds, so the fastest is reported.
            setups = [result["end_to_end"]["setup_s"]]
            cpus = allowed_cpus()
            try:
                if cpus:
                    # A child inherits the CPU it is started on: the probes
                    # run where the worker's fastest repetition did (see
                    # worker.take_turns).
                    os.sched_setaffinity(0, {result["free_cpu"]})
                for probe in range(1, metrics.SETUP_PROBES):
                    setups.append(
                        _spawn(dict(request, probe=True), tmp, f"probe{probe}")["setup_s"]
                    )
            finally:
                if cpus:
                    os.sched_setaffinity(0, cpus)
            result["end_to_end"]["setup_s"] = min(setups)
            result["setup_samples_s"] = setups
    finally:
        if not keep_tmp:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(tmp))
            except OSError:
                pass
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "trace": int(trace),
        **result,
    }
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def contract_line(record: Dict[str, Any]) -> str:
    """The contract's last line of standard output."""
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": metrics.unit_of(name)}
                for name, value in values.items()
            },
        }
    )


def report(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, and what the checks found."""
    steps = record["steps"]
    print(
        f"{record['workload']} seed {record['seed']}: "
        f"{record['repetitions']} repetitions x {steps['count']} steps, "
        f"{record['units_per_repetition']} {record['unit']}s each; "
        f"clean {steps['clean_s']:.4f} s, median repetition "
        f"{steps['raw_median_s']:.4f} s, fastest {steps['raw_fastest_s']:.4f} s"
    )
    if record["trace"]:
        exercised = {n: v for n, v in record["per_layer"].items() if v != 0.0}
        for metric in metrics.PER_LAYER:
            if metric.name in exercised:
                print(f"  {metric.name:36s} {exercised[metric.name]:14.6g} {metric.unit}")
        print(f"  ({len(record['per_layer']) - len(exercised)} metrics of layers "
              "this workload does not exercise read 0)")
    else:
        for metric in metrics.END_TO_END:
            value = record["end_to_end"][metric.name]
            shown = "n/a" if value is None else f"{value:14.6g}"
            print(f"  {metric.name:36s} {shown} {metric.unit}  ({metric.time_base})")
    for check in record["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}: {check['detail']}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {record['correct']}")


# ----------------------------------------------------------------------
# --selfcheck
# ----------------------------------------------------------------------
def selfcheck(runs: int, out: str, seconds: float, only: Optional[str]) -> int:
    """Two sets of runs per workload, interleaved ABAB over seeds 1..runs,
    compared metric by metric against the benchmark's own bounds."""
    failures = 0
    rows = []
    for workload in [w.name for w in metrics.WORKLOADS if only in (None, w.name)]:
        sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        for seed in range(1, runs + 1):
            for label in ("A", "B"):
                record = measure(workload, seed, seconds=seconds, out=out)
                sets[label].append(record)
                if not record["correct"] or record["failed"]:
                    failures += 1
                    print(f"{workload} seed {seed} set {label}: checks failed")
        for metric in metrics.END_TO_END:
            a = [r["end_to_end"][metric.name] for r in sets["A"]]
            b = [r["end_to_end"][metric.name] for r in sets["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            shift = abs(median_b - median_a) / median_a
            # Same seed, adjacent runs: what the estimator itself resolves,
            # with the seed and most of the box's drift taken out.
            pair = statistics.median(
                abs(x - y) / ((x + y) / 2) for x, y in zip(a, b)
            )
            worst_spread = max(spread(a), spread(b))
            exact = (
                workload in SIMULATED
                and metric.name in ("wait_ms", "py_calls_per_unit")
            )
            problems = []
            if shift > metric.bound:
                problems.append("medians differ by more than the bound")
            # The spread of set-up time is not gated by the driver; it is
            # still shown.
            if worst_spread > metric.bound / 2 and metric.name != "setup_s":
                problems.append("IQR above half the bound")
            if exact and a != b:
                problems.append("not identical per seed")
            failures += len(problems)
            rows.append(
                (workload, metric.name, median_a, median_b, shift, spread(a),
                 spread(b), pair, metric.bound, "; ".join(problems) or "ok")
            )
    print(f"\nselfcheck: {runs} runs per set, seeds 1..{runs}, sets interleaved ABAB")
    print("| workload | metric | median A | median B | shift | IQR A | IQR B "
          "| A vs B per seed | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, name, median_a, median_b, shift, iqr_a, iqr_b, pair, bound, verdict in rows:
        print(
            f"| {workload} | {name} | {median_a:.6g} | {median_b:.6g} | "
            f"{100 * shift:.2f} % | {100 * iqr_a:.2f} % | {100 * iqr_b:.2f} % | "
            f"{100 * pair:.2f} % | {100 * bound:.0f} % | {verdict} |"
        )
    print("selfcheck " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments[:1] == ["--worker"]:
        sys.path.insert(1, SOURCE)
        from bench import worker

        return worker.main(arguments[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=metrics.RUN_SECONDS,
        help="measuring budget; the repetitions R scale with it "
        f"(the sizes are tuned for {metrics.RUN_SECONDS})",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the workload (tests); a run at another scale than 1 "
        "prints no contract line",
    )
    parser.add_argument(
        "--out", default=os.path.join(BENCH, "results", "results.jsonl"),
        help="result records are appended here, one JSON line per run",
    )
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument(
        "--keep-tmp", action="store_true",
        help="keep bench/.tmp (daemon trace, sqlite, span JSONL) after the run",
    )
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="runs per selfcheck set")
    options = parser.parse_args(arguments)
    if options.seconds <= 0 or options.scale <= 0 or options.runs < 2:
        parser.error("--seconds and --scale must be > 0, --runs at least 2")
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"nothing to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    if options.selfcheck:
        return selfcheck(options.runs, options.out, options.seconds, options.workload)
    if options.workload is None:
        parser.error("--workload is required")
    record = measure(
        options.workload,
        options.seed,
        seconds=options.seconds,
        scale=options.scale,
        trace=bool(options.trace),
        write_golden=options.write_golden,
        keep_tmp=options.keep_tmp,
        out=options.out,
    )
    report(record)
    if options.scale != 1.0:
        print(f"scale {options.scale}: not a measurement, no contract line")
        return 0 if record["correct"] else 1
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
