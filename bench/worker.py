"""One workload, in this interpreter: set-up, the timed repetitions, the
call count, the output checks and (``--trace 1``) the traced repetitions.

``bench/run.py`` starts this in a fresh interpreter and reads the result
as one JSON document from the file it names.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from . import metrics, workloads
from .estimator import CleanTime, clean_time
from .trace import Tracer, TracedPass


def golden_path(workload: str, seed: int) -> str:
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "golden", f"{workload}-seed{seed}.json"
    )


def repetitions_for(nominal: int, seconds: float) -> int:
    """``R`` for a ``--seconds`` other than the nominal: the work stays a
    fixed sequence, only how often it is repeated follows the budget."""
    return max(3, round(nominal * seconds / metrics.RUN_SECONDS))


def take_turns(cpus: Sequence[int], turn: int) -> None:
    """Pin this process to one of ``cpus``, the ``turn``-th in rotation.

    At any moment one CPU of this box is typically 30–75 % slower than the
    other, for minutes (somebody else's work runs beside it), and the
    scheduler moves a process between them as it likes: that, more than
    anything, is what made identical runs differ.  The repetitions take
    the CPUs in turn, so every step is executed on each of them and its
    minimum comes from whichever was free.
    """
    if cpus:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def allowed_cpus() -> List[int]:
    """The CPUs this process may run on (empty where pinning is not
    available)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def repro_calls(profiler: cProfile.Profile, source_root: str) -> int:
    """Calls of functions defined under ``source_root`` (C functions and
    everything outside it are left out)."""
    prefix = os.path.join(source_root, "")
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(prefix)
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    scale: float,
    trace: bool,
    tmp: str,
    spawned_at: float,
    source_root: str,
    write_golden: bool = False,
) -> Dict[str, Any]:
    """Run ``workload`` once and return everything the record keeps."""
    module = workloads.load(workload)
    inputs = module.prepare(seed, scale, tmp)
    # Set-up ends here: interpreter started, modules imported, seeded
    # inputs generated, the first step can run.
    setup_s = time.monotonic() - spawned_at
    count = repetitions_for(module.REPETITIONS, seconds)
    cpus = allowed_cpus()

    # ---- the timed repetitions ---------------------------------------
    laps_of: List[List[float]] = []
    fingerprints: List[str] = []
    out = None
    for turn in range(count):
        take_turns(cpus, turn)
        gc.collect()
        laps = workloads.Laps()
        out = module.repetition(inputs, laps)
        laps_of.append(laps.times)
        fingerprints.append(workloads.digest(module.fingerprint(inputs, out)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clean = clean_time(laps_of)
    if len(inputs.step_ids) != len(clean.steps):
        raise RuntimeError(
            f"{workload} names {len(inputs.step_ids)} steps and ran {len(clean.steps)}"
        )
    summary = module.summary(inputs, out, clean)
    units = inputs.units
    fastest = min(range(count), key=lambda turn: sum(laps_of[turn]))

    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "unit": module.UNIT,
        "units_per_repetition": units,
        "repetitions": count,
        "sizes": module.SIZES,
        "steps": {
            "count": len(clean.steps),
            "clean_s": clean.clean_s,
            "raw_median_s": clean.raw_median_s,
            "raw_fastest_s": clean.raw_fastest_s,
            "confirmed_share": clean.confirmed_share,
        },
        "detail": summary["detail"],
        # Where the fastest repetition ran: the free CPU, for the probes.
        "free_cpu": cpus[fastest % len(cpus)] if cpus else None,
    }
    # ---- the call count (separate, untimed) ---------------------------
    end_to_end: Dict[str, float] = {}
    if not trace:
        gc.collect()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            out = module.repetition(inputs, workloads.Laps())
        finally:
            profiler.disable()
        fingerprints.append(workloads.digest(module.fingerprint(inputs, out)))
        end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": units / clean.clean_s,
            "wait_ms": summary["wait_ms"],
            "py_calls_per_unit": repro_calls(profiler, source_root) / units,
        }

    # ---- the traced repetitions ---------------------------------------
    per_layer: Dict[str, float] = {}
    if trace:
        per_layer, out = _traced(module, inputs, clean, fingerprints, tmp, cpus)

    # ---- the output checks, on the last repetition executed -------------
    # (whichever pass it belonged to: its scratch files are the ones left)
    checks = [
        (
            "every repetition reproduces repetition 0",
            len(set(fingerprints)) == 1,
            f"{len(set(fingerprints))} distinct fingerprints in "
            f"{len(fingerprints)} repetitions",
        )
    ]
    checks.extend(module.checks(inputs, out))
    fingerprint = module.fingerprint(inputs, out)
    if module.PINNED and scale == 1.0:
        checks.append(_golden(workload, seed, fingerprint, summary, write_golden))
    failed = summary["failed"]
    result.update(
        {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "checks": [
                {"name": name, "ok": bool(ok), "detail": detail}
                for name, ok, detail in checks
            ],
            "correct": all(ok for _name, ok, _detail in checks),
            "attempted": summary["attempted"] * count,
            "failed": failed * count,
        }
    )
    return result


def _traced(
    module: Any,
    inputs: Any,
    clean: CleanTime,
    fingerprints: List[str],
    tmp: str,
    cpus: Sequence[int],
):
    """Repetitions with the span wrappers installed."""
    tracer = Tracer()
    tracer.calibrate()
    aggregates = []
    traced_laps: List[List[float]] = []
    tracer.install()
    try:
        for turn in range(metrics.TRACED_REPETITIONS):
            take_turns(cpus, turn)
            gc.collect()
            tracer.reset()
            laps = workloads.Laps(tracer)
            out = module.repetition(inputs, laps)
            traced_laps.append(laps.times)
            aggregates.append(tracer.aggregate())
            fingerprints.append(workloads.digest(module.fingerprint(inputs, out)))
    finally:
        tracer.restore()
    # The spans of the last traced repetition go to disk, as the record of
    # what the figures were computed from.
    tracer.write(os.path.join(tmp, f"spans-{module.NAME}.jsonl"), inputs.step_ids)
    traced = TracedPass(aggregates, tracer.inner_cost, tracer.outer_cost)
    traced_clean = clean_time(traced_laps)
    values = {metric.name: 0.0 for metric in metrics.PER_LAYER}
    for name, value in module.layers(inputs, out, traced, clean).items():
        if name not in values:
            raise KeyError(f"{module.NAME} reports unregistered metric {name!r}")
        values[name] = float(value)
    overhead = traced_clean.clean_s - clean.clean_s
    values.update(
        {
            "bench.raw_over_clean": clean.raw_median_s / clean.clean_s,
            "bench.confirmed_share": clean.confirmed_share,
            "bench.steps": float(len(clean.steps)),
            "trace.overhead_share": overhead / clean.clean_s,
            "trace.us_per_span": 1e6 * overhead / traced.spans if traced.spans else 0.0,
        }
    )
    return values, out


def _golden(
    workload: str,
    seed: int,
    fingerprint: Any,
    summary: Dict[str, Any],
    write: bool,
):
    """Compare the fingerprint with the committed golden of this seed."""
    path = golden_path(workload, seed)
    observed = {
        "workload": workload,
        "seed": seed,
        "digest": workloads.digest(fingerprint),
        "wait_ms": summary["wait_ms"],
        "attempted": summary["attempted"],
    }
    if write:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(observed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return ("golden written", True, os.path.relpath(path))
    if not os.path.exists(path):
        return (
            "golden",
            True,
            f"no golden for seed {seed}: only the invariants were applied",
        )
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)
    same = expected["digest"] == observed["digest"]
    return (
        "outputs equal the golden",
        same,
        f"digest {observed['digest'][:12]}"
        + ("" if same else f", golden {expected['digest'][:12]}"),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry of the fresh interpreter: arguments as one JSON document."""
    request = json.loads((argv if argv is not None else sys.argv[1:])[0])
    result_path = request.pop("result")
    if request.pop("probe", False):
        # A set-up probe: everything up to "ready", nothing after.
        workloads.load(request["workload"]).prepare(
            request["seed"], request["scale"], request["tmp"]
        )
        result: Dict[str, Any] = {"setup_s": time.monotonic() - request["spawned_at"]}
    else:
        result = run(**request)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0
