#!/usr/bin/env python3
"""Performance benchmark: campaign parallelism and trace-replay speed.

Times the performance layers added for the large-scale campaigns
(see docs/performance.md):

* the serial repetition loop vs. the process-pool campaign runner
  (``run_repetitions(..., workers=N)``),
* the per-observation ``TimeoutStrategy`` classes vs. the predictors'
  and margins' block forms (``forecast_many``, ``unit_many`` and
  ``scale_many``, what ``repro.fd.replay`` reads) on a recorded delay
  trace,
* the scalar ``ArimaForecaster`` path vs. the batched refit-window
  ARIMA replay (``batch_arima_predictions``), and
* the event-driven simulator campaign vs. the replay-backed campaign
  engine (``run_repetitions(..., engine="replay")``) on the full
  30-combination matrix,

and writes the measurements to a JSON file so successive runs can be
compared.  The parallel runner and the replay paths are proven
equivalent to their scalar counterparts by ``tests/test_parallel.py``,
``tests/test_predictor_contract.py``, ``tests/test_replay.py`` and
``tests/test_replay_engine.py``; this script only measures speed.

Usage::

    python scripts/bench_perf.py [--cycles 4000] [--runs 4] [--workers 0]
                                 [--trace 30000] [--output BENCH_perf.json]

``--workers 0`` means one worker per core.  On a single-core container
the pool degenerates to one process and the campaign speed-up is ~1x
(minus pool overhead); the replay speed-ups are hardware-independent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.accuracy import collect_delay_trace
from repro.experiments.runner import aggregate_runs, run_repetitions
from repro.fd.combinations import (
    MARGINS,
    MARGIN_NAMES,
    PREDICTORS,
    combination_ids,
    make_strategy,
)
from repro.neko.config import ExperimentConfig

#: The predictors in the order the timings have always used (not
#: ``PREDICTOR_NAMES``' order), so the recorded subsets stay the same.
TIMED_PREDICTORS = ("Arima", "Last", "Mean", "WinMean", "LPF")

#: Margin subset for the strategy-level timings: the paper's "medium"
#: level of each family.
BENCH_MARGINS = tuple(m for m in MARGIN_NAMES if m.endswith("_med"))

#: Predictors timed by the generic replay section.  ARIMA gets its own
#: section (its cost profile is refit-dominated, unlike the O(n)
#: recurrence predictors) so the two speed-up contracts stay separate.
BENCH_PREDICTORS = tuple(p for p in TIMED_PREDICTORS if p != "Arima")

#: Detector subset for the serial-vs-parallel campaign timing: one
#: combination per predictor family, margins cycled.
CAMPAIGN_DETECTORS = [
    f"{predictor}+{MARGIN_NAMES[index % len(MARGIN_NAMES)]}"
    for index, predictor in enumerate(TIMED_PREDICTORS)
]


def time_campaign(
    config: ExperimentConfig, runs: int, workers: Optional[int]
) -> Dict[str, float]:
    """Wall-clock the serial loop and the process-pool runner."""
    start = time.perf_counter()
    serial = run_repetitions(config, runs, CAMPAIGN_DETECTORS, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_repetitions(config, runs, CAMPAIGN_DETECTORS, workers=workers)
    parallel_s = time.perf_counter() - start

    # Sanity: pooled QoS must be identical before the timing means anything.
    pooled_serial = aggregate_runs(serial)
    pooled_parallel = aggregate_runs(parallel)
    for detector_id, aggregate in pooled_serial.items():
        if aggregate.td_samples != pooled_parallel[detector_id].td_samples:
            raise AssertionError(f"parallel run diverged for {detector_id}")

    return {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
    }


def strategy_loop(
    predictor_name: str, margin_name: str, observations: np.ndarray
) -> List[Tuple[float, float, float]]:
    """The per-observation path: one strategy fed every delay, its
    prediction, margin and time-out read after each."""
    strategy = make_strategy(predictor_name, margin_name)
    sequences = []
    for value in observations:
        strategy.observe(float(value))
        sequences.append(
            (strategy.prediction(), strategy.margin.current(), strategy.timeout())
        )
    return sequences


def block_forms(
    predictor_name: str, margin_name: str, observations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The same sequences from the classes' block forms, composed as the
    replay composes them."""
    predictor_class, params = PREDICTORS[predictor_name]
    margin_class, level = MARGINS[margin_name]
    predictions = predictor_class.forecast_many(observations, **params)
    margins = margin_class.scale_many(
        level, margin_class.unit_many(observations, predictions)
    )
    return predictions, margins, np.maximum(0.0, predictions + margins)


def time_replay(trace_len: int, seed: int = 5) -> Dict[str, object]:
    """Wall-clock the scalar strategy classes vs. their block forms."""
    trace = collect_delay_trace(count=trace_len, seed=seed)
    observations = trace.delays

    combos = [(p, m) for p in BENCH_PREDICTORS for m in BENCH_MARGINS]

    start = time.perf_counter()
    for predictor_name, margin_name in combos:
        strategy_loop(predictor_name, margin_name, observations)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    for predictor_name, margin_name in combos:
        block_forms(predictor_name, margin_name, observations)
    vector_s = time.perf_counter() - start

    return {
        "trace_len": int(observations.size),
        "combinations": len(combos),
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
    }


def time_arima_replay(trace_len: int, seed: int = 5) -> Dict[str, object]:
    """Wall-clock the scalar ARIMA forecaster vs. the batched replay.

    Spans several refit windows (refit every 1000 observations) so both
    sides pay the same number of least-squares fits; the difference is
    the per-observation python loop the batch path eliminates.
    """
    trace = collect_delay_trace(count=trace_len, seed=seed)
    observations = trace.delays

    start = time.perf_counter()
    for margin_name in BENCH_MARGINS:
        strategy_loop("Arima", margin_name, observations)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    for margin_name in BENCH_MARGINS:
        block_forms("Arima", margin_name, observations)
    vector_s = time.perf_counter() - start

    return {
        "trace_len": int(observations.size),
        "margins": len(BENCH_MARGINS),
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
    }


def time_campaign_replay_engine(
    cycles: int, runs: int, seed: int
) -> Dict[str, object]:
    """Wall-clock the simulator vs. replay campaign engines, full matrix.

    Uses a crash-free configuration (``mttc = 2.5 x duration`` puts the
    first crash draw beyond the horizon for every seed) because the
    replay engine refuses crashy traces by contract.  Both engines run
    serially so the comparison isolates the engine, not the pool.
    """
    duration = cycles * 1.0
    config = ExperimentConfig(
        num_cycles=cycles,
        mttc=2.5 * duration,
        ttr=20.0,
        eta=1.0,
        profile_name="italy-japan",
        seed=seed,
    )
    detectors = combination_ids()

    start = time.perf_counter()
    simulated = run_repetitions(config, runs, detectors, workers=1)
    simulator_s = time.perf_counter() - start

    start = time.perf_counter()
    replayed = run_repetitions(config, runs, detectors, workers=1, engine="replay")
    replay_s = time.perf_counter() - start

    # Sanity: pooled mistake/recurrence samples must agree to float
    # tolerance before the timing means anything.
    pooled_sim = aggregate_runs(simulated)
    pooled_rep = aggregate_runs(replayed)
    for detector_id, aggregate in pooled_sim.items():
        other = pooled_rep[detector_id]
        for mine, theirs in (
            (aggregate.tm_samples, other.tm_samples),
            (aggregate.tmr_samples, other.tmr_samples),
        ):
            if len(mine) != len(theirs) or any(
                abs(a - b) > 1e-6 for a, b in zip(mine, theirs)
            ):
                raise AssertionError(f"replay engine diverged for {detector_id}")

    return {
        "cycles": cycles,
        "runs": runs,
        "detectors": len(detectors),
        "simulator_s": simulator_s,
        "replay_s": replay_s,
        "speedup": simulator_s / replay_s if replay_s > 0 else float("inf"),
    }


def run_benchmark(
    *,
    cycles: int = 4000,
    runs: int = 4,
    workers: Optional[int] = None,
    trace_len: int = 30_000,
    seed: int = 2005,
) -> Dict[str, object]:
    """Run all timings and return the result record."""
    config = ExperimentConfig(
        num_cycles=cycles,
        mttc=120.0,
        ttr=20.0,
        eta=1.0,
        profile_name="italy-japan",
        seed=seed,
    )
    return {
        "cycles": cycles,
        "runs": runs,
        "workers": workers if workers is not None else (os.cpu_count() or 1),
        "cpu_count": os.cpu_count() or 1,
        "campaign": time_campaign(config, runs, workers),
        "replay": time_replay(trace_len),
        "arima_replay": time_arima_replay(trace_len),
        "campaign_replay_engine": time_campaign_replay_engine(
            cycles, max(2, runs // 2), seed
        ),
    }


def format_report(record: Dict[str, object]) -> str:
    campaign: Dict[str, float] = record["campaign"]  # type: ignore[assignment]
    replay: Dict[str, object] = record["replay"]  # type: ignore[assignment]
    arima: Dict[str, object] = record["arima_replay"]  # type: ignore[assignment]
    engine: Dict[str, object] = record["campaign_replay_engine"]  # type: ignore[assignment]
    lines = [
        f"campaign: {record['runs']} runs x {record['cycles']} cycles, "
        f"{len(CAMPAIGN_DETECTORS)} detectors, "
        f"{record['workers']} workers ({record['cpu_count']} cores)",
        f"  serial   : {campaign['serial_s']:8.2f} s",
        f"  parallel : {campaign['parallel_s']:8.2f} s"
        f"   ({campaign['speedup']:.2f}x)",
        f"replay: {replay['combinations']} combinations x "
        f"{replay['trace_len']} observations",
        f"  scalar classes : {replay['scalar_s']:8.2f} s",
        f"  vectorized     : {replay['vectorized_s']:8.2f} s"
        f"   ({replay['speedup']:.1f}x)",
        f"arima replay: {arima['margins']} margins x "
        f"{arima['trace_len']} observations",
        f"  scalar forecaster : {arima['scalar_s']:8.2f} s",
        f"  batched replay    : {arima['vectorized_s']:8.2f} s"
        f"   ({arima['speedup']:.1f}x)",
        f"campaign engine: {engine['runs']} runs x {engine['cycles']} cycles, "
        f"all {engine['detectors']} detectors, serial",
        f"  simulator : {engine['simulator_s']:8.2f} s",
        f"  replay    : {engine['replay_s']:8.2f} s"
        f"   ({engine['speedup']:.1f}x)",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=4000)
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--workers", type=int, default=0,
                        help="0 = one per core (default)")
    parser.add_argument("--trace", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="JSON result file ('-' to skip writing)")
    args = parser.parse_args(argv)

    workers = args.workers if args.workers != 0 else None
    record = run_benchmark(
        cycles=args.cycles,
        runs=args.runs,
        workers=workers,
        trace_len=args.trace,
        seed=args.seed,
    )
    print(format_report(record))
    if args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
