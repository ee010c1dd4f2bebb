"""``campaign_sim``: the paper campaign on the event-driven simulator.

Table 5 parameters (η = 1 s, MTTC 300 s, TTR 30 s, ``italy-japan``), all
30 detector combinations, crashes on.  One repetition builds the Figure 3
system, runs it in ten-cycle steps, extracts the QoS and pools it.  It is
the only workload that yields ``T_D``; the simulation engine, the Neko
stack, the scalar detector bank, the scalar ARIMA and the event log do
nearly all of its work.

The issue sized a repetition at 3 000 cycles; the contract's total time
cap allows 1 400 (ARIMA fits at 200 and 1 000 observations, 3–4 crashes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.runner import (
    AggregatedQos,
    QosRunSummary,
    aggregate_runs,
    build_qos_system,
)
from repro.fd.combinations import combination_ids
from repro.neko.config import ExperimentConfig
from repro.nekostat.metrics import extract_qos

from . import Check, Laps, digest, per, scaled, stats_dict

NAME = "campaign_sim"
UNIT = "heartbeat cycle"
#: The fingerprint is pinned by ``bench/golden/``.
PINNED = True
REPETITIONS = 20
CYCLES = 1400
#: Cycles per step: ≈ 4 ms, short enough that one of R executions of a
#: step is likely to run uncontended.
BLOCK = 10
SIZES = {"cycles": CYCLES, "block": BLOCK, "detectors": 30}


@dataclass
class Inputs:
    config: ExperimentConfig
    detector_ids: List[str]
    step_ids: List[str]
    units: int
    scale: float


@dataclass
class Out:
    pooled: Dict[str, AggregatedQos]
    run: QosRunSummary
    crashes: List[Tuple[float, float]]
    events: int
    logged: int


def prepare(seed: int, scale: float, tmp: str) -> Inputs:
    cycles = scaled(CYCLES, scale, minimum=2 * BLOCK, multiple=BLOCK)
    blocks = [f"cycles:{start}-{start + BLOCK}" for start in range(0, cycles, BLOCK)]
    return Inputs(
        config=ExperimentConfig(num_cycles=cycles, seed=seed),
        detector_ids=combination_ids(),
        step_ids=["build"] + blocks + ["extract_qos", "aggregate"],
        units=cycles,
        scale=scale,
    )


def repetition(inputs: Inputs, laps: Laps) -> Out:
    config = inputs.config
    laps.start()
    parts = build_qos_system(config, inputs.detector_ids)
    laps()
    system = parts["system"]
    for until in range(BLOCK, config.num_cycles + 1, BLOCK):
        system.run(until=float(until))
        laps()
    event_log = parts["event_log"]
    qos = extract_qos(
        event_log, end_time=config.duration, detectors=list(inputs.detector_ids)
    )
    laps()
    link = parts["link"]
    run = QosRunSummary(
        config=config,
        qos=qos,
        heartbeats_sent=parts["heartbeater"].sent,
        heartbeats_delivered=link.stats.delivered,
        link_loss_rate=link.stats.loss_rate,
        crashes=parts["simcrash"].crash_count,
    )
    pooled = aggregate_runs([run])
    laps()
    laps.stop()
    return Out(
        pooled=pooled,
        run=run,
        crashes=event_log.crash_intervals(end_time=config.duration),
        events=parts["sim"].events_processed,
        logged=len(event_log),
    )


def _detector_stats(qos: AggregatedQos) -> Dict[str, Any]:
    return {
        "t_d": stats_dict(qos.t_d),
        "t_d_upper": qos.t_d_upper,
        "t_m": stats_dict(qos.t_m),
        "t_mr": stats_dict(qos.t_mr),
        "p_a": qos.p_a,
        "empirical_p_a": qos.empirical_p_a,
        "undetected": qos.undetected_crashes,
        "up_time": qos.up_time,
    }


def fingerprint(inputs: Inputs, out: Out) -> Dict[str, Any]:
    """Every pooled QoS statistic, per detector, plus the run counters."""
    detectors = {
        detector_id: digest(_detector_stats(qos))[:16]
        for detector_id, qos in out.pooled.items()
    }
    return {
        "detectors": detectors,
        "sent": out.run.heartbeats_sent,
        "delivered": out.run.heartbeats_delivered,
        "crashes": out.run.crashes,
        "events": out.events,
        "wait_ms": detection_wait_ms(inputs, out),
    }


def _complete_crashes(inputs: Inputs, out: Out) -> List[Tuple[float, float]]:
    return [
        (start, end) for start, end in out.crashes if end < inputs.config.duration
    ]


def detection_wait_ms(inputs: Inputs, out: Out) -> Optional[float]:
    """Pooled mean ``T_D`` over the 30 detectors, crash phase averaged out.

    A crash at phase φ into a heartbeat cycle is detected after
    ``(η − φ) + δ``; the first term is the same for every detector and
    uniform on ``(0, η]``, so over the 3–4 crashes of a repetition it moves
    the raw mean by ±20 % from seed to seed.  Its expectation ``η / 2`` is
    known, so it replaces the realised value (a control variate).  Only
    crashes repaired inside the horizon count: every detector saw them to
    the end.
    """
    crashes = _complete_crashes(inputs, out)
    if not crashes:
        return None
    eta = inputs.config.eta
    samples = [
        qos.td_samples[index]
        for qos in out.pooled.values()
        for index in range(min(len(crashes), len(qos.td_samples)))
    ]
    if not samples:
        return None
    until_next_beat = [
        (math.floor(start / eta) + 1) * eta - start for start, _end in crashes
    ]
    mean_td = sum(samples) / len(samples)
    corrected = mean_td - sum(until_next_beat) / len(until_next_beat) + eta / 2
    return 1000.0 * corrected


def _without_result(inputs: Inputs, out: Out) -> List[str]:
    crashes = len(_complete_crashes(inputs, out))
    return [
        detector_id
        for detector_id in inputs.detector_ids
        if detector_id not in out.pooled
        or len(out.pooled[detector_id].td_samples) < crashes
    ]


def summary(inputs: Inputs, out: Out, clean: Any) -> Dict[str, Any]:
    return {
        "wait_ms": detection_wait_ms(inputs, out),
        "attempted": len(inputs.detector_ids),
        "failed": len(_without_result(inputs, out)),
        "detail": {
            "crashes": out.run.crashes,
            "delivered": out.run.heartbeats_delivered,
            "events": out.events,
        },
    }


def checks(inputs: Inputs, out: Out) -> List[Check]:
    missing = _without_result(inputs, out)
    results: List[Check] = [
        (
            "every detector has a QoS result",
            not missing,
            f"{len(inputs.detector_ids) - len(missing)} of {len(inputs.detector_ids)}"
            + (f"; without: {missing}" if missing else ""),
        )
    ]
    if inputs.scale >= 1.0:
        crashes = len(_complete_crashes(inputs, out))
        results.append(
            ("crashes were injected and repaired", crashes >= 1, f"{crashes} complete")
        )
    return results


def layers(inputs: Inputs, out: Out, traced: Any, clean: Any) -> Dict[str, float]:
    units = inputs.units
    events = traced.count("sim.step")
    heartbeats = traced.count("fd.fanout")
    updates = traced.count("fd.detector")
    fits = traced.count("timeseries.arima_fit")
    fit_seconds = traced.duration("timeseries.arima_fit")
    predictor_updates = per(traced.count("fd.predictor_observe"), heartbeats)
    mistakes = sum(len(qos.tm_samples) for qos in out.pooled.values())
    # The log holds suspect/trust transitions plus one CRASH per crash and
    # one RESTORE per repaired crash.
    transitions = out.logged - out.run.crashes - len(_complete_crashes(inputs, out))
    return {
        "sim.events_per_unit": per(events, units),
        "sim.loop_self_us_per_event": per(traced.self_time("sim.step"), events, 1e6),
        "sim.timer_arms_per_hb": per(
            traced.edge_count("sim.timer_arm", "fd.detector"), heartbeats
        ),
        "net.link_self_us_per_send": per(
            traced.self_time("net.link_send"), traced.count("net.link_send"), 1e6
        ),
        "neko.stack_self_us_per_hb": per(traced.layer_self("neko"), heartbeats, 1e6),
        "fd.fanout_self_us_per_hb": per(traced.self_time("fd.fanout"), heartbeats, 1e6),
        "fd.detector_self_us_per_update": per(
            traced.self_time("fd.detector"), updates, 1e6
        ),
        "fd.strategy_us_per_update": per(
            traced.duration("fd.strategy_observe")
            + traced.duration("fd.strategy_timeout"),
            updates,
            1e6,
        ),
        "fd.timer_rearm_us_per_update": per(
            traced.edge_duration("sim.timer_arm", "fd.detector"), updates, 1e6
        ),
        "fd.predictor_updates_per_hb": predictor_updates,
        "fd.unique_predictor_share": per(
            len(traced.tags("fd.predictor_observe")), predictor_updates
        ),
        "fd.transitions": float(transitions),
        "fd.mistakes": float(mistakes),
        "timeseries.arima_fits": fits,
        "timeseries.arima_fit_ms": per(fit_seconds, fits, 1e3),
        "timeseries.arima_share": per(fit_seconds, traced.step_seconds),
        "nekostat.events_logged_per_unit": per(
            traced.count("nekostat.log_append"), units
        ),
        "nekostat.extract_qos_s": traced.duration("nekostat.extract_qos"),
        "experiments.build_s": traced.duration("experiments.build"),
        "experiments.aggregate_s": traced.duration("experiments.aggregate"),
    }
