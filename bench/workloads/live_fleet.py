"""``live_fleet``: one monitor daemon on loopback UDP, every feature on.

A ``MonitorDaemon`` with the JSONL ``TraceRecorder``, a sqlite
``WindowedQosStore`` (5 s snapshots), drift monitoring (window 64), intake
shedding armed far above the load (the token check runs, nothing is shed)
and the HTTP server up; η = 0.1 s, 30 detectors per endpoint.  It is the
saturation number ROADMAP says is unknown, and the only workload where
``net.udp``, ``service``, ``obs`` and the asyncio scheduler do the work —
the same ``fd`` and ``neko`` classes as ``campaign_sim``, hosted
differently.

Closed loop with **window 1** from one sender socket on the daemon's own
event loop: a step is ``sendto`` → poll ``heartbeats_total`` with
``asyncio.sleep(0)`` → done, so a step is one heartbeat's whole journey
(receive, shed check, decode, dispatch, fan-out, 30 timer re-arms, 32
spans, loop housekeeping).  Delays come from the benchmark's own seeded
stream — N(215 ms, 7.6 ms) clipped to [192, 340] ms plus 1 % spikes of
700 ms — stamped as ``timestamp = now − delay``; the spikes drive
suspect/trust transitions through the accumulators, the hub, the history
store and the exporter's dirty set.  After every :data:`READ_EVERY`-th
heartbeat come the **read steps** (``metrics_text``, ``qos_window``,
``trace_tail``, ``drift_report``; the window query one endpoint at a
time), so reads sit beside writes in the same sequence.  Every repetition gets a fresh daemon and fresh files.

The issue sized a repetition at 16 endpoints and R = 12.  A heartbeat's
journey is the noisiest step of the four workloads (system calls, the
event loop), and its minimum needs many executions: at R = 16 the clean
time of 4 endpoints ranged 10 % within one process, at R = 32 that of 2
endpoints 4 %.  So the contract's time cap is spent on repetitions: 2
endpoints × 210 heartbeats (which covers the initial ARIMA fit at 200),
R = 28.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.obs.analyze as obs_analyze
from repro.net.message import Datagram
from repro.net.udp import encode_datagram
from repro.nekostat.metrics import DetectorQos
from repro.obs.history import WindowedQosStore
from repro.obs.trace import TraceRecorder
from repro.service.daemon import MonitorDaemon

from ..estimator import lindley_sojourns, percentile
from . import Check, Laps, derive_seed, per, scaled

NAME = "live_fleet"
UNIT = "heartbeat"
REPETITIONS = 28
#: No golden: the values depend on a real clock.
PINNED = False
ENDPOINTS = 2
HEARTBEATS = 210
READ_EVERY = 140
ETA = 0.1
SPIKE = 0.7
SPIKE_SHARE = 0.01
#: Far above what one core can dispatch, so the bucket never empties.
INTAKE_LIMIT = 1_000_000.0
#: Turns of the event loop (each under 10 µs) a heartbeat may take to show
#: up before it is given up as lost.
MAX_POLLS = 200_000
#: Fixed offered rate of the per-layer queue replay, heartbeats/s.
FIXED_RATE = 500.0
SIZES = {
    "endpoints": ENDPOINTS,
    "heartbeats_per_endpoint": HEARTBEATS,
    "detectors": 30,
    "eta": ETA,
    "read_every": READ_EVERY,
}

#: A read set: the scrape, the windowed QoS of each endpoint, the trace
#: tail and the drift report, one step each.
READS = ("metrics", *(f"qos_window:{e}" for e in range(ENDPOINTS)), "trace_tail", "drift_report")


@dataclass
class Inputs:
    names: List[str]
    #: ``(endpoint index, sequence number, delay)`` in sending order.
    beats: List[Tuple[int, int, float]]
    #: Per step: whether it is a heartbeat (else a read).
    is_beat: List[bool]
    step_ids: List[str]
    units: int
    spikes: int
    tmp: str
    scale: float


@dataclass
class Out:
    sent: int
    dispatched: int
    shed: int
    dropped: int
    lost: int
    now: float
    reference: Dict[Tuple[str, str], DetectorQos]
    suspecting_at_end: int
    recorder: Dict[str, Any]
    scrape_bytes: int
    scrape_series: int
    trace_path: str


def prepare(seed: int, scale: float, tmp: str) -> Inputs:
    heartbeats = scaled(HEARTBEATS, scale, minimum=12)
    rng = np.random.default_rng(derive_seed(seed, NAME))
    count = ENDPOINTS * heartbeats
    delays = np.clip(rng.normal(0.215, 0.0076, count), 0.192, 0.340)
    # Reads come after every ``read_every``-th heartbeat, starting half an
    # interval in, so that each has heartbeats behind it to stall.
    read_every = max(ENDPOINTS, round(READ_EVERY * heartbeats / HEARTBEATS))
    read_after = list(range(read_every // 2, count, read_every))
    # One heartbeat in a hundred is a spike.  How many fall between two
    # reads is fixed and only their places are drawn: what a read costs
    # grows with the transitions since the last one, a queue's wait with
    # the square of a stall, and a Poisson count per interval would move
    # wait_ms by half from seed to seed.  A suspicion raised by a
    # spike ends at the endpoint's next heartbeat, so the first rounds (no
    # history yet) and the last two stay calm.
    first = min(10, heartbeats // 3)
    last = heartbeats - 2
    spikes: List[int] = []
    turn = int(rng.integers(ENDPOINTS))
    for start, end in zip([0] + read_after, read_after + [count]):
        rounds = np.arange(max(-(-start // ENDPOINTS), first), min(end // ENDPOINTS, last))
        wanted = min(len(rounds), round(SPIKE_SHARE * (end - start)))
        # The spikes of an interval take the endpoints in turn, so that
        # each interval dirties the same number of exported series.
        for sequence in rng.choice(rounds, size=wanted, replace=False).tolist():
            spikes.append(sequence * ENDPOINTS + turn % ENDPOINTS)
            turn += 1
    delays[spikes] = SPIKE
    names = [f"ep{index:02d}" for index in range(ENDPOINTS)]
    beats: List[Tuple[int, int, float]] = []
    is_beat: List[bool] = []
    step_ids: List[str] = []
    for sequence in range(heartbeats):
        for endpoint in range(ENDPOINTS):
            beats.append((endpoint, sequence, float(delays[len(beats)])))
            is_beat.append(True)
            step_ids.append(f"{names[endpoint]}#{sequence}")
            if len(beats) in read_after:
                for read in READS:
                    is_beat.append(False)
                    step_ids.append(f"read:{read}@{len(beats)}")
    return Inputs(
        names=names,
        beats=beats,
        is_beat=is_beat,
        step_ids=step_ids,
        units=count,
        spikes=len(spikes),
        tmp=os.path.join(tmp, NAME),
        scale=scale,
    )


def repetition(inputs: Inputs, laps: Laps) -> Out:
    # Fresh files per repetition; the last repetition's stay for the checks.
    shutil.rmtree(inputs.tmp, ignore_errors=True)
    os.makedirs(inputs.tmp)
    return asyncio.run(_drive(inputs, laps))


async def _drive(inputs: Inputs, laps: Laps) -> Out:
    trace_path = os.path.join(inputs.tmp, "trace.jsonl")
    daemon = MonitorDaemon(
        eta=ETA,
        tracer=TraceRecorder(trace_path),
        history=WindowedQosStore(os.path.join(inputs.tmp, "history.sqlite")),
        snapshot_interval=5.0,
        drift_window=64,
        max_intake_rate=INTAKE_LIMIT,
        http_port=0,
    )
    await daemon.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        return await _exchange(inputs, laps, daemon, sender, trace_path)
    finally:
        sender.close()
        await daemon.stop(drain=0.0)


async def _exchange(
    inputs: Inputs,
    laps: Laps,
    daemon: MonitorDaemon,
    sender: socket.socket,
    trace_path: str,
) -> Out:
    address = daemon.udp_endpoint
    scheduler = daemon.scheduler
    names = inputs.names
    beats = iter(inputs.beats)
    sleep = asyncio.sleep
    lost = 0
    scrape = ""
    read = 0
    laps.start()
    for is_beat in inputs.is_beat:
        if is_beat:
            endpoint, sequence, delay = next(beats)
            expected = daemon.heartbeats_total + 1
            sender.sendto(
                encode_datagram(
                    Datagram(
                        source=names[endpoint],
                        destination=daemon.address,
                        kind="heartbeat",
                        seq=sequence,
                        timestamp=scheduler.now - delay,
                    )
                ),
                address,
            )
            polls = 0
            while daemon.heartbeats_total < expected:
                await sleep(0)
                polls += 1
                if polls > MAX_POLLS:
                    # Loopback does not lose datagrams; if one never shows
                    # up, count it and go on instead of spinning for ever.
                    lost += 1
                    break
        else:
            kind = READS[read % len(READS)]
            read += 1
            if kind == "metrics":
                scrape = daemon.metrics_text()
            elif kind.startswith("qos_window"):
                daemon.qos_window(60.0, endpoint=names[int(kind[-1])])
            elif kind == "trace_tail":
                daemon.trace_tail(100)
            else:
                daemon.drift_report()
        laps()
    laps.stop()
    now = scheduler.now
    reference = {
        (monitor.name, detector_id): qos
        for monitor in daemon.registry
        for detector_id, qos in monitor.snapshot(now).items()
    }
    suspecting = sum(
        1 for monitor in daemon.registry for state in monitor.suspecting().values() if state
    )
    return Out(
        sent=len(inputs.beats),
        dispatched=daemon.heartbeats_total,
        shed=daemon.shed_datagrams,
        dropped=daemon.dropped_datagrams,
        lost=lost,
        now=now,
        reference=reference,
        suspecting_at_end=suspecting,
        recorder=daemon.trace_tail(0)["recorder"],
        scrape_bytes=len(scrape.encode("utf-8")),
        scrape_series=sum(
            1 for line in scrape.splitlines() if line and not line.startswith("#")
        ),
        trace_path=trace_path,
    )


def fingerprint(inputs: Inputs, out: Out) -> Dict[str, Any]:
    """What every repetition must reproduce.  The daemon's clock is real,
    so no QoS value is pinned (:data:`PINNED`); the counters are, and
    :func:`checks` says what they must be."""
    return {
        "sent": out.sent,
        "dispatched": out.dispatched,
        "shed": out.shed,
        "dropped": out.dropped,
        "lost": out.lost,
        "suspecting_at_end": out.suspecting_at_end,
    }


def _services(inputs: Inputs, steps: List[float]) -> List[float]:
    """Service time of every heartbeat with the reads before it folded in:
    a read occupies the same loop, so the next heartbeat waits for it."""
    services = []
    stalled = 0.0
    for is_beat, step in zip(inputs.is_beat, steps):
        if is_beat:
            services.append(stalled + step)
            stalled = 0.0
        else:
            stalled += step
    return services


def queue_wait_ms(inputs: Inputs, clean: Any) -> float:
    """Mean (queue wait + service) of a heartbeat when the clean step times
    are replayed through a single-server queue at **half the run's own
    clean capacity**.  Computed, never slept, so the box cannot enter; and
    at fixed utilisation it scales with the stall structure (fits, scrapes)
    rather than quadratically with speed."""
    services = _services(inputs, clean.steps)
    interarrival = 2.0 * clean.clean_s / len(services)
    sojourns = lindley_sojourns(services, interarrival)
    return 1000.0 * sum(sojourns) / len(sojourns)


def summary(inputs: Inputs, out: Out, clean: Any) -> Dict[str, Any]:
    return {
        "wait_ms": queue_wait_ms(inputs, clean),
        "attempted": out.sent,
        "failed": out.shed + out.dropped + (out.sent - out.dispatched),
        "detail": {
            "spikes": inputs.spikes,
            "spans": out.recorder["events_total"],
            "transitions": _transitions(out),
        },
    }


def _transitions(out: Out) -> int:
    # Every suspicion was ended by a fresh heartbeat, so each is two.
    return 2 * sum(len(qos.mistakes) for qos in out.reference.values())


def checks(inputs: Inputs, out: Out) -> List[Check]:
    results: List[Check] = [
        (
            "every datagram dispatched, none shed or dropped",
            out.dispatched == out.sent and not (out.shed or out.dropped or out.lost),
            f"{out.dispatched}/{out.sent} dispatched, shed {out.shed}, "
            f"dropped {out.dropped}, lost {out.lost}",
        ),
        (
            "every suspect later trusted",
            out.suspecting_at_end == 0,
            f"{out.suspecting_at_end} still suspecting",
        ),
        (
            "transitions at least one per spike",
            _transitions(out) >= inputs.spikes,
            f"{_transitions(out)} transitions, {inputs.spikes} spikes",
        ),
    ]
    events = obs_analyze.load_events([out.trace_path])
    replayed = obs_analyze.qos_from_spans(events, end_time=out.now)
    disagreements = _disagreements(out.reference, replayed)
    results.append(
        (
            "accumulators equal a replay of the recorded trace",
            not disagreements,
            f"{len(events)} spans, {len(disagreements)} disagreements"
            + (f": {disagreements[:3]}" if disagreements else ""),
        )
    )
    return results


def _disagreements(
    reference: Dict[Tuple[str, str], DetectorQos],
    replayed: Dict[Tuple[str, str], Any],
) -> List[str]:
    """Series whose number of mistakes differs between the live
    accumulators and the span replay, or whose spans arrive out of order.
    Durations are not compared: span and accumulator read the clock at
    different instants, milliseconds apart when the box stalls between
    them, and a mistake here lasts two or three.  Nor is ``P_A``: with a
    single mistake it is estimated from the series' start, which the
    replay only knows as its first transition."""
    found = []
    for key, expected in sorted(reference.items()):
        spans = replayed.get(key)
        actual = spans.qos.mistakes if spans is not None else []
        if spans is not None and spans.inconsistencies:
            found.append(f"{key[0]}/{key[1]}: {spans.inconsistencies} out of order")
        elif len(actual) != len(expected.mistakes):
            found.append(
                f"{key[0]}/{key[1]}: {len(actual)} mistakes, "
                f"accumulator {len(expected.mistakes)}"
            )
    return found


def layers(inputs: Inputs, out: Out, traced: Any, clean: Any) -> Dict[str, float]:
    heartbeats = float(inputs.units)
    updates = traced.count("fd.detector")
    transitions = traced.count("obs.history_transition")
    fits = traced.count("timeseries.arima_fit")
    fit_seconds = traced.duration("timeseries.arima_fit")
    predictor_updates = per(traced.count("fd.predictor_observe"), heartbeats)
    beat_steps = [s for s, beat in zip(clean.steps, inputs.is_beat) if beat]
    beat_seconds = sum(beat_steps)
    fixed = lindley_sojourns(_services(inputs, clean.steps), 1.0 / FIXED_RATE)
    # The journey of a heartbeat: receive, fan-out and one freshness span
    # per detector; suspect and trust spans come on top, per transition.
    journey_spans = float(out.recorder["events_total"] - _transitions(out))
    return {
        "net.decode_us_per_hb": per(traced.duration("net.decode"), heartbeats, 1e6),
        "net.decode_fail": float(out.dropped),
        "neko.stack_self_us_per_hb": per(traced.layer_self("neko"), heartbeats, 1e6),
        "sim.timer_arms_per_hb": per(
            traced.edge_count("sim.timer_arm", "fd.detector"), heartbeats
        ),
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
        "fd.transitions": float(_transitions(out)),
        "fd.mistakes": float(_transitions(out) // 2),
        "timeseries.arima_fits": fits,
        "timeseries.arima_fit_ms": per(fit_seconds, fits, 1e3),
        "timeseries.arima_share": per(fit_seconds, traced.step_seconds),
        "nekostat.online_us_per_transition": per(
            traced.duration("nekostat.online_transition"),
            traced.count("nekostat.online_transition"),
            1e6,
        ),
        "service.dispatch_self_us_per_hb": per(
            traced.self_time("service.dispatch") + traced.self_time("service.intake"),
            heartbeats,
            1e6,
        ),
        "service.registry_self_us_per_hb": per(
            traced.self_time("service.registry_get")
            + traced.self_time("service.monitor_deliver"),
            heartbeats,
            1e6,
        ),
        "service.scheduler_us_per_timer": per(
            traced.duration("service.schedule_at"),
            traced.count("service.schedule_at"),
            1e6,
        ),
        "service.loop_us_per_hb": per(
            traced.median(
                lambda a: a.step_seconds
                - a.duration("service.intake")
                - a.duration("service.scrape")
                - a.duration("obs.window_query")
                - a.duration("obs.trace_tail")
                - a.duration("obs.drift_report")
            ),
            heartbeats,
            1e6,
        ),
        "service.scrape_ms": per(
            traced.duration("service.scrape"), traced.count("service.scrape"), 1e3
        ),
        "service.scrape_bytes": float(out.scrape_bytes),
        "service.series_per_scrape": float(out.scrape_series),
        "service.step_p50_us": 1e6 * percentile(beat_steps, 0.50),
        "service.step_p99_us": 1e6 * percentile(beat_steps, 0.99),
        "service.stall_max_ms": 1e3 * max(clean.steps),
        "service.wait500_p99_ms": 1e3 * percentile(fixed, 0.99),
        "service.shed": float(out.shed),
        "service.dropped": float(out.dropped),
        "obs.spans_per_hb": per(journey_spans, heartbeats),
        "obs.trace_emit_us_per_span": per(
            traced.duration("obs.trace_emit"), traced.count("obs.trace_emit"), 1e6
        ),
        "obs.trace_bytes_per_hb": per(float(out.recorder["bytes_total"]), heartbeats),
        "obs.history_us_per_transition": per(
            traced.duration("obs.history_transition"), transitions, 1e6
        ),
        "obs.drift_us_per_hb": per(
            traced.duration("obs.drift_observe"), heartbeats, 1e6
        ),
        "obs.window_query_ms": per(
            traced.duration("obs.window_query"), traced.count("obs.window_query"), 1e3
        ),
        "obs.trace_tail_ms": per(
            traced.duration("obs.trace_tail"), traced.count("obs.trace_tail"), 1e3
        ),
        "obs.busy_share": per(traced.layer_self("obs"), traced.step_seconds),
    }
