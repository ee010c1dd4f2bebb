"""Replay-backed campaign execution: ``engine="replay"``.

The event-driven runner pays the simulation-engine tax *per detector*:
every heartbeat delivery fans out to 30 strategy objects, each arming and
cancelling timers.  But for the offline QoS campaign the stochastic part
of a repetition — the delay/loss trace the WAN profile produces — is
*shared* by every combination.  This module exploits that:

1. :func:`synthesize_heartbeat_trace` draws the trace once per
   repetition, consuming exactly the same named random streams in exactly
   the same order as :func:`~repro.experiments.runner.build_qos_system`
   (link models keyed by ``"monitored->monitor"``, the SimCrash stream
   checked for crash-freeness), so the synthesized trace is *identical*
   to what the simulator's link would carry.  It makes one call per
   model, not one per heartbeat: the loss model's ``drops_many`` (one
   block of uniforms for a Gilbert–Elliott model with both states lossy)
   and the delay model's ``sample_many`` over the survivors;
2. :func:`run_qos_replay` replays all requested combinations over it with
   :func:`~repro.fd.replay.replay_detector_matrix` — one arrival/freshness
   resolution, one prediction pass per predictor family (the batched
   ARIMA included), six unit margin states (one moment pass for every
   ``SM_CI`` row, one deviation pass per predictor for its ``SM_JAC``
   rows), then a scale and the interval algebra per row — and packages
   the result as a :class:`~repro.experiments.runner.QosRunSummary`
   interchangeable with the simulator path's, so ``aggregate_runs``,
   sweeps, stores and figures work unchanged;
3. :func:`run_repetitions_replay` shards repetitions across the existing
   process pool (:func:`~repro.experiments.parallel.parallel_map`), so
   the ``workers`` knob composes with the fast path.

The replay models a crash-free monitored process under perfect clocks —
the predictor/margin evaluation workload.  Configurations whose SimCrash
stream would inject a crash inside the horizon, or that request clock
error, raise ``ValueError`` instead of silently diverging from the
simulator; use ``engine="simulator"`` for those.

``tests/test_replay_engine.py`` proves the equivalence run-for-run (a
hypothesis property over all 30 combinations); ``scripts/bench_perf.py``
records the speedup in ``BENCH_perf.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.parallel import parallel_map
from repro.experiments.runner import MONITOR, MONITORED, QosRunSummary
from repro.fd.combinations import combination_ids
from repro.fd.replay import replay_detector_matrix
from repro.neko.config import ExperimentConfig
from repro.net.wan import get_profile
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class HeartbeatTrace:
    """One repetition's worth of heartbeat traffic, as arrays.

    ``delays[i]`` is NaN where ``lost[i]`` — a lost heartbeat has no
    delay draw, mirroring the fair-lossy link's sample order (loss first,
    delay only for survivors).
    """

    send_times: "np.ndarray"
    delays: "np.ndarray"
    lost: "np.ndarray"
    duration: float
    eta: float

    @property
    def heartbeats_sent(self) -> int:
        """Heartbeats handed to the link (lost ones included)."""
        return int(self.send_times.size)

    @property
    def heartbeats_delivered(self) -> int:
        """Heartbeats arriving within the horizon."""
        mask = ~self.lost
        arrivals = self.send_times[mask] + self.delays[mask]
        return int(np.sum(arrivals <= self.duration))

    @property
    def loss_rate(self) -> float:
        """Fraction of sent heartbeats the loss model dropped."""
        return float(np.mean(self.lost))


def synthesize_heartbeat_trace(config: ExperimentConfig) -> HeartbeatTrace:
    """Draw the heartbeat trace the simulator would produce for ``config``.

    The same named random streams are consumed in the same order as the
    event-driven run: the ``monitored->monitor`` loss model answers for
    every send and the delay model draws for the survivors only, and the
    SimCrash stream's first time-to-crash draw is checked against the
    horizon.  Each model is called once for the whole trace
    (:meth:`~repro.net.loss.LossModel.drops_many`, then
    :meth:`~repro.net.delay.DelayModel.sample_many` on the survivors'
    send times): the two streams are independent, so this is the
    per-datagram interleaving's draws, value for value.
    ``num_cycles + 1`` heartbeats go out at ``k * eta`` — the periodic
    timer's tick at ``t == duration`` still fires.

    Raises ``ValueError`` for configurations the replay cannot represent:
    a crash inside the horizon, or a non-perfect monitor clock.
    """
    if config.clock_offset or config.clock_drift:
        raise ValueError(
            "the replay engine assumes perfect clocks; "
            'use engine="simulator" for clock-error experiments'
        )
    streams = RandomStreams(config.seed)
    profile = get_profile(config.profile_name)
    direction = f"{MONITORED}->{MONITOR}"
    delay_model = profile.build_delay_model(streams, direction)
    loss_model = profile.build_loss_model(streams, direction)
    first_crash = float(
        streams.get("simcrash").uniform(0.5 * config.mttc, 1.5 * config.mttc)
    )
    if first_crash <= config.duration:
        raise ValueError(
            f"SimCrash would inject a crash at t={first_crash:.1f}s inside the "
            f"{config.duration:.1f}s horizon; the replay engine models a "
            'crash-free monitored process — use engine="simulator", or raise '
            "mttc above ~2x the run duration"
        )
    count = config.num_cycles + 1
    send_times = np.arange(count) * config.eta
    # Loss and delay draw from separate streams, so the whole loss
    # sequence can go first and the delays follow for the survivors.
    lost = loss_model.drops_many(send_times)
    delays = np.full(count, np.nan)
    kept = ~lost
    delays[kept] = delay_model.sample_many(send_times[kept])
    if bool(np.all(lost)):
        raise ValueError("every heartbeat was lost; nothing to replay")
    return HeartbeatTrace(
        send_times=send_times,
        delays=delays,
        lost=lost,
        duration=config.duration,
        eta=config.eta,
    )


def run_qos_replay(
    config: ExperimentConfig,
    detector_ids: Optional[Sequence[str]] = None,
) -> QosRunSummary:
    """One repetition on the fast path; drop-in for the simulator's run.

    The returned :class:`~repro.experiments.runner.QosRunSummary` carries
    the same per-detector QoS samples and link counters the event-driven
    run would produce for this (crash-free) configuration.
    """
    if detector_ids is None:
        detector_ids = combination_ids()
    trace = synthesize_heartbeat_trace(config)
    matrix = replay_detector_matrix(
        detector_ids,
        trace.send_times,
        trace.delays,
        eta=config.eta,
        lost=trace.lost,
        initial_timeout=config.initial_timeout,
        end_time=config.duration,
    )
    qos = {
        detector_id: replay.to_detector_qos()
        for detector_id, replay in matrix.items()
    }
    return QosRunSummary(
        config=config,
        qos=qos,
        heartbeats_sent=trace.heartbeats_sent,
        heartbeats_delivered=trace.heartbeats_delivered,
        link_loss_rate=trace.loss_rate,
        crashes=0,
    )


def _execute_replay_repetition(
    payload: Tuple[ExperimentConfig, Optional[Tuple[str, ...]]],
) -> QosRunSummary:
    """Worker body: one replay repetition (module-level, picklable)."""
    config, detector_ids = payload
    return run_qos_replay(config, detector_ids)


def run_repetitions_replay(
    config: ExperimentConfig,
    runs: int,
    detector_ids: Optional[Sequence[str]] = None,
    *,
    workers: Optional[int] = 1,
) -> List[QosRunSummary]:
    """``runs`` independent replay repetitions, optionally over a pool.

    Per-run seeding matches the simulator campaign exactly: repetition
    ``k`` replays ``config.with_run(k)``, so a replay campaign and a
    simulator campaign on the same base config see the same traces.
    Traces are sharded across workers whole — each worker synthesizes its
    repetition's trace and replays all combinations over it, so the
    expensive array state never crosses the pickle pipe.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    ids = tuple(detector_ids) if detector_ids is not None else None
    payloads = [(config.with_run(run_id), ids) for run_id in range(runs)]
    return parallel_map(_execute_replay_repetition, payloads, workers=workers)


__all__ = [
    "HeartbeatTrace",
    "run_qos_replay",
    "run_repetitions_replay",
    "synthesize_heartbeat_trace",
]
