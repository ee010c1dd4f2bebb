"""Vectorized trace replay: detector maths as array operations.

The event-driven simulator pays for generality: every heartbeat is a
scheduled delivery, every freshness point a cancellable timer, every
observation a chain of method calls through
:class:`~repro.fd.timeout.TimeoutStrategy`.  When the input is a *recorded
trace* — send times, delays, loss mask, as produced by
:mod:`repro.net.traces` or
:func:`repro.experiments.accuracy.collect_delay_trace` — none of that
machinery is needed: every predictor and both adaptive margins are
recurrences over the observation sequence, and each class carries its
O(n) block form beside its per-observation one:

* :meth:`Predictor.forecast_many <repro.fd.predictors.Predictor.forecast_many>`
  — ``LAST`` the identity, ``MEAN`` a ``cumsum / arange``, ``WINMEAN`` a
  sliding-window sum, ``LPF`` an exponential recurrence, ``ARIMA`` the
  per-refit-window batch of
  :func:`~repro.timeseries.arima.batch_arima_predictions`; any other
  predictor runs its ``observe`` loop;
* ``unit_many`` / ``scale_many`` of
  :class:`~repro.fd.safety.ConfidenceIntervalMargin` (running moments from
  a shifted ``cumsum`` pair) and :class:`~repro.fd.safety.JacobsonMargin`
  (an exponential recurrence over the absolute one-step errors);
* freshness points, suspicion intervals and mistake durations follow from
  the arrival order and the per-observation time-outs with pure array
  algebra — no event queue.

There is one detector kernel, :func:`replay_detector_matrix`, a loop over
the combination ids it is given.  It resolves each name through the
tables of :mod:`repro.fd.combinations` and shares its state the way
:class:`~repro.fd.detector.PushFailureDetector` does: one :func:`trace_view`
per trace, one prediction pass per predictor and one *unit* margin state
per family member — one pair of running moments serves every ``SM_CI``
row (the margin reads no prediction), one ``|x − prediction in force|``
EWMA per predictor serves its ``SM_JAC`` rows — and a row is that state
times its γ or φ.

``tests/test_predictor_contract.py`` holds each block form equal to its
class's per-observation path; ``tests/test_replay.py`` proves the
detector replay against the scalar detector in
``tests/reference_detector.py`` and a full event-driven
:class:`~repro.fd.detector.PushFailureDetector` run.  Crash injection
still needs the event-driven engine — the replay models a crash-free
monitored process, which is exactly the offline predictor/margin
evaluation workload (and the ``engine="replay"`` campaign mode of
:mod:`repro.experiments.replay_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fd.combinations import MARGINS, PREDICTORS, parse_combination_id
from repro.nekostat.metrics import DetectorQos, qos_from_suspicion_arrays


# ----------------------------------------------------------------------
# Full detector replay: freshness points and suspicion intervals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectorReplay:
    """The replayed behaviour of one crash-free push failure detector.

    All times are global virtual seconds under the perfect-clock
    assumption (monitor started at t = 0).  ``freshness_points[j]`` is the
    expiry instant armed by the ``j``-th *fresh* heartbeat — already
    clamped to its arrival time, as the event-driven detector does.
    Suspicion intervals are exactly the detector's
    ``START_SUSPECT``/``END_SUSPECT`` pairs (mistakes, since nothing
    crashes during a trace replay).
    """

    detector: str
    end_time: float
    arrival_times: "np.ndarray"        # delivered heartbeats, arrival order
    sequence_numbers: "np.ndarray"
    fresh: "np.ndarray"                # bool mask over arrivals
    observations: "np.ndarray"         # delays fed to the strategy
    timeouts: "np.ndarray"             # delta after each observation
    freshness_points: "np.ndarray"     # tau per fresh heartbeat
    suspicion_starts: "np.ndarray"
    suspicion_ends: "np.ndarray"

    @property
    def mistake_durations(self) -> "np.ndarray":
        """Durations of the erroneous suspicions, in seconds."""
        return self.suspicion_ends - self.suspicion_starts

    def suspicion_intervals(self) -> List[Tuple[float, float]]:
        """The ``[start, end)`` suspicion intervals as python tuples."""
        return list(
            zip(self.suspicion_starts.tolist(), self.suspicion_ends.tolist())
        )

    def to_detector_qos(self) -> DetectorQos:
        """Package the replay as a :class:`DetectorQos` (no crashes).

        Delegates to
        :func:`~repro.nekostat.metrics.qos_from_suspicion_arrays`, the
        batch O(n) extraction — recurrence times via ``np.diff``,
        availability via one vector sum, no per-interval bookkeeping.
        """
        return qos_from_suspicion_arrays(
            self.detector,
            self.suspicion_starts,
            self.suspicion_ends,
            end_time=self.end_time,
        )


@dataclass(frozen=True)
class TraceView:
    """The detector-independent view of one heartbeat trace.

    Arrival order, freshness and the observation sequence depend only on
    the trace — not on the predictor or margin — so a full-matrix replay
    computes this once and shares it across all 30 combinations.
    """

    eta: float
    end_time: float
    initial_timeout: float
    arrival_times: "np.ndarray"
    sequence_numbers: "np.ndarray"
    sigma: "np.ndarray"
    fresh: "np.ndarray"
    observations: "np.ndarray"
    fresh_observation_index: "np.ndarray"


def trace_view(
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
) -> TraceView:
    """Resolve a raw trace into arrival order, freshness and observations.

    Heartbeat ``i`` (sequence number ``i``) is sent at ``send_times[i]``
    and, unless ``lost[i]``, arrives after ``delays[i]`` seconds.
    ``initial_timeout`` defaults to ``10 * eta``, the experiment runner's
    convention.  ``end_time`` defaults to the last arrival; arrivals after
    ``end_time`` are outside the replayed horizon, exactly as events past
    ``run(until=...)`` never fire.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    sends = np.asarray(send_times, dtype=float)
    delay_arr = np.asarray(delays, dtype=float)
    if sends.shape != delay_arr.shape or sends.ndim != 1 or sends.size == 0:
        raise ValueError("send_times and delays must be matching 1-D arrays")
    if lost is None:
        delivered = np.ones(sends.size, dtype=bool)
    else:
        lost_arr = np.asarray(lost, dtype=bool)
        if lost_arr.shape != sends.shape:
            raise ValueError("lost mask must align with send_times")
        delivered = ~lost_arr
    if initial_timeout is None:
        initial_timeout = 10.0 * eta
    if initial_timeout < 0:
        raise ValueError(f"initial_timeout must be >= 0, got {initial_timeout!r}")

    sequence = np.flatnonzero(delivered)
    sigma = sends[delivered]
    arrivals = sigma + delay_arr[delivered]
    if arrivals.size == 0:
        raise ValueError("every heartbeat was lost; nothing to replay")

    # Arrival order; ties resolved by send order, matching the engine's
    # same-instant FIFO (deliveries are scheduled at send time).
    order = np.argsort(arrivals, kind="stable")
    arrivals = arrivals[order]
    sequence = sequence[order]
    sigma = sigma[order]
    if end_time is None:
        end_time = float(arrivals[-1])
    horizon = arrivals <= end_time
    arrivals, sequence, sigma = arrivals[horizon], sequence[horizon], sigma[horizon]

    # Freshness: sequence number above everything seen so far (no arrival
    # inside the horizon leaves every array empty).
    running_max = np.maximum.accumulate(sequence)
    fresh = np.ones(arrivals.size, dtype=bool)
    fresh[1:] = sequence[1:] > running_max[:-1]

    # Every delivered heartbeat's delay is observed, stale ones included.
    return TraceView(
        eta=float(eta),
        end_time=float(end_time),
        initial_timeout=float(initial_timeout),
        arrival_times=arrivals,
        sequence_numbers=sequence,
        sigma=sigma,
        fresh=fresh,
        observations=arrivals - sigma,
        fresh_observation_index=np.flatnonzero(fresh),
    )


def replay_view_with_timeouts(
    view: TraceView, detector_id: str, timeouts: "np.ndarray"
) -> DetectorReplay:
    """Freshness-point/suspicion-interval algebra over per-observation
    time-outs — the per-row half of :func:`replay_detector_matrix`."""
    eta = view.eta
    end_time = view.end_time
    if view.arrival_times.size == 0:
        # No heartbeat ever arrives: one suspicion from the initial expiry.
        initial_deadline = eta + view.initial_timeout
        has_suspicion = initial_deadline <= end_time
        empty = np.empty(0)
        return DetectorReplay(
            detector=detector_id,
            end_time=end_time,
            arrival_times=empty,
            sequence_numbers=np.empty(0, dtype=int),
            fresh=np.empty(0, dtype=bool),
            observations=empty,
            timeouts=empty,
            freshness_points=empty,
            suspicion_starts=np.array([initial_deadline]) if has_suspicion else empty,
            suspicion_ends=np.array([end_time]) if has_suspicion else empty,
        )

    fresh_arrivals = view.arrival_times[view.fresh]
    fresh_sigma = view.sigma[view.fresh]
    delta = timeouts[view.fresh_observation_index]
    # tau_{i+1} = sigma_i + eta + delta, clamped to the arming instant
    # (PushFailureDetector arms at max(now, tau)).
    freshness_points = np.maximum(fresh_arrivals, fresh_sigma + eta + delta)

    # Each deadline raises a suspicion iff the next fresh heartbeat lands
    # strictly after it (at an equal instant the delivery outranks the
    # timer); the suspicion ends at that arrival, or at the horizon.
    deadlines = np.concatenate(([eta + view.initial_timeout], freshness_points))
    next_fresh = np.concatenate((fresh_arrivals, [np.inf]))
    raised = (next_fresh > deadlines) & (deadlines <= end_time)
    suspicion_starts = deadlines[raised]
    suspicion_ends = np.minimum(next_fresh[raised], end_time)

    return DetectorReplay(
        detector=detector_id,
        end_time=end_time,
        arrival_times=view.arrival_times,
        sequence_numbers=view.sequence_numbers,
        fresh=view.fresh,
        observations=view.observations,
        timeouts=timeouts,
        freshness_points=freshness_points,
        suspicion_starts=suspicion_starts,
        suspicion_ends=suspicion_ends,
    )


def replay_detector_matrix(
    detector_ids: Sequence[str],
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
) -> Dict[str, DetectorReplay]:
    """Replay one trace through many combinations, sharing the work.

    Reproduces, per id, the event-driven
    :class:`~repro.fd.detector.PushFailureDetector` on that input — same
    freshness points, same suspicion intervals — assuming perfect clocks,
    a monitored process that never crashes, and a monitor started at
    t = 0 (the offline trace-evaluation setting); see :func:`trace_view`
    for the trace conventions.  The arrival/freshness resolution is
    computed once, the prediction sequence once per predictor (the
    expensive ARIMA batch runs a single time however many ``Arima+*``
    margins are requested) and each unit margin state once — the full
    30-combination paper matrix costs five prediction passes, one moment
    pass and five deviation passes; what is left per row is a scale, a
    clamp and the interval algebra.  Returns replays keyed by id, in
    input order.
    """
    rows = []
    for detector_id in detector_ids:
        predictor_name, margin_name = parse_combination_id(detector_id)
        rows.append((detector_id, predictor_name, *MARGINS[margin_name]))
    view = trace_view(
        send_times,
        delays,
        eta=eta,
        lost=lost,
        initial_timeout=initial_timeout,
        end_time=end_time,
    )
    results: Dict[str, DetectorReplay] = {}
    if view.arrival_times.size == 0:
        for detector_id, _, _, _ in rows:
            results[detector_id] = replay_view_with_timeouts(
                view, detector_id, np.empty(0)
            )
        return results
    x = view.observations
    predictions_of: Dict[str, "np.ndarray"] = {}
    # Unit margin states of this call, keyed by margin class and, for a
    # margin that reads the prediction, predictor.
    states: Dict[object, object] = {}
    for detector_id, predictor_name, margin_class, level in rows:
        predictions = predictions_of.get(predictor_name)
        if predictions is None:
            predictor_class, params = PREDICTORS[predictor_name]
            predictions = predictor_class.forecast_many(x, **params)
            predictions_of[predictor_name] = predictions
        key = (margin_class, predictor_name if margin_class.reads_prediction else None)
        state = states.get(key)
        if state is None:
            state = states[key] = margin_class.unit_many(x, predictions)
        timeouts = np.maximum(0.0, predictions + margin_class.scale_many(level, state))
        results[detector_id] = replay_view_with_timeouts(view, detector_id, timeouts)
    return results


__all__ = [
    "DetectorReplay",
    "TraceView",
    "replay_detector_matrix",
    "replay_view_with_timeouts",
    "trace_view",
]
