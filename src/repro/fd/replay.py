"""Vectorized trace replay: detector maths as array operations.

The event-driven simulator pays for generality: every heartbeat is a
scheduled delivery, every freshness point a cancellable timer, every
observation a chain of method calls through
:class:`~repro.fd.timeout.TimeoutStrategy`.  When the input is a *recorded
trace* — send times, delays, loss mask, as produced by
:mod:`repro.net.traces` or
:func:`repro.experiments.accuracy.collect_delay_trace` — none of that
machinery is needed: every non-ARIMA predictor and both adaptive margins
are simple recurrences over the observation sequence, computable in O(n)
with NumPy:

* ``LAST`` is the identity, ``MEAN`` a ``cumsum / arange``, ``WINMEAN`` a
  sliding-window sum (two ``cumsum`` reads), ``LPF`` an exponential
  recurrence;
* ``SM_CI`` needs only running first and second moments (a shifted
  ``cumsum`` pair, numerically equivalent to the scalar Welford
  accumulator);
* ``SM_JAC`` is an exponential recurrence over the absolute one-step
  prediction errors;
* freshness points, suspicion intervals and mistake durations follow from
  the arrival order and the per-observation time-outs with pure array
  algebra — no event queue.

* ``ARIMA`` is batched per refit-window
  (:func:`~repro.timeseries.arima.batch_arima_predictions`): the refit
  stays a per-window least-squares call on the paper's schedule, the AR
  part of every one-step forecast and the undifferencing are shifted-array
  operations, and only the MA innovation feedback remains a seeded O(n)
  float recurrence — so all 30 paper combinations replay vectorized.

The 5 × 6 matrix shares its state the way
:class:`~repro.fd.bank.DetectorBank` does: :func:`replay_detector_matrix`
runs one prediction pass per predictor and one *unit* margin state per
family member — one pair of running moments serves every ``SM_CI`` row
(the margin ignores the prediction), one ``|x − prediction in force|``
EWMA per predictor serves its ``SM_JAC`` rows — and a row is that state
times its γ or φ.  :func:`replay_margins` is the one-row case of the same
two helpers.

:func:`replay_strategy` matches the per-observation
:class:`~repro.fd.timeout.TimeoutStrategy` classes to float tolerance
(``tests/test_replay.py`` proves it against both the scalar classes and a
full event-driven :class:`~repro.fd.detector.PushFailureDetector` run);
``scripts/bench_perf.py`` tracks the speedup.  Crash injection still
needs the event-driven engine — the replay models a crash-free monitored
process, which is exactly the offline predictor/margin evaluation
workload (and the ``engine="replay"`` campaign mode of
:mod:`repro.experiments.replay_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fd.combinations import (
    ARIMA_ORDER,
    ARIMA_REFIT_INTERVAL,
    GAMMA_VALUES,
    JACOBSON_ALPHA,
    LPF_BETA,
    PHI_VALUES,
    WINMEAN_WINDOW,
    make_margin,
    make_predictor,
    parse_combination_id,
)
from repro.fd.timeout import TimeoutStrategy
from repro.nekostat.metrics import DetectorQos, qos_from_suspicion_arrays
from repro.timeseries.arima import batch_arima_predictions

#: Predictors with a vectorized replay implementation — all five paper
#: families, so every one of the 30 combinations replays vectorized.
REPLAY_PREDICTORS: Tuple[str, ...] = ("Arima", "Last", "Mean", "WinMean", "LPF")

#: Margin families with a vectorized replay implementation.
REPLAY_MARGINS: Tuple[str, ...] = tuple(GAMMA_VALUES) + tuple(PHI_VALUES)

#: ARIMA replay defaults beyond the Table 2 order/refit constants; must
#: mirror :class:`~repro.fd.predictors.ArimaPredictor`'s defaults (the
#: equivalence tests pin the two together).
ARIMA_INITIAL_FIT = 200
ARIMA_FIT_WINDOW = 4000

#: Default margin before enough observations exist (matches
#: :class:`~repro.fd.safety.ConfidenceIntervalMargin` and
#: :class:`~repro.fd.safety.JacobsonMargin`).
DEFAULT_INITIAL_MARGIN = 0.1

#: A margin argument: a Table 1 name ("CI_med", "JAC_low", ...) or an
#: explicit ``(family, level)`` pair — ``("CI", gamma)`` / ``("JAC", phi)``
#: — for the continuous sweeps.
MarginSpec = Union[str, Tuple[str, float]]


def _resolve_margin_spec(margin: MarginSpec) -> Tuple[str, float, str]:
    """Normalise a margin spec to ``(family, level, label)``."""
    if isinstance(margin, str):
        if margin in GAMMA_VALUES:
            return "CI", GAMMA_VALUES[margin], margin
        if margin in PHI_VALUES:
            return "JAC", PHI_VALUES[margin], margin
        raise ValueError(
            f"no vectorized replay for margin {margin!r}; "
            f"supported: {REPLAY_MARGINS} or a ('CI'|'JAC', level) pair"
        )
    family, level = margin
    if family not in ("CI", "JAC"):
        raise ValueError(f"margin family must be 'CI' or 'JAC', got {family!r}")
    level = float(level)
    if level <= 0:
        raise ValueError(f"margin level must be > 0, got {level!r}")
    return family, level, f"{family}@{level:g}"


def supports_replay(
    predictor_name: str, margin_name: Optional[MarginSpec] = None
) -> bool:
    """Whether the combination has a vectorized replay implementation.

    True for all 30 paper combinations — including ``Arima+*``, whose
    refit-window batching lives in
    :func:`~repro.timeseries.arima.batch_arima_predictions`.  Unknown
    predictors or margins return ``False``.
    """
    if predictor_name not in REPLAY_PREDICTORS:
        return False
    if margin_name is not None:
        try:
            _resolve_margin_spec(margin_name)
        except (ValueError, TypeError):
            return False
    return True


def _seeded_ewma(values: "np.ndarray", gain: float) -> "np.ndarray":
    """``out[0] = v[0]; out[k] = out[k-1] + gain*(v[k] - out[k-1])``.

    The recurrence is inherently sequential, so this is an explicit O(n)
    loop — but over a plain float list, without any per-observation object
    dispatch, it is still an order of magnitude faster than the class
    path, and it performs *bit-identical* operations to the scalar
    :class:`~repro.fd.predictors.LpfPredictor` /
    :class:`~repro.fd.safety.JacobsonMargin` recurrences.
    """
    out = np.empty(values.shape[0])
    items = values.tolist()
    acc = items[0]
    out[0] = acc
    for index in range(1, len(items)):
        acc += gain * (items[index] - acc)
        out[index] = acc
    return out


def replay_predictions(
    predictor_name: str,
    observations: "np.ndarray",
    *,
    window: int = WINMEAN_WINDOW,
    beta: float = LPF_BETA,
    arima_order: Tuple[int, int, int] = ARIMA_ORDER,
    arima_refit_interval: int = ARIMA_REFIT_INTERVAL,
    arima_initial_fit: int = ARIMA_INITIAL_FIT,
    arima_fit_window: int = ARIMA_FIT_WINDOW,
) -> "np.ndarray":
    """Prediction in force *after* each observation, as an array.

    ``out[k]`` equals ``strategy.prediction()`` after feeding
    ``observations[: k + 1]`` — the forecast the detector arms its next
    freshness point with.
    """
    x = np.asarray(observations, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observations must be a non-empty 1-D array")
    n = x.size
    if predictor_name == "Last":
        return x.copy()
    if predictor_name == "Arima":
        p, d, q = arima_order
        return batch_arima_predictions(
            x,
            p,
            d,
            q,
            refit_interval=arima_refit_interval,
            initial_fit=arima_initial_fit,
            fit_window=arima_fit_window,
        )
    if predictor_name == "Mean":
        return np.cumsum(x) / np.arange(1, n + 1)
    if predictor_name == "WinMean":
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        cs = np.cumsum(x)
        out = np.empty(n)
        head = min(window, n)
        out[:head] = cs[:head] / np.arange(1, head + 1)
        if n > window:
            out[window:] = (cs[window:] - cs[:-window]) / float(window)
        return out
    if predictor_name == "LPF":
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta!r}")
        return _seeded_ewma(x, beta)
    raise ValueError(
        f"no vectorized replay for predictor {predictor_name!r}; "
        f"supported: {REPLAY_PREDICTORS}"
    )


def _unit_margin_state(
    family: str,
    x: "np.ndarray",
    predictions: "np.ndarray",
    initial_prediction: float,
    alpha: float,
):
    """The level-free state every margin of one family member scales.

    ``"CI"``: the ``(sigma, sqrt(inflation), m2 == 0)`` triple of the
    running moments — independent of the prediction, so one serves every
    ``SM_CI`` row of a trace.  ``"JAC"``: the Jacobson mean deviation of
    ``|x − prediction in force|`` — one per predictor.
    """
    if family == "CI":
        counts = np.arange(1, x.size + 1, dtype=float)
        # Shift by the overall mean before accumulating moments: the
        # cumulative sums then cancel benignly and the running variance
        # matches the scalar Welford accumulator to ~1e-15 relative.
        shift = float(np.mean(x))
        xs = x - shift
        cs = np.cumsum(xs)
        running_mean = cs / counts
        m2 = np.maximum(np.cumsum(xs * xs) - cs * running_mean, 0.0)
        deviation = xs - running_mean
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.sqrt(m2 / (counts - 1.0))
            root = np.sqrt(1.0 + 1.0 / counts + (deviation * deviation) / m2)
        return sigma, root, m2 == 0.0
    if predictions.shape != x.shape:
        raise ValueError("predictions must align with observations")
    in_force = np.concatenate(([float(initial_prediction)], predictions[:-1]))
    return _seeded_ewma(np.abs(x - in_force), alpha)


def _scale_margin(
    family: str, level: float, state, initial_margin: float
) -> "np.ndarray":
    """One margin row: the unit state times its γ or φ.

    Multiplied left to right, as
    :meth:`~repro.fd.safety.ConfidenceIntervalMargin.current` and
    ``DetectorBank._derive_timeouts`` do, so the floats are theirs.
    """
    if family == "JAC":
        return level * state
    sigma, root, degenerate = state
    with np.errstate(invalid="ignore"):
        out = level * sigma * root
    out[degenerate] = 0.0  # sigma == 0 -> margin 0, as in the scalar class
    out[0] = initial_margin  # fewer than two observations
    return out


def replay_margins(
    margin_name: MarginSpec,
    observations: "np.ndarray",
    predictions: "np.ndarray",
    *,
    initial_prediction: float = 0.0,
    initial_margin: float = DEFAULT_INITIAL_MARGIN,
    alpha: float = JACOBSON_ALPHA,
) -> "np.ndarray":
    """Safety margin in force *after* each observation, as an array.

    ``out[k]`` equals ``margin.current()`` after the margin saw the pairs
    ``(observations[j], prediction in force for j)`` for ``j <= k`` —
    mirroring the update order fixed by
    :meth:`~repro.fd.timeout.TimeoutStrategy.observe`.  ``margin_name``
    may also be an explicit ``("CI", gamma)`` / ``("JAC", phi)`` pair,
    which is how the continuous margin-level sweeps ride the fast path.
    """
    x = np.asarray(observations, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observations must be a non-empty 1-D array")
    family, level, _ = _resolve_margin_spec(margin_name)
    state = _unit_margin_state(
        family, x, np.asarray(predictions, dtype=float), initial_prediction, alpha
    )
    return _scale_margin(family, level, state, initial_margin)


@dataclass(frozen=True)
class StrategyReplay:
    """The per-observation sequences of one predictor+margin combination.

    Index ``k`` reflects the state *after* observation ``k`` was absorbed:
    exactly what :meth:`~repro.fd.timeout.TimeoutStrategy.prediction` /
    ``timeout()`` would return at that point of the scalar run.
    """

    detector: str
    observations: "np.ndarray"
    predictions: "np.ndarray"
    margins: "np.ndarray"
    timeouts: "np.ndarray"


def replay_strategy(
    predictor_name: str,
    margin_name: MarginSpec,
    observations: Sequence[float],
    *,
    initial_prediction: float = 0.0,
    initial_margin: float = DEFAULT_INITIAL_MARGIN,
) -> StrategyReplay:
    """Vectorized equivalent of feeding every observation to a
    :class:`~repro.fd.timeout.TimeoutStrategy` built by
    :func:`~repro.fd.combinations.make_strategy`."""
    x = np.asarray(observations, dtype=float)
    predictions = replay_predictions(predictor_name, x)
    margins = replay_margins(
        margin_name,
        x,
        predictions,
        initial_prediction=initial_prediction,
        initial_margin=initial_margin,
    )
    _, _, margin_label = _resolve_margin_spec(margin_name)
    timeouts = np.maximum(0.0, predictions + margins)
    return StrategyReplay(
        detector=f"{predictor_name}+{margin_label}",
        observations=x,
        predictions=predictions,
        margins=margins,
        timeouts=timeouts,
    )


def replay_combination(
    detector_id: str,
    observations: Sequence[float],
    **kwargs,
) -> StrategyReplay:
    """:func:`replay_strategy` keyed by a ``"Predictor+Margin"`` id."""
    predictor_name, margin_name = parse_combination_id(detector_id)
    return replay_strategy(predictor_name, margin_name, observations, **kwargs)


def replay_strategy_scalar(
    predictor_name: str,
    margin_name: str,
    observations: Sequence[float],
) -> Tuple[List[float], List[float], List[float]]:
    """Reference implementation: the per-observation class path.

    Returns ``(predictions, margins, timeouts)`` lists; used by the
    equivalence tests and as the baseline of ``scripts/bench_perf.py``.
    Works for every registered combination, including ARIMA.
    """
    strategy = TimeoutStrategy(
        make_predictor(predictor_name), make_margin(margin_name)
    )
    predictions: List[float] = []
    margins: List[float] = []
    timeouts: List[float] = []
    for value in observations:
        strategy.observe(float(value))
        prediction = strategy.prediction()
        timeout = strategy.timeout()
        predictions.append(prediction)
        margins.append(strategy.margin.current())
        timeouts.append(timeout)
    return predictions, margins, timeouts


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
    observe_stale: bool = True,
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

    if arrivals.size == 0:
        return TraceView(
            eta=float(eta),
            end_time=float(end_time),
            initial_timeout=float(initial_timeout),
            arrival_times=np.empty(0),
            sequence_numbers=np.empty(0, dtype=int),
            sigma=np.empty(0),
            fresh=np.empty(0, dtype=bool),
            observations=np.empty(0),
            fresh_observation_index=np.empty(0, dtype=int),
        )

    # Freshness: sequence number above everything seen so far.
    running_max = np.maximum.accumulate(sequence)
    fresh = np.empty(arrivals.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = sequence[1:] > running_max[:-1]

    observed_delays = arrivals - sigma
    if observe_stale:
        observations = observed_delays
        fresh_observation_index = np.flatnonzero(fresh)
    else:
        observations = observed_delays[fresh]
        fresh_observation_index = np.arange(observations.size)

    return TraceView(
        eta=float(eta),
        end_time=float(end_time),
        initial_timeout=float(initial_timeout),
        arrival_times=arrivals,
        sequence_numbers=sequence,
        sigma=sigma,
        fresh=fresh,
        observations=observations,
        fresh_observation_index=fresh_observation_index,
    )


def replay_view_with_timeouts(
    view: TraceView, detector_id: str, timeouts: "np.ndarray"
) -> DetectorReplay:
    """Freshness-point/suspicion-interval algebra over per-observation
    time-outs — the detector-specific half of :func:`replay_detector`."""
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


def replay_detector(
    predictor_name: str,
    margin_name: MarginSpec,
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
    observe_stale: bool = True,
    initial_prediction: float = 0.0,
    initial_margin: float = DEFAULT_INITIAL_MARGIN,
) -> DetectorReplay:
    """Replay a recorded heartbeat trace through a vectorized detector.

    Reproduces the event-driven
    :class:`~repro.fd.detector.PushFailureDetector` on that input — same
    freshness points, same suspicion intervals — assuming perfect clocks,
    a monitored process that never crashes, and a monitor started at
    t = 0 (the offline trace-evaluation setting).  See :func:`trace_view`
    for the trace conventions.
    """
    view = trace_view(
        send_times,
        delays,
        eta=eta,
        lost=lost,
        initial_timeout=initial_timeout,
        end_time=end_time,
        observe_stale=observe_stale,
    )
    _, _, margin_label = _resolve_margin_spec(margin_name)
    detector_id = f"{predictor_name}+{margin_label}"
    if view.arrival_times.size == 0:
        return replay_view_with_timeouts(view, detector_id, np.empty(0))
    strategy = replay_strategy(
        predictor_name,
        margin_name,
        view.observations,
        initial_prediction=initial_prediction,
        initial_margin=initial_margin,
    )
    return replay_view_with_timeouts(view, detector_id, strategy.timeouts)


def replay_detector_matrix(
    detector_ids: Sequence[str],
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
    observe_stale: bool = True,
    initial_prediction: float = 0.0,
    initial_margin: float = DEFAULT_INITIAL_MARGIN,
) -> Dict[str, DetectorReplay]:
    """Replay one trace through many combinations, sharing the work.

    The arrival/freshness resolution is computed once, and the prediction
    sequence once per predictor *family* (the expensive ARIMA batch runs
    a single time however many ``Arima+*`` margins are requested) and each
    unit margin state once — the full 30-combination paper matrix costs
    five prediction passes, one moment pass and five deviation passes;
    what is left per row is a scale, a clamp and the interval algebra.
    Returns replays keyed by id, in input order.
    """
    combos = [parse_combination_id(detector_id) for detector_id in detector_ids]
    view = trace_view(
        send_times,
        delays,
        eta=eta,
        lost=lost,
        initial_timeout=initial_timeout,
        end_time=end_time,
        observe_stale=observe_stale,
    )
    results: Dict[str, DetectorReplay] = {}
    if view.arrival_times.size == 0:
        for detector_id, _ in zip(detector_ids, combos):
            results[detector_id] = replay_view_with_timeouts(
                view, detector_id, np.empty(0)
            )
        return results
    x = view.observations
    predictions_of: Dict[str, "np.ndarray"] = {}
    # Unit margin states of this call, keyed "CI" / ("JAC", predictor).
    states: Dict[object, object] = {}
    for detector_id, (predictor_name, margin_name) in zip(detector_ids, combos):
        predictions = predictions_of.get(predictor_name)
        if predictions is None:
            predictions = replay_predictions(predictor_name, x)
            predictions_of[predictor_name] = predictions
        family, level, _ = _resolve_margin_spec(margin_name)
        key = family if family == "CI" else (family, predictor_name)
        state = states.get(key)
        if state is None:
            state = states[key] = _unit_margin_state(
                family, x, predictions, initial_prediction, JACOBSON_ALPHA
            )
        margins = _scale_margin(family, level, state, initial_margin)
        timeouts = np.maximum(0.0, predictions + margins)
        results[detector_id] = replay_view_with_timeouts(
            view, detector_id, timeouts
        )
    return results


def replay_detector_scalar(
    predictor_name: str,
    margin_name: str,
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
    observe_stale: bool = True,
) -> Tuple[List[float], List[Tuple[float, float]]]:
    """Reference detector replay through the scalar strategy classes.

    Returns ``(freshness_points, suspicion_intervals)``.  Pure python —
    no numpy required — and valid for every combination including ARIMA;
    the equivalence tests pit :func:`replay_detector` against it.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    if initial_timeout is None:
        initial_timeout = 10.0 * eta
    count = len(send_times)
    if len(delays) != count:
        raise ValueError("send_times and delays must have matching length")
    lost_list = list(lost) if lost is not None else [False] * count
    arrivals = [
        (send_times[i] + delays[i], i, send_times[i])
        for i in range(count)
        if not lost_list[i]
    ]
    arrivals.sort(key=lambda item: item[0])  # stable: ties keep send order
    if end_time is None:
        end_time = max(a for a, _, _ in arrivals) if arrivals else eta

    strategy = TimeoutStrategy(
        make_predictor(predictor_name), make_margin(margin_name)
    )
    deadline = eta + float(initial_timeout)
    max_seq = -1
    suspecting = False
    freshness_points: List[float] = []
    intervals: List[Tuple[float, float]] = []
    open_start = 0.0
    for arrival, seq, sigma in arrivals:
        if arrival > end_time:
            break
        if not suspecting and deadline < arrival and deadline <= end_time:
            suspecting = True
            open_start = deadline
        if seq > max_seq:
            max_seq = seq
            strategy.observe(arrival - sigma)
            if suspecting:
                intervals.append((open_start, arrival))
                suspecting = False
            deadline = max(arrival, sigma + eta + strategy.timeout())
            freshness_points.append(deadline)
        elif observe_stale:
            strategy.observe(arrival - sigma)
    if suspecting:
        intervals.append((open_start, float(end_time)))
    elif deadline <= end_time:
        intervals.append((deadline, float(end_time)))
    return freshness_points, intervals


__all__ = [
    "ARIMA_FIT_WINDOW",
    "ARIMA_INITIAL_FIT",
    "DEFAULT_INITIAL_MARGIN",
    "DetectorReplay",
    "MarginSpec",
    "REPLAY_MARGINS",
    "REPLAY_PREDICTORS",
    "StrategyReplay",
    "TraceView",
    "replay_combination",
    "replay_detector",
    "replay_detector_matrix",
    "replay_detector_scalar",
    "replay_margins",
    "replay_predictions",
    "replay_strategy",
    "replay_strategy_scalar",
    "replay_view_with_timeouts",
    "supports_replay",
    "trace_view",
]
