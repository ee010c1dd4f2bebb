"""Equivalence tests for the vectorized trace-replay fast path.

Three layers of proof, per the performance-layer contract:

* the per-observation sequences (prediction, margin, time-out) that the
  classes' block forms give, composed as the replay composes them, match
  the scalar :class:`~repro.fd.timeout.TimeoutStrategy` classes;
* the derived freshness points and suspicion intervals match the scalar
  detector reference on traces with loss and reordering;
* the suspicion intervals match a *real* event-driven run — a
  :class:`~repro.fd.detector.PushFailureDetector` fed through a
  trace-replaying link (``tests/reference_delay.py``) on the simulation
  engine.

A single detector replays as the one-row matrix,
``replay_detector_matrix([id], ...)[id]``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fd.predictors as predictors_module
import repro.fd.safety as safety_module
from tests.conftest import examples
from repro.clocks.clock import PerfectClock
from repro.fd.combinations import (
    MARGINS,
    MARGIN_NAMES,
    PREDICTORS,
    PREDICTOR_NAMES,
    combination_ids,
    make_strategy,
)
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.replay import replay_detector_matrix
from repro.fd.safety import JACOBSON_ALPHA, ConfidenceIntervalMargin, JacobsonMargin
from repro.timeseries.arima import ArimaForecaster, batch_arima_predictions
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import _suspicion_intervals_by_detector
from repro.sim.engine import Simulator
from tests.reference_delay import TraceDelay
from tests.reference_detector import replay_detector_scalar, replay_strategy_scalar

TOLERANCE = 1e-9


def make_trace(n, seed=42, spike_probability=0.01):
    """A WAN-looking delay trace: gamma body plus rare large spikes."""
    rng = np.random.default_rng(seed)
    delays = 0.1 + rng.gamma(2.0, 0.01, n)
    spikes = rng.random(n) < spike_probability
    return delays + spikes * rng.uniform(0.3, 2.5, n)


def short_trace(n=40):
    return np.arange(n) * 1.0, make_trace(n), dict(eta=1.0, end_time=float(n))


def block_strategy(predictor, margin, observations):
    """One combination's ``(predictions, margins, timeouts)`` from the
    classes' block forms, composed as the replay composes them."""
    predictor_class, params = PREDICTORS[predictor]
    margin_class, level = MARGINS[margin]
    x = np.asarray(observations, dtype=float)
    predictions = predictor_class.forecast_many(x, **params)
    margins = margin_class.scale_many(level, margin_class.unit_many(x, predictions))
    return predictions, margins, np.maximum(0.0, predictions + margins)


def replay_one(predictor, margin, send_times, delays, **kwargs):
    """One combination's replay: the one-row matrix."""
    detector_id = f"{predictor}+{margin}"
    return replay_detector_matrix([detector_id], send_times, delays, **kwargs)[
        detector_id
    ]


class TestSupports:
    """Every combination id replays; the rest raise before any work is
    done."""

    def test_vectorized_predictors(self):
        x = make_trace(300)
        for predictor_class, params in PREDICTORS.values():
            assert predictor_class.forecast_many(x, **params).shape == x.shape
        sends, delays, kwargs = short_trace()
        with pytest.raises(ValueError, match="unknown predictor"):
            replay_one("Nope", "CI_low", sends, delays, **kwargs)

    def test_all_thirty_combinations_supported(self):
        sends, delays, kwargs = short_trace()
        matrix = replay_detector_matrix(combination_ids(), sends, delays, **kwargs)
        assert list(matrix) == combination_ids()

    def test_arima_is_vectorized(self):
        sends, delays, kwargs = short_trace()
        replayed = replay_one("Arima", "CI_low", sends, delays, **kwargs)
        assert replayed.detector == "Arima+CI_low"

    def test_unknown_margin_rejected(self):
        sends, delays, kwargs = short_trace()
        with pytest.raises(ValueError, match="unknown margin"):
            replay_one("Last", "nope", sends, delays, **kwargs)


class TestStrategyEquivalence:
    """Block-form sequences == scalar TimeoutStrategy, all 30 combos."""

    @pytest.mark.parametrize("predictor", PREDICTOR_NAMES)
    @pytest.mark.parametrize("margin", MARGIN_NAMES)
    def test_matches_scalar_classes(self, predictor, margin):
        observations = make_trace(3000)
        fast = block_strategy(predictor, margin, observations)
        scalar = replay_strategy_scalar(predictor, margin, observations)
        for block, reference in zip(fast, scalar):
            np.testing.assert_allclose(block, reference, rtol=0, atol=TOLERANCE)

    def test_short_traces(self):
        for n in (1, 2, 3):
            observations = make_trace(n)
            _, fast_margins, fast_timeouts = block_strategy(
                "Mean", "CI_med", observations
            )
            _, margins, timeouts = replay_strategy_scalar(
                "Mean", "CI_med", observations
            )
            np.testing.assert_allclose(fast_margins, margins, rtol=0, atol=TOLERANCE)
            np.testing.assert_allclose(fast_timeouts, timeouts, rtol=0, atol=TOLERANCE)

    def test_constant_trace_zero_sigma(self):
        observations = np.full(50, 0.125)
        _, fast_margins, _ = block_strategy("Last", "CI_med", observations)
        _, margins, _ = replay_strategy_scalar("Last", "CI_med", observations)
        np.testing.assert_allclose(fast_margins, margins, rtol=0, atol=TOLERANCE)
        assert np.all(fast_margins[1:] == 0.0)  # sigma == 0 -> margin 0


class TestArimaReplay:
    """Tentpole proof: the batched ARIMA path is *bit-identical* to the
    scalar :class:`~repro.timeseries.arima.ArimaForecaster`, including the
    refit schedule and the failed-fit fallback."""

    @staticmethod
    def scalar_predictions(observations, forecaster=None):
        forecaster = forecaster or ArimaForecaster(2, 1, 1)
        out = []
        for value in observations:
            forecaster.observe(float(value))
            out.append(forecaster.predict())
        return forecaster, np.asarray(out)

    def test_batch_matches_forecaster_bitwise(self):
        # 2200 observations: fallback phase, initial fit at 200, refits at
        # 1000 and 2000 — every phase of the batch implementation.
        x = make_trace(2200, seed=13)
        forecaster, scalar = self.scalar_predictions(x)
        assert forecaster.refits >= 3
        np.testing.assert_array_equal(batch_arima_predictions(x), scalar)

    def test_refit_boundary_prefix_invariance(self):
        # predictions[k] must depend only on observations[:k+1]; check the
        # prefix property straddling the initial-fit and refit boundaries.
        x = make_trace(1100, seed=29)
        full = batch_arima_predictions(x)
        for n in (199, 200, 201, 999, 1000, 1001):
            np.testing.assert_array_equal(batch_arima_predictions(x[:n]), full[:n])

    def test_before_initial_fit_is_last_value(self):
        x = make_trace(150, seed=5)
        np.testing.assert_array_equal(batch_arima_predictions(x), x)

    def test_singular_fit_fallback(self, monkeypatch):
        import repro.timeseries.arima as arima_mod

        real_fit = arima_mod.fit_arma_hannan_rissanen
        x = make_trace(1400, seed=17)

        def flaky(fail_calls):
            calls = {"n": 0}

            def fit(w_series, p, q):
                calls["n"] += 1
                if calls["n"] in fail_calls:
                    raise np.linalg.LinAlgError("injected singular fit")
                return real_fit(w_series, p, q)

            return fit

        # Calls 1-2 are the initial fit and its first retry; call 4 is the
        # 1000-observation refit.  Both paths must retry / keep the old
        # coefficients identically.
        fail_calls = {1, 2, 4}
        monkeypatch.setattr(arima_mod, "fit_arma_hannan_rissanen", flaky(fail_calls))
        batch = batch_arima_predictions(x)
        monkeypatch.setattr(arima_mod, "fit_arma_hannan_rissanen", flaky(fail_calls))
        forecaster, scalar = self.scalar_predictions(x)
        assert forecaster.failed_fits == 3
        assert forecaster.refits == 1
        np.testing.assert_array_equal(batch, scalar)

    def test_strategy_path_uses_batch(self):
        x = make_trace(1500, seed=23)
        predictions, _, _ = block_strategy("Arima", "CI_med", x)
        np.testing.assert_array_equal(predictions, batch_arima_predictions(x))


class TestDetectorReplay:
    """Freshness points and suspicion intervals vs the scalar reference."""

    @pytest.mark.parametrize(
        "combo",
        [("Last", "JAC_med"), ("Mean", "CI_low"), ("LPF", "JAC_high"),
         ("Arima", "CI_med")],
    )
    def test_matches_scalar_reference_with_loss(self, combo):
        n, eta = 4000, 1.0
        rng = np.random.default_rng(11)
        delays = make_trace(n, seed=11, spike_probability=0.02)
        lost = rng.random(n) < 0.03
        sends = np.arange(n) * eta
        fast = replay_one(
            combo[0], combo[1], sends, delays, eta=eta, lost=lost, end_time=n * eta
        )
        taus, intervals = replay_detector_scalar(
            combo[0], combo[1], sends, delays, eta=eta, lost=lost, end_time=n * eta
        )
        assert len(fast.freshness_points) == len(taus)
        np.testing.assert_allclose(
            fast.freshness_points, taus, rtol=0, atol=TOLERANCE
        )
        assert len(fast.suspicion_intervals()) == len(intervals)
        for (a, b), (c, d) in zip(fast.suspicion_intervals(), intervals):
            assert abs(a - c) < TOLERANCE and abs(b - d) < TOLERANCE

    def test_all_heartbeats_lost_is_rejected(self):
        n, eta = 10, 1.0
        for replay in (replay_one, replay_detector_scalar):
            with pytest.raises(ValueError, match="every heartbeat was lost"):
                replay(
                    "Last", "JAC_med",
                    np.arange(n) * eta, np.full(n, 0.1),
                    eta=eta, lost=np.ones(n, dtype=bool), end_time=50.0,
                )

    def test_qos_packaging(self):
        n, eta = 2000, 1.0
        delays = make_trace(n, seed=9, spike_probability=0.03)
        fast = replay_one(
            "Last", "JAC_low", np.arange(n) * eta, delays, eta=eta, end_time=n * eta
        )
        qos = fast.to_detector_qos()
        assert qos.up_time == n * eta
        assert len(qos.mistakes) == len(fast.suspicion_intervals())
        assert qos.suspected_up_time == pytest.approx(
            float(np.sum(fast.mistake_durations))
        )
        if len(qos.mistakes) >= 2:
            assert len(qos.tmr_samples) == len(qos.mistakes) - 1


def reference_margins(family, level, x, predictions, initial_margin=0.1):
    """One margin row computed on its own, level inside every pass: what
    each of the 30 rows cost before the matrix shared its unit states."""
    n = x.size
    if family == "CI":
        counts = np.arange(1, n + 1, dtype=float)
        xs = x - float(np.mean(x))
        cs = np.cumsum(xs)
        running_mean = cs / counts
        m2 = np.maximum(np.cumsum(xs * xs) - cs * running_mean, 0.0)
        deviation = xs - running_mean
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.sqrt(m2 / (counts - 1.0))
            inflation = 1.0 + 1.0 / counts + (deviation * deviation) / m2
            out = level * sigma * np.sqrt(inflation)
        out[m2 == 0.0] = 0.0
        out[0] = initial_margin
        return out
    errors = np.abs(x - np.concatenate(([0.0], predictions[:-1]))).tolist()
    out = np.empty(n)
    mdev = out[0] = errors[0]
    for index in range(1, n):
        mdev += JACOBSON_ALPHA * (errors[index] - mdev)
        out[index] = mdev
    return level * out


def awkward_trace(n, seed):
    """Loss, and delays of several periods so that arrivals reorder."""
    rng = np.random.default_rng(seed)
    delays = make_trace(n, seed=seed, spike_probability=0.05)
    delays[rng.random(n) < 0.03] += 3.5
    return np.arange(n) * 1.0, delays, rng.random(n) < 0.03


REPLAYED_ARRAYS = ("timeouts", "freshness_points", "suspicion_starts", "suspicion_ends")


def assert_same_replay(batch, single):
    assert batch.detector == single.detector
    for name in REPLAYED_ARRAYS:
        assert np.array_equal(getattr(batch, name), getattr(single, name)), name


class TestMarginRows:
    """A row of the matrix is a unit state times its level — and, float for
    float, the row the level-inside formulas give."""

    @pytest.mark.parametrize("predictor", PREDICTOR_NAMES)
    def test_rows_equal_the_level_inside_formulas(self, predictor):
        x = make_trace(900, seed=17, spike_probability=0.03)
        predictions, _, _ = block_strategy(predictor, "CI_low", x)
        for name, (margin_class, level) in MARGINS.items():
            _, margins, _ = block_strategy(predictor, name, x)
            assert np.array_equal(
                margins, reference_margins(margin_class.name, level, x, predictions)
            ), (predictor, name)

    def test_constant_series_has_zero_ci_margin(self):
        x = np.full(50, 0.2)
        _, margins, _ = block_strategy("Last", "CI_high", x)
        assert margins[0] == 0.1
        assert np.all(margins[1:] == 0.0)


class TestDetectorMatrix:
    """replay_detector_matrix == each row replayed alone, bit for bit, with
    the trace view, the predictions and the unit margin states shared
    instead of recomputed 30 times."""

    def test_full_matrix_matches_individual_replays(self):
        n = 1500
        sends, delays, lost = awkward_trace(n, seed=31)
        ids = combination_ids()
        kwargs = dict(eta=1.0, lost=lost, end_time=float(n))
        matrix = replay_detector_matrix(ids, sends, delays, **kwargs)
        assert list(matrix) == ids
        assert not matrix[ids[0]].fresh.all()  # the trace does reorder
        for detector_id in ids:
            predictor, margin = detector_id.split("+")
            single = replay_one(predictor, margin, sends, delays, **kwargs)
            assert_same_replay(matrix[detector_id], single)

    @settings(max_examples=examples(20), deadline=None)
    @given(
        ids=st.lists(st.sampled_from(combination_ids()), min_size=1, max_size=8),
        seed=st.integers(0, 50),
    )
    def test_any_subset_order_and_repetition(self, ids, seed):
        n = 320  # past ARIMA's first fit at 200 observations
        sends, delays, lost = awkward_trace(n, seed=seed)
        kwargs = dict(eta=1.0, lost=lost, end_time=float(n))
        matrix = replay_detector_matrix(ids, sends, delays, **kwargs)
        assert list(matrix) == list(dict.fromkeys(ids))
        for detector_id in ids:
            predictor, margin = detector_id.split("+")
            single = replay_one(predictor, margin, sends, delays, **kwargs)
            assert_same_replay(matrix[detector_id], single)

    def test_no_arrival_inside_the_horizon(self):
        sends, delays = np.arange(5) * 1.0, np.full(5, 30.0)
        ids = ["Mean+CI_low", "Last+JAC_high", "Arima+CI_med"]
        kwargs = dict(eta=1.0, initial_timeout=4.0, end_time=20.0)
        matrix = replay_detector_matrix(ids, sends, delays, **kwargs)
        for detector_id in ids:
            predictor, margin = detector_id.split("+")
            assert_same_replay(
                matrix[detector_id],
                replay_one(predictor, margin, sends, delays, **kwargs),
            )
            assert matrix[detector_id].suspicion_starts.tolist() == [5.0]
            assert matrix[detector_id].suspicion_ends.tolist() == [20.0]

    def test_one_state_per_family_member(self, monkeypatch):
        """Counted, not timed: 30 rows cost one moment pass and one
        deviation EWMA per predictor (LPF's own prediction EWMA is the
        sixth), however the ids are ordered or repeated."""
        calls = {"ewma": 0, "CI": 0, "JAC": 0}
        real_ewma = predictors_module._seeded_ewma

        def counting_ewma(values, gain):
            calls["ewma"] += 1
            return real_ewma(values, gain)

        monkeypatch.setattr(predictors_module, "_seeded_ewma", counting_ewma)
        monkeypatch.setattr(safety_module, "_seeded_ewma", counting_ewma)
        for margin_class in (ConfidenceIntervalMargin, JacobsonMargin):
            real_state = margin_class.unit_many

            def counting_state(*args, real_state=real_state, family=margin_class.name):
                calls[family] += 1
                return real_state(*args)

            monkeypatch.setattr(margin_class, "unit_many", staticmethod(counting_state))
        sends, delays, lost = awkward_trace(400, seed=2)
        ids = combination_ids()[::-1] + combination_ids()[:7]
        replay_detector_matrix(ids, sends, delays, eta=1.0, lost=lost, end_time=400.0)
        assert calls == {"ewma": 6, "CI": 1, "JAC": 5}

    def test_margin_spec_tuple_ids_rejected_cleanly(self):
        with pytest.raises(ValueError):
            replay_detector_matrix(
                ["Last+nope"], [0.0, 1.0], [0.1, 0.1], eta=1.0
            )


class TestAcceptanceScale:
    """The ISSUE acceptance check: 1e-9 agreement on a 30k-point trace."""

    def test_30k_trace_within_1e9(self):
        n, eta = 30_000, 1.0
        delays = make_trace(n, seed=2005, spike_probability=0.01)
        sends = np.arange(n) * eta
        for combo in (("Mean", "CI_med"), ("LPF", "JAC_med")):
            fast = replay_one(
                combo[0], combo[1], sends, delays, eta=eta, end_time=n * eta
            )
            taus, intervals = replay_detector_scalar(
                combo[0], combo[1], sends, delays, eta=eta, end_time=n * eta
            )
            np.testing.assert_allclose(
                fast.freshness_points, taus, rtol=0, atol=TOLERANCE
            )
            assert len(fast.suspicion_intervals()) == len(intervals)


class TestEventDrivenEquivalence:
    """The determinism satellite: simulator vs replay on the same trace."""

    @pytest.mark.parametrize(
        "combo",
        [("Last", "JAC_med"), ("Mean", "CI_med"),
         ("WinMean", "CI_high"), ("LPF", "JAC_low"), ("Arima", "CI_med")],
    )
    def test_replay_matches_simulator(self, combo):
        eta, n = 1.0, 2000
        duration = n * eta
        delays = make_trace(n + 1, seed=7, spike_probability=0.02)
        detector_id = "+".join(combo)

        sim = Simulator()
        system = NekoSystem(sim)
        system.network.set_link(
            "monitored", "monitor",
            TraceDelay(delays, wrap=False), record_delays=False,
        )
        log = EventLog()
        heartbeater = Heartbeater("monitor", eta, log)
        detector = PushFailureDetector(
            "monitored", eta, log, [(detector_id, make_strategy(*combo))],
            initial_timeout=10.0 * eta,
        )
        system.create_process(
            "monitored", ProtocolStack([heartbeater]), clock=PerfectClock(sim)
        )
        system.create_process(
            "monitor", ProtocolStack([detector]), clock=PerfectClock(sim)
        )
        system.run(until=duration)
        event_intervals = _suspicion_intervals_by_detector(
            log, [detector_id], duration
        )[detector_id]

        replayed = replay_one(
            combo[0], combo[1],
            np.arange(heartbeater.sent) * eta, delays[: heartbeater.sent],
            eta=eta, end_time=duration,
        )
        replay_intervals = replayed.suspicion_intervals()
        assert len(replay_intervals) == len(event_intervals)
        for (a, b), (c, d) in zip(replay_intervals, event_intervals):
            assert abs(a - c) < TOLERANCE
            assert abs(b - d) < TOLERANCE
