"""Tests for the time-series substrate: AR, ARMA, ARIMA, selection, diagnostics."""

import math
from collections import deque

import numpy as np
import pytest

from repro.timeseries.ar import fit_ar_ols, fit_ar_yule_walker
from repro.timeseries.arima import (
    ArimaForecaster,
    batch_arima_predictions,
    difference,
    undifference_forecast,
)
from repro.timeseries.arma import ArmaModel, fit_arma_hannan_rissanen
from repro.timeseries.base import evaluate_forecaster
from repro.timeseries.diagnostics import acf, ljung_box, pacf
from repro.timeseries.selection import score_order, select_arima_order


def make_ar1(n, phi, sigma=1.0, const=0.0, seed=0):
    rng = np.random.default_rng(seed)
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = const + phi * z[t - 1] + rng.normal(0, sigma)
    return z


def make_arma11(n, phi, theta, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    z = np.zeros(n)
    noise = rng.normal(0, sigma, n)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + noise[t] + theta * noise[t - 1]
    return z


class TestYuleWalker:
    def test_recovers_ar1_coefficient(self):
        z = make_ar1(20000, 0.7)
        phi, variance = fit_ar_yule_walker(z, 1)
        assert phi[0] == pytest.approx(0.7, abs=0.03)
        assert variance == pytest.approx(1.0, rel=0.1)

    def test_recovers_ar2_coefficients(self):
        rng = np.random.default_rng(1)
        z = np.zeros(20000)
        for t in range(2, len(z)):
            z[t] = 0.5 * z[t - 1] - 0.3 * z[t - 2] + rng.normal()
        phi, _ = fit_ar_yule_walker(z, 2)
        assert phi[0] == pytest.approx(0.5, abs=0.03)
        assert phi[1] == pytest.approx(-0.3, abs=0.03)

    def test_order_zero(self):
        phi, variance = fit_ar_yule_walker([1.0, 2.0, 3.0], 0)
        assert phi.size == 0
        assert variance == pytest.approx(np.var([1.0, 2.0, 3.0]))

    def test_constant_series_is_safe(self):
        phi, variance = fit_ar_yule_walker([5.0] * 100, 3)
        assert np.all(phi == 0.0)
        assert variance == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_ar_yule_walker([1.0], 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_ar_yule_walker([1.0, float("nan"), 2.0], 1)


class TestArOls:
    def test_recovers_coefficient_and_intercept(self):
        z = make_ar1(20000, 0.6, const=2.0)
        phi, intercept, residuals = fit_ar_ols(z, 1)
        assert phi[0] == pytest.approx(0.6, abs=0.02)
        assert intercept == pytest.approx(2.0, abs=0.1)
        assert residuals.size == z.size - 1

    def test_residuals_are_white(self):
        z = make_ar1(20000, 0.8)
        _, _, residuals = fit_ar_ols(z, 1)
        correlations = acf(residuals, 5)
        assert np.all(np.abs(correlations[1:]) < 0.03)

    def test_order_zero_returns_mean(self):
        phi, intercept, residuals = fit_ar_ols([1.0, 2.0, 3.0], 0)
        assert intercept == pytest.approx(2.0)
        assert residuals == pytest.approx([-1.0, 0.0, 1.0])


class TestHannanRissanen:
    def test_recovers_arma11(self):
        z = make_arma11(50000, phi=0.6, theta=0.4)
        model = fit_arma_hannan_rissanen(z, 1, 1)
        assert model.phi[0] == pytest.approx(0.6, abs=0.05)
        assert model.theta[0] == pytest.approx(0.4, abs=0.06)
        assert model.noise_variance == pytest.approx(1.0, rel=0.1)

    def test_pure_ar_path(self):
        z = make_ar1(10000, 0.5)
        model = fit_arma_hannan_rissanen(z, 1, 0)
        assert model.q == 0
        assert model.phi[0] == pytest.approx(0.5, abs=0.03)

    def test_pure_ma(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(0, 1, 50000)
        z = noise[1:] + 0.5 * noise[:-1]
        model = fit_arma_hannan_rissanen(z, 0, 1)
        assert model.theta[0] == pytest.approx(0.5, abs=0.05)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_arma_hannan_rissanen(np.arange(6.0), 2, 2)

    def test_stationarity_check(self):
        stationary = ArmaModel(
            phi=np.array([0.5]), theta=np.zeros(0), const=0.0, noise_variance=1.0
        )
        explosive = ArmaModel(
            phi=np.array([1.2]), theta=np.zeros(0), const=0.0, noise_variance=1.0
        )
        assert stationary.is_stationary()
        assert not explosive.is_stationary()

    def test_forecast_one_uses_history(self):
        model = ArmaModel(
            phi=np.array([0.5]), theta=np.array([0.2]), const=1.0, noise_variance=1.0
        )
        forecast = model.forecast_one([2.0], [0.4])
        assert forecast == pytest.approx(1.0 + 0.5 * 2.0 + 0.2 * 0.4)

    def test_forecast_one_zero_pads_short_history(self):
        model = ArmaModel(
            phi=np.array([0.5, 0.3]), theta=np.zeros(0), const=0.0, noise_variance=1.0
        )
        assert model.forecast_one([2.0], []) == pytest.approx(1.0)

    def test_innovations_recover_noise(self):
        z = make_ar1(5000, 0.7, seed=3)
        model = fit_arma_hannan_rissanen(z, 1, 0)
        innovations = model.innovations(z)
        # Innovations of a well-fitted model are white.
        correlations = acf(innovations[10:], 3)
        assert np.all(np.abs(correlations[1:]) < 0.05)


class TestDifferencing:
    def test_difference_once(self):
        assert list(difference([1.0, 3.0, 6.0], 1)) == [2.0, 3.0]

    def test_difference_twice(self):
        assert list(difference([1.0, 3.0, 6.0, 10.0], 2)) == [1.0, 1.0]

    def test_difference_zero_identity(self):
        assert list(difference([1.0, 2.0], 0)) == [1.0, 2.0]

    def test_undifference_d1(self):
        # y_{t+1} = w + y_t
        assert undifference_forecast(2.0, [5.0], 1) == pytest.approx(7.0)

    def test_undifference_d2(self):
        # y_{t+1} = w + 2 y_t - y_{t-1}
        assert undifference_forecast(1.0, [3.0, 5.0], 2) == pytest.approx(1 + 10 - 3)

    def test_roundtrip(self):
        series = [1.0, 4.0, 9.0, 16.0, 25.0]
        w = difference(series, 2)
        reconstructed = undifference_forecast(w[-1], series[:-1], 2)
        assert reconstructed == pytest.approx(series[-1])

    def test_undifference_needs_history(self):
        with pytest.raises(ValueError):
            undifference_forecast(1.0, [5.0], 2)


class TestArimaForecaster:
    def test_tracks_ar1(self):
        z = make_ar1(3000, 0.8, seed=4) + 10.0
        forecaster = ArimaForecaster(1, 0, 0, refit_interval=500, initial_fit=100)
        msqerr, _ = evaluate_forecaster(forecaster, z, warmup=200)
        # Optimal one-step error variance is 1.0; allow slack.
        assert msqerr < 1.3

    def test_beats_last_value_on_trend(self):
        # A noisy ramp: ARIMA(0,1,0) with drift ~ should beat naive LAST.
        rng = np.random.default_rng(5)
        z = np.cumsum(np.full(2000, 0.5)) + rng.normal(0, 0.1, 2000)
        arima = ArimaForecaster(1, 1, 0, refit_interval=500, initial_fit=100)
        msq_arima, _ = evaluate_forecaster(arima, z, warmup=200)

        class LastValue:
            def __init__(self):
                self.last = 0.0

            def observe(self, v):
                self.last = v

            def predict(self):
                return self.last

        msq_last, _ = evaluate_forecaster(LastValue(), z, warmup=200)
        assert msq_arima < msq_last

    def test_fallback_before_first_fit_is_last_value(self):
        forecaster = ArimaForecaster(2, 1, 1, initial_fit=100)
        assert forecaster.predict() == 0.0
        forecaster.observe(5.0)
        assert forecaster.predict() == 5.0
        assert not forecaster.fitted

    def test_fits_after_initial_fit_threshold(self):
        z = make_ar1(300, 0.5, seed=6)
        forecaster = ArimaForecaster(1, 0, 0, refit_interval=1000, initial_fit=200)
        for value in z:
            forecaster.observe(value)
        assert forecaster.fitted
        assert forecaster.refits >= 1

    def test_refit_interval_respected(self):
        z = make_ar1(2500, 0.5, seed=7)
        forecaster = ArimaForecaster(1, 0, 0, refit_interval=1000, initial_fit=200)
        for value in z:
            forecaster.observe(value)
        # Fits at 200 (first), 1000, 2000.
        assert forecaster.refits == 3

    def test_reset_clears_state(self):
        forecaster = ArimaForecaster(1, 0, 0, initial_fit=50)
        for value in make_ar1(100, 0.5):
            forecaster.observe(value)
        forecaster.reset()
        assert not forecaster.fitted
        assert forecaster.predict() == 0.0

    def test_non_finite_observation_rejected(self):
        forecaster = ArimaForecaster(1, 0, 0)
        with pytest.raises(ValueError):
            forecaster.observe(float("inf"))

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            ArimaForecaster(-1, 0, 0)
        with pytest.raises(ValueError):
            ArimaForecaster(1, 0, 0, refit_interval=0)
        with pytest.raises(ValueError):
            ArimaForecaster(5, 0, 0, initial_fit=3)

    def test_paper_order_on_delay_like_series(self):
        # ARIMA(2,1,1) on a delay-like series stays sane and close.
        rng = np.random.default_rng(8)
        z = 0.2 + np.abs(rng.normal(0, 0.005, 3000))
        forecaster = ArimaForecaster(2, 1, 1, refit_interval=1000, initial_fit=200)
        msqerr, predictions = evaluate_forecaster(forecaster, z, warmup=300)
        assert math.isfinite(msqerr)
        assert msqerr < np.var(z) * 3
        assert np.all(np.isfinite(predictions[300:]))


    @pytest.mark.parametrize("d", [1, 2])
    def test_per_observation_cost_independent_of_window_depth(self, d):
        # Counted, not timed: between refits neither observe() nor
        # predict() may walk or copy the raw window, which at the paper's
        # horizon is fit_window + d + 1 = 4 000-odd values deep.
        class CountingDeque(deque):
            walks = 0

            def __iter__(self):
                CountingDeque.walks += 1
                return super().__iter__()

            def __reversed__(self):
                CountingDeque.walks += 1
                return super().__reversed__()

            def copy(self):
                CountingDeque.walks += 1
                return super().copy()

            __copy__ = copy

        rng = np.random.default_rng(4)
        series = (0.2 + 0.003 * rng.standard_normal(4400)).tolist()
        forecaster = ArimaForecaster(2, d, 1, refit_interval=10_000)
        plain = ArimaForecaster(2, d, 1, refit_interval=10_000)
        forecaster._raw = CountingDeque(maxlen=forecaster._raw.maxlen)
        walks_at_depth = {}
        for index, value in enumerate(series):
            forecaster.observe(value)
            plain.observe(value)
            assert forecaster.predict() == plain.predict()
            if index in (299, 399, 4199, 4299):
                walks_at_depth[index] = CountingDeque.walks
        assert forecaster.fitted
        assert len(forecaster._raw) == forecaster._raw.maxlen
        # One walk in all: the single fit, at observation 200.
        assert walks_at_depth[399] - walks_at_depth[299] == 0
        assert walks_at_depth[4299] - walks_at_depth[4199] == 0
        assert CountingDeque.walks == 1

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_no_numpy_between_refits(self, d, monkeypatch):
        # Counted, not timed: every numpy.diff / numpy.asarray call over
        # 1 500 observations happens inside a refit.
        calls = {"all": 0, "in_refit": 0}
        for name in ("diff", "asarray"):
            original = getattr(np, name)

            def counting(*args, _original=original, **kwargs):
                calls["all"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        refit = ArimaForecaster._refit

        def counted_refit(self):
            before = calls["all"]
            refit(self)
            calls["in_refit"] += calls["all"] - before

        monkeypatch.setattr(ArimaForecaster, "_refit", counted_refit)
        rng = np.random.default_rng(11)
        series = (0.2 + 0.003 * rng.standard_normal(1500)).tolist()
        forecaster = ArimaForecaster(2, d, 1, refit_interval=500, initial_fit=200)
        for value in series:
            forecaster.observe(value)
            forecaster.predict()
        assert forecaster.refits == 4  # at observations 200, 500, 1000, 1500
        assert calls["in_refit"] > 0
        assert calls["all"] == calls["in_refit"]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_scalar_step_bit_equal_to_numpy_differencing_and_batch(self, d):
        # The plain-float differencing of the per-observation step against
        # the array form it replaced (np.diff over the last d + 1 values)
        # and against the batched replay, float bits compared.
        class NumpyDifferencing(ArimaForecaster):
            def _current_differenced(self):
                if self.d == 0:
                    return self._raw[-1]
                window = list(self._raw)[-(self.d + 1):]
                return float(difference(window, self.d)[-1])

        rng = np.random.default_rng(12 + d)
        series = np.cumsum(0.003 * rng.standard_normal(1600)) + 0.2
        scalar = ArimaForecaster(2, d, 1, refit_interval=500, initial_fit=200)
        reference = NumpyDifferencing(2, d, 1, refit_interval=500, initial_fit=200)
        ours, theirs = [], []
        for value in series:
            scalar.observe(value)
            reference.observe(value)
            ours.append(scalar.predict())
            theirs.append(reference.predict())
        assert scalar.refits == reference.refits >= 3
        assert np.array_equal(
            np.array(ours).view(np.uint64), np.array(theirs).view(np.uint64)
        )
        batch = batch_arima_predictions(
            series, 2, d, 1, refit_interval=500, initial_fit=200
        )
        assert np.array_equal(batch.view(np.uint64), np.array(ours).view(np.uint64))


class TestEvaluateForecaster:
    def test_returns_predictions_with_nan_warmup(self):
        class Zero:
            def observe(self, v):
                pass

            def predict(self):
                return 0.0

        msqerr, predictions = evaluate_forecaster(Zero(), [1.0, 1.0, 1.0], warmup=1)
        assert math.isnan(predictions[0])
        assert predictions[1] == 0.0
        assert msqerr == pytest.approx(1.0)

    def test_invalid_warmup_rejected(self):
        class Zero:
            def observe(self, v):
                pass

            def predict(self):
                return 0.0

        with pytest.raises(ValueError):
            evaluate_forecaster(Zero(), [1.0, 2.0], warmup=2)


class TestOrderSelection:
    def test_selects_differencing_for_random_walk(self):
        rng = np.random.default_rng(9)
        z = np.cumsum(rng.normal(0, 1, 2000))
        result = select_arima_order(
            z, p_range=range(0, 2), d_range=range(0, 2), q_range=range(0, 2)
        )
        assert result.best_order[1] == 1  # d = 1 wins on a random walk

    def test_selects_ar_for_ar_process(self):
        z = make_ar1(3000, 0.8, seed=10)
        result = select_arima_order(
            z, p_range=range(0, 3), d_range=range(0, 2), q_range=range(0, 2)
        )
        p, d, q = result.best_order
        assert d == 0
        assert p >= 1

    def test_ranked_is_sorted(self):
        z = make_ar1(1000, 0.5, seed=11)
        result = select_arima_order(
            z, p_range=range(0, 2), d_range=range(0, 1), q_range=range(0, 2)
        )
        scores = [score for _, score in result.ranked()]
        assert scores == sorted(scores)

    def test_score_order_inf_for_impossible_fit(self):
        z = make_ar1(30, 0.5, seed=12)
        assert score_order(z, 8, 0, 8) == math.inf

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            select_arima_order([1.0] * 10)


class TestDiagnostics:
    def test_acf_of_white_noise(self):
        rng = np.random.default_rng(13)
        z = rng.normal(0, 1, 20000)
        correlations = acf(z, 5)
        assert correlations[0] == pytest.approx(1.0)
        assert np.all(np.abs(correlations[1:]) < 0.03)

    def test_acf_of_ar1_decays_geometrically(self):
        z = make_ar1(50000, 0.7, seed=14)
        correlations = acf(z, 3)
        assert correlations[1] == pytest.approx(0.7, abs=0.03)
        assert correlations[2] == pytest.approx(0.49, abs=0.04)

    def test_pacf_of_ar1_cuts_off(self):
        z = make_ar1(50000, 0.7, seed=15)
        partial = pacf(z, 4)
        assert partial[1] == pytest.approx(0.7, abs=0.03)
        assert np.all(np.abs(partial[2:]) < 0.05)

    def test_pacf_lag0_is_one(self):
        assert pacf([1.0, 2.0, 1.5, 2.5, 1.0, 2.0], 1)[0] == 1.0

    def test_ljung_box_small_for_white_noise(self):
        rng = np.random.default_rng(16)
        q, dof = ljung_box(rng.normal(0, 1, 5000), 10)
        assert dof == 10
        assert q < 25  # chi2(10) 95% quantile ~ 18.3; generous bound

    def test_ljung_box_large_for_correlated(self):
        z = make_ar1(5000, 0.8, seed=17)
        q, _ = ljung_box(z, 10)
        assert q > 1000

    def test_ljung_box_validation(self):
        with pytest.raises(ValueError):
            ljung_box([1.0, 2.0], 5)
        with pytest.raises(ValueError):
            ljung_box([1.0] * 100, 0)

    def test_acf_constant_series(self):
        correlations = acf([3.0] * 50, 4)
        assert correlations[0] == 1.0
        assert np.all(correlations[1:] == 0.0)
