"""Tests for the predictor/margin plugin registry."""

import numpy as np
import pytest

from repro.fd.predictors import Predictor
from repro.fd.registry import (
    MedianPredictor,
    make_registered_margin,
    make_registered_predictor,
    make_registered_strategy,
    register_margin,
    register_predictor,
    registered_margins,
    registered_predictors,
)
from repro.fd.safety import ConstantMargin


class TestRegistry:
    def test_stock_names_resolve(self):
        predictor = make_registered_predictor("Last")
        assert predictor.name == "Last"
        margin = make_registered_margin("CI_low")
        assert margin.gamma == 1.0

    def test_median_is_preregistered(self):
        assert "Median" in registered_predictors()
        predictor = make_registered_predictor("Median")
        assert isinstance(predictor, MedianPredictor)

    def test_custom_registration(self):
        class DoubleLast(Predictor):
            name = "DoubleLast-test"

            def __init__(self):
                super().__init__()
                self._last = 0.0

            def _observe(self, value):
                self._last = value
                return 2.0 * value

            def _reset(self):
                self._last = 0.0

        register_predictor("DoubleLast-test", lambda: DoubleLast())
        predictor = make_registered_predictor("DoubleLast-test")
        predictor.observe(0.2)
        assert predictor.predict() == pytest.approx(0.4)
        assert "DoubleLast-test" in registered_predictors()

    def test_custom_margin_registration(self):
        register_margin("Const50-test", lambda: ConstantMargin(0.05))
        margin = make_registered_margin("Const50-test")
        assert margin.current() == 0.05
        assert margin.name == "Const50-test"
        assert "Const50-test" in registered_margins()

    def test_stock_names_cannot_be_shadowed(self):
        with pytest.raises(ValueError):
            register_predictor("Last", lambda: None)
        with pytest.raises(ValueError):
            register_margin("CI_low", lambda: None)

    def test_duplicate_registration_rejected(self):
        register_predictor("Dup-test", lambda: MedianPredictor())
        with pytest.raises(ValueError):
            register_predictor("Dup-test", lambda: MedianPredictor())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_predictor("", lambda: None)
        with pytest.raises(ValueError):
            register_margin("", lambda: None)

    def test_mixed_strategy(self):
        strategy = make_registered_strategy("Median", "JAC_med")
        assert strategy.name == "Median+JAC_med"
        strategy.observe(0.2)
        assert strategy.timeout() > 0


class TestMedianPredictor:
    def test_median_of_window(self):
        predictor = MedianPredictor(window=3)
        for value in [0.1, 0.9, 0.2]:
            predictor.observe(value)
        assert predictor.predict() == pytest.approx(0.2)

    def test_even_window_averages_middle(self):
        predictor = MedianPredictor(window=4)
        for value in [0.1, 0.2, 0.3, 0.4]:
            predictor.observe(value)
        assert predictor.predict() == pytest.approx(0.25)

    def test_window_slides(self):
        predictor = MedianPredictor(window=3)
        for value in [9.0, 0.1, 0.2, 0.3]:
            predictor.observe(value)
        assert predictor.predict() == pytest.approx(0.2)

    def test_robust_to_spikes(self):
        median = MedianPredictor(window=11)
        rng = np.random.default_rng(1)
        for _ in range(50):
            median.observe(0.2 + rng.normal(0, 0.001))
        median.observe(5.0)  # a huge spike
        assert median.predict() == pytest.approx(0.2, abs=0.01)

    def test_matches_numpy_median(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.1, 0.4, 200)
        predictor = MedianPredictor(window=25)
        for value in values:
            predictor.observe(value)
        assert predictor.predict() == pytest.approx(np.median(values[-25:]))

    def test_reset(self):
        predictor = MedianPredictor(window=3)
        predictor.observe(0.5)
        predictor.reset()
        assert predictor.predict() == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MedianPredictor(window=0)

    def test_better_than_winmean_on_spiky_path(self):
        from repro.experiments.accuracy import collect_delay_trace
        from repro.fd.combinations import make_predictor
        from repro.timeseries.base import evaluate_forecaster

        trace = collect_delay_trace(count=8000, seed=6)
        median_msq, _ = evaluate_forecaster(
            MedianPredictor(window=11), trace.delays, warmup=1
        )
        winmean_msq, _ = evaluate_forecaster(
            make_predictor("WinMean"), trace.delays, warmup=1
        )
        # On the spiky WAN path the robust median is competitive with the
        # windowed mean (within 20%), typically beating it.
        assert median_msq < winmean_msq * 1.2
