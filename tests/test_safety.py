"""Tests for the safety margins (paper Section 3.2 and Table 1)."""

import math

import numpy as np
import pytest

from repro.fd.baselines import BertierMargin
from repro.fd.safety import ConfidenceIntervalMargin, ConstantMargin, JacobsonMargin


class TestConstantMargin:
    def test_is_constant(self):
        margin = ConstantMargin(0.05)
        assert margin.current() == 0.05
        margin.update(0.3, 0.1)
        assert margin.current() == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantMargin(-0.1)


class TestConfidenceIntervalMargin:
    def test_initial_margin_before_two_observations(self):
        margin = ConfidenceIntervalMargin(gamma=1.0, initial_margin=0.2)
        assert margin.current() == 0.2
        margin.update(0.21, 0.0)
        assert margin.current() == 0.2

    def test_matches_formula(self):
        observations = [0.20, 0.21, 0.19, 0.22, 0.20]
        margin = ConfidenceIntervalMargin(gamma=2.0)
        for value in observations:
            margin.update(value, 0.0)
        arr = np.array(observations)
        n = arr.size
        sigma = arr.std(ddof=1)
        ss = ((arr - arr.mean()) ** 2).sum()
        expected = 2.0 * sigma * math.sqrt(
            1.0 + 1.0 / n + (observations[-1] - arr.mean()) ** 2 / ss
        )
        assert margin.current() == pytest.approx(expected)

    def test_scales_linearly_with_gamma(self):
        low = ConfidenceIntervalMargin(gamma=1.0)
        high = ConfidenceIntervalMargin(gamma=3.31)
        for value in [0.2, 0.21, 0.19, 0.22]:
            low.update(value, 0.0)
            high.update(value, 0.0)
        assert high.current() == pytest.approx(3.31 * low.current())

    def test_independent_of_prediction(self):
        # SM_CI depends only on network behaviour, never on the predictor.
        a = ConfidenceIntervalMargin(gamma=1.0)
        b = ConfidenceIntervalMargin(gamma=1.0)
        for value in [0.2, 0.25, 0.22]:
            a.update(value, 0.0)
            b.update(value, 99.0)
        assert a.current() == b.current()

    def test_outlier_inflates_margin(self):
        margin = ConfidenceIntervalMargin(gamma=1.0)
        for value in [0.2, 0.2, 0.2, 0.2, 0.2, 0.21]:
            margin.update(value, 0.0)
        baseline = margin.current()
        margin.update(0.4, 0.0)  # last observation far from the mean
        assert margin.current() > baseline

    def test_zero_variance_gives_zero_margin(self):
        margin = ConfidenceIntervalMargin(gamma=1.0)
        for _ in range(5):
            margin.update(0.2, 0.0)
        assert margin.current() == 0.0

    def test_reset(self):
        margin = ConfidenceIntervalMargin(gamma=1.0, initial_margin=0.3)
        for value in [0.2, 0.25]:
            margin.update(value, 0.0)
        margin.reset()
        assert margin.current() == 0.3

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            ConfidenceIntervalMargin(gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            ConfidenceIntervalMargin(gamma=gamma)

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceIntervalMargin(gamma=1.0).update(float("inf"), 0.0)


class TestJacobsonMargin:
    def test_initial_margin_before_updates(self):
        margin = JacobsonMargin(phi=2.0, initial_margin=0.15)
        assert margin.current() == 0.15

    def test_seeds_with_first_error(self):
        margin = JacobsonMargin(phi=1.0)
        margin.update(0.25, 0.20)
        assert margin.current() == pytest.approx(0.05)

    def test_ewma_recursion(self):
        margin = JacobsonMargin(phi=1.0, alpha=0.25)
        margin.update(0.25, 0.20)  # mdev = 0.05
        margin.update(0.30, 0.21)  # mdev = 0.05 + 0.25*(0.09-0.05) = 0.06
        assert margin.mean_deviation == pytest.approx(0.06)

    def test_phi_scales_at_use_time(self):
        low = JacobsonMargin(phi=1.0)
        high = JacobsonMargin(phi=4.0)
        for obs, pred in [(0.25, 0.2), (0.22, 0.21), (0.3, 0.25)]:
            low.update(obs, pred)
            high.update(obs, pred)
        # phi multiplies the margin, not the deviation state.
        assert high.mean_deviation == pytest.approx(low.mean_deviation)
        assert high.current() == pytest.approx(4.0 * low.current())

    def test_stable_for_phi_four(self):
        # The literal paper formula with phi inside the recursion would
        # diverge; the deviation-state formulation must stay bounded.
        margin = JacobsonMargin(phi=4.0, alpha=0.25)
        rng = np.random.default_rng(3)
        for _ in range(10000):
            margin.update(0.2 + rng.normal(0, 0.005), 0.2)
        assert margin.current() < 0.1

    def test_tracks_accurate_predictor_thin(self):
        # A perfect predictor yields zero deviation: the margin vanishes.
        margin = JacobsonMargin(phi=4.0)
        for _ in range(100):
            margin.update(0.2, 0.2)
        assert margin.current() == pytest.approx(0.0, abs=1e-12)

    def test_depends_on_prediction_error(self):
        accurate = JacobsonMargin(phi=1.0)
        sloppy = JacobsonMargin(phi=1.0)
        rng = np.random.default_rng(4)
        for _ in range(500):
            delay = 0.2 + rng.normal(0, 0.005)
            accurate.update(delay, delay)         # zero error
            sloppy.update(delay, 0.2)             # white error
        assert accurate.current() < sloppy.current()

    def test_reset(self):
        margin = JacobsonMargin(phi=1.0, initial_margin=0.2)
        margin.update(0.25, 0.2)
        margin.reset()
        assert margin.current() == 0.2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            JacobsonMargin(phi=0.0)
        with pytest.raises(ValueError):
            JacobsonMargin(phi=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            JacobsonMargin(phi=1.0).update(float("nan"), 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ValueError, match="finite"):
            JacobsonMargin(phi=phi)


class TestBertierMargin:
    def test_combines_error_and_deviation(self):
        margin = BertierMargin(beta=1.0, phi=4.0, gamma=0.1)
        margin.update(0.25, 0.2)  # error 0.05: U = 0.05, var = 0.05
        assert margin.current() == pytest.approx(1.0 * 0.05 + 4.0 * 0.05)

    def test_clamped_at_zero(self):
        margin = BertierMargin(beta=1.0, phi=0.1, gamma=1.0)
        margin.update(0.1, 0.3)  # error -0.2: U=-0.2, var=0.2
        assert margin.current() == 0.0

    def test_initial_margin(self):
        assert BertierMargin(initial_margin=0.12).current() == 0.12

    def test_reset(self):
        margin = BertierMargin()
        margin.update(0.25, 0.2)
        margin.reset()
        assert margin.current() == margin._initial_margin

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            BertierMargin(gamma=0.0)
