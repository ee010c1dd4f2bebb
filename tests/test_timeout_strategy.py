"""Tests for the TimeoutStrategy (delta = pred + sm) and combinations."""

import pytest

from repro.fd.combinations import (
    MARGINS,
    MARGIN_NAMES,
    PREDICTOR_NAMES,
    all_combinations,
    combination_ids,
    make_margin,
    make_predictor,
    make_strategy,
    parse_combination_id,
)
from repro.fd.predictors import LastPredictor, WinMeanPredictor
from repro.fd.safety import ConfidenceIntervalMargin, ConstantMargin, JacobsonMargin
from repro.fd.timeout import TimeoutStrategy


class TestTimeoutStrategy:
    def test_timeout_is_prediction_plus_margin(self):
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.05))
        strategy.observe(0.2)
        assert strategy.timeout() == pytest.approx(0.25)

    def test_margin_sees_prediction_in_force(self):
        # The margin must be fed err_k = obs_n - pred_k, where pred_k was
        # the prediction made BEFORE the observation arrived.
        margin = JacobsonMargin(phi=1.0)
        strategy = TimeoutStrategy(LastPredictor(), margin)
        strategy.observe(0.2)   # pred in force was 0.0 -> err = 0.2
        assert margin.mean_deviation == pytest.approx(0.2)
        strategy.observe(0.3)   # pred in force was 0.2 -> err = 0.1
        assert margin.mean_deviation == pytest.approx(0.2 + 0.25 * (0.1 - 0.2))

    def test_timeout_clamped_at_zero(self):
        class NegativePredictor(LastPredictor):
            def _observe(self, value):
                return -1.0

        strategy = TimeoutStrategy(NegativePredictor(), ConstantMargin(0.0))
        strategy.observe(0.2)
        assert strategy.timeout() == 0.0

    def test_default_name(self):
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.0))
        assert strategy.name == "Last+Const"

    def test_reset(self):
        strategy = TimeoutStrategy(LastPredictor(), JacobsonMargin(phi=1.0))
        strategy.observe(0.2)
        strategy.reset()
        assert strategy.prediction() == 0.0


class TestCombinations:
    def test_thirty_combinations(self):
        assert len(combination_ids()) == 30
        assert len(set(combination_ids())) == 30

    def test_all_combinations_generator(self):
        combos = list(all_combinations())
        assert len(combos) == 30
        detector_id, predictor, margin = combos[0]
        assert detector_id == f"{predictor}+{margin}"

    def test_paper_predictor_names(self):
        assert PREDICTOR_NAMES == ("Arima", "Last", "LPF", "Mean", "WinMean")

    def test_paper_margin_names_order(self):
        # CI side first, JAC side second, as on the paper's x-axis.
        assert MARGIN_NAMES[:3] == ("CI_low", "CI_med", "CI_high")
        assert MARGIN_NAMES[3:] == ("JAC_low", "JAC_med", "JAC_high")

    def test_table1_parameters(self):
        CI, JAC = ConfidenceIntervalMargin, JacobsonMargin
        assert MARGINS == {
            "CI_low": (CI, 1.0), "CI_med": (CI, 2.0), "CI_high": (CI, 3.31),
            "JAC_low": (JAC, 1.0), "JAC_med": (JAC, 2.0), "JAC_high": (JAC, 4.0),
        }
        assert tuple(MARGINS) == MARGIN_NAMES

    def test_make_predictor_table2_defaults(self):
        arima = make_predictor("Arima")
        assert arima.order == (2, 1, 1)
        winmean = make_predictor("WinMean")
        assert winmean.window == 10
        lpf = make_predictor("LPF")
        assert lpf.beta == pytest.approx(1.0 / 8.0)

    def test_make_predictor_overrides(self):
        assert make_predictor("WinMean", window=20).window == 20

    def test_make_margin_parameters(self):
        ci = make_margin("CI_high")
        assert ci.gamma == pytest.approx(3.31)
        assert ci.name == "CI_high"
        jac = make_margin("JAC_med")
        assert jac.phi == 2.0
        assert jac.alpha == 0.25

    def test_make_strategy_name(self):
        strategy = make_strategy("Last", "JAC_low")
        assert strategy.name == "Last+JAC_low"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            make_predictor("Oracle")
        with pytest.raises(KeyError):
            make_margin("CI_extreme")

    def test_parse_combination_id(self):
        assert parse_combination_id("Arima+CI_low") == ("Arima", "CI_low")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_combination_id("ArimaCI_low")
        with pytest.raises(ValueError):
            parse_combination_id("Oracle+CI_low")
        with pytest.raises(ValueError):
            parse_combination_id("Arima+CI_extreme")

    def test_strategies_are_independent_instances(self):
        a = make_strategy("Last", "CI_low")
        b = make_strategy("Last", "CI_low")
        a.observe(0.5)
        assert b.prediction() == 0.0
