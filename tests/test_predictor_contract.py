"""The two-hook predictor contract, the block forms, and the state a
heartbeat reads.

A predictor's ``observe`` returns the fresh forecast and ``predict()``
returns it until the next observation; a subclass implements only
``_observe`` and ``_reset``.  Each predictor's and each Table 1 margin's
block form (what the trace replay reads) equals its per-observation
class.  ``ArmaModel.forecast_one`` and ``ConfidenceIntervalMargin.spread``
read their state without a call per coefficient or moment; both are held
bit for bit to test-local copies of their earlier bodies.
"""

import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import examples
from tests.test_replay import TOLERANCE, make_trace
from repro.fd.baselines import ConstantPredictor
from repro.fd.combinations import MARGINS, PREDICTORS, make_margin
from repro.fd.registry import (
    MedianPredictor,
    make_registered_predictor,
    registered_predictors,
)
from repro.fd.safety import ConfidenceIntervalMargin
from repro.timeseries.arma import ArmaModel

#: ARIMA fits within a short example: first fit at 20 observations,
#: refits every 15 (the paper's schedule needs 200 and 1000).
ARIMA_SCHEDULE = {"initial_fit": 20, "refit_interval": 15, "fit_window": 40}

delays = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def bits(value):
    return struct.pack("<d", value)


def build(name, initial):
    if name == "Const":
        return ConstantPredictor(initial)
    overrides = ARIMA_SCHEDULE if name == "Arima" else {}
    return make_registered_predictor(name, initial_prediction=initial, **overrides)


class TestObserveReturnsTheForecast:
    @pytest.mark.parametrize("name", registered_predictors() + ["Const"])
    @settings(max_examples=examples(60), deadline=None)
    @given(
        values=st.lists(delays, max_size=70),
        initial=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_observe_returns_what_predict_then_returns(self, name, values, initial):
        predictor = build(name, initial)
        assert bits(predictor.predict()) == bits(initial)
        forecasts = []
        for value in values:
            forecast = predictor.observe(value)
            assert type(forecast) is float
            assert bits(predictor.predict()) == bits(forecast)
            forecasts.append(bits(forecast))
        assert predictor.observations == len(values)

        predictor.reset()
        assert bits(predictor.predict()) == bits(initial)
        assert predictor.observations == 0
        # Reset forgets everything: the same delays give the same forecasts.
        assert [bits(predictor.observe(value)) for value in values] == forecasts

    @pytest.mark.parametrize("name", registered_predictors())
    def test_rejected_delay_moves_nothing(self, name):
        predictor = build(name, 0.5)
        forecast = predictor.observe(0.2)
        with pytest.raises(ValueError):
            predictor.observe(math.inf)
        assert predictor.observations == 1
        assert predictor.predict() == forecast


# ----------------------------------------------------------------------
# Block forms against the per-observation classes
# ----------------------------------------------------------------------
#: Each predictor's class and parameters: the table's, ARIMA on the short
#: schedule so that an example spans refits, and two that take the base
#: class's loop.
BLOCK_PREDICTORS = {
    **PREDICTORS,
    "Arima": (PREDICTORS["Arima"][0], {**PREDICTORS["Arima"][1], **ARIMA_SCHEDULE}),
    "Median": (MedianPredictor, {}),
    "Const": (ConstantPredictor, {"value": 0.3}),
}

def block_trace(n, seed, spike_probability, constant):
    """A delay trace as the replay tests draw them, or a constant one
    (zero variance: the CI margin's degenerate branch)."""
    if constant:
        return np.full(n, 0.125)
    return make_trace(n, seed=seed, spike_probability=spike_probability)


def assert_block_equal(block, reference, approximate):
    """Bit for bit, or within ``TOLERANCE`` where the block form sums in
    another order (WinMean's sliding window, SM_CI's shifted moments)."""
    if approximate:
        np.testing.assert_allclose(block, reference, rtol=0, atol=TOLERANCE)
    else:
        np.testing.assert_array_equal(block, reference)


block_traces = dict(
    n=st.integers(min_value=1, max_value=600),
    seed=st.integers(min_value=0, max_value=2**16),
    spike_probability=st.sampled_from([0.0, 0.01, 0.05]),
    constant=st.booleans(),
)


def strategy_cases(test):
    """The traces of ``tests/test_replay.py``'s strategy equivalence: a
    3 000-delay trace, the shortest ones and a constant one."""
    test = example(n=3000, seed=42, spike_probability=0.01, constant=False)(test)
    for n in (1, 2, 3):
        test = example(n=n, seed=42, spike_probability=0.01, constant=False)(test)
    return example(n=50, seed=0, spike_probability=0.0, constant=True)(test)


class TestBlockEqualsPerObservation:
    @pytest.mark.parametrize("name", list(BLOCK_PREDICTORS))
    @settings(max_examples=examples(15), deadline=None)
    @given(**block_traces)
    @strategy_cases
    def test_forecast_many_equals_the_observe_loop(
        self, name, n, seed, spike_probability, constant
    ):
        x = block_trace(n, seed, spike_probability, constant)
        predictor_class, params = BLOCK_PREDICTORS[name]
        predictor = predictor_class(**params)
        reference = [predictor.observe(value) for value in x.tolist()]
        block = predictor_class.forecast_many(x, **params)
        assert block.dtype == float and block.shape == x.shape
        assert_block_equal(block, reference, name == "WinMean")

    @pytest.mark.parametrize("predictor_name", list(PREDICTORS))
    @settings(max_examples=examples(15), deadline=None)
    @given(**block_traces)
    @strategy_cases
    def test_margin_block_equals_current_after_each_update(
        self, predictor_name, n, seed, spike_probability, constant
    ):
        x = block_trace(n, seed, spike_probability, constant)
        predictor_class, params = PREDICTORS[predictor_name]
        predictions = predictor_class.forecast_many(x, **params)
        for margin_name, (margin_class, level) in MARGINS.items():
            margin = make_margin(margin_name)
            reference = []
            in_force = 0.0  # a predictor with no observation predicts 0
            for value, prediction in zip(x.tolist(), predictions.tolist()):
                margin.update(value, in_force)
                reference.append(margin.current())
                in_force = prediction
            block = margin_class.scale_many(
                level, margin_class.unit_many(x, predictions)
            )
            assert_block_equal(
                block, reference, margin_class is ConfidenceIntervalMargin
            )


# ----------------------------------------------------------------------
# ArmaModel.forecast_one against its earlier body
# ----------------------------------------------------------------------
def reference_forecast_one(model, recent_values, recent_innovations):
    """``forecast_one`` as it was written: the orders and coefficients read
    through the model's array fields on every call."""
    forecast = model.const
    for i in range(1, model.p + 1):
        if i <= len(recent_values):
            forecast += float(model.phi[i - 1]) * float(recent_values[-i])
    for j in range(1, model.q + 1):
        if j <= len(recent_innovations):
            forecast += float(model.theta[j - 1]) * float(recent_innovations[-j])
    return forecast


coefficients = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
samples = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestForecastOne:
    @settings(max_examples=examples(200), deadline=None)
    @given(
        phi=st.lists(coefficients, max_size=4),
        theta=st.lists(coefficients, max_size=3),
        const=samples,
        values=st.lists(samples, max_size=6),
        innovations=st.lists(samples, max_size=5),
        container=st.sampled_from([list, deque, np.asarray]),
    )
    def test_equals_the_earlier_body(
        self, phi, theta, const, values, innovations, container
    ):
        # Histories shorter than the order are in range: zero-padding.
        model = ArmaModel(
            phi=np.asarray(phi, dtype=float),
            theta=np.asarray(theta, dtype=float),
            const=const,
            noise_variance=1.0,
        )
        recent_values = container(values)
        recent_innovations = container(innovations)
        expected = reference_forecast_one(model, recent_values, recent_innovations)
        for _ in range(2):  # the first call converts, the second reuses
            forecast = model.forecast_one(recent_values, recent_innovations)
            assert bits(forecast) == bits(expected)


# ----------------------------------------------------------------------
# ConfidenceIntervalMargin.spread against its earlier body
# ----------------------------------------------------------------------
def reference_spread(observations):
    """``spread`` as it was written, over ``Welford``'s earlier ``add`` and
    its ``count``/``variance``/``std``/``mean`` properties, inlined."""
    count, mean, m2 = 0, 0.0, 0.0
    for value in observations:
        value = float(value)
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
    n = count
    if n < 2:
        return None
    variance_sum = (m2 / (n - 1)) * (n - 1)  # Welford.variance * (n - 1)
    sigma = math.sqrt(m2 / (n - 1))  # Welford.std
    if sigma == 0.0:
        return 0.0, 1.0
    deviation = observations[-1] - mean
    inflation = 1.0 + 1.0 / n + (deviation * deviation) / variance_sum
    return sigma, math.sqrt(inflation)


class TestSpread:
    @settings(max_examples=examples(200), deadline=None)
    @given(
        observations=st.lists(
            st.one_of(st.sampled_from([0.2, 0.25]), delays), max_size=40
        )
    )
    # The sum of squared deviations is the variance times n - 1, not the
    # accumulator's m2: the two round apart here.
    @example(observations=[0.37, 0.29, 0.42, 0.53])
    def test_equals_the_earlier_body(self, observations):
        margin = ConfidenceIntervalMargin(2.0)
        assert margin.spread() is None
        for index, value in enumerate(observations):
            margin.update(value, 0.0)
            spread = margin.spread()
            expected = reference_spread(observations[: index + 1])
            if expected is None:
                assert spread is None
                assert margin.current() == margin.initial_margin
            else:
                assert [bits(part) for part in spread] == [
                    bits(part) for part in expected
                ]
                sigma, inflation_root = expected
                assert bits(margin.current()) == bits(2.0 * sigma * inflation_root)
        margin.reset()
        assert margin.spread() is None
