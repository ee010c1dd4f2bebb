"""The five delay predictors of the paper's Section 3.1.

Every predictor consumes the list ``obs = [obs_1 .. obs_n]`` of observed
heartbeat transmission delays (in arrival order — losses and reordering
mean this is *not* sequence-number order) and forecasts the next delay:

* ``LAST`` — the last observation;
* ``MEAN`` — the mean of all observations;
* ``WINMEAN(N)`` — the mean of the last ``N`` (equal to MEAN while
  ``n < N``);
* ``LPF(beta)`` — exponential smoothing
  ``pred_{k+1} = (1 − beta) pred_k + beta obs_n``;
* ``ARIMA(p, d, q)`` — the Box–Jenkins model, via
  :class:`repro.timeseries.arima.ArimaForecaster` (paper: (2, 1, 1),
  refitted every 1000 observations).

All predictors run in O(1) per observation (the paper's complexity
remark), including MEAN (running sum) and WINMEAN (ring buffer).  Each
also has a block form, :meth:`Predictor.forecast_many`, which the trace
replay reads: the base class runs the per-observation loop, and the five
paper predictors override it with array operations that give the same
floats (MEAN a ``cumsum / arange``, LPF an exponential recurrence over a
float list, ARIMA the batched
:func:`~repro.timeseries.arima.batch_arima_predictions`) or, for
WINMEAN's two ``cumsum`` reads, floats within ~1e-13 of them.

A predictor with no observations yet returns ``initial_prediction``
(default 0.0): the failure detector must always be able to arm a time-out.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.timeseries.arima import (
    FIT_WINDOW,
    INITIAL_FIT,
    ArimaForecaster,
    batch_arima_predictions,
)
from repro.timeseries.base import Forecaster


class Predictor(Forecaster):
    """Base class for delay predictors: a named, resettable forecaster.

    :meth:`observe` returns the fresh forecast and stores it;
    :meth:`predict` returns the stored one.  A subclass implements two
    hooks: ``_observe(value)`` absorbs a validated delay and returns the
    forecast of the next one, and ``_reset()`` forgets its state.
    """

    #: Short name used in detector identifiers (e.g. ``"Last"``).
    name: str = "Predictor"

    def __init__(self, initial_prediction: float = 0.0) -> None:
        self._initial_prediction = float(initial_prediction)
        self._observations = 0
        self._prediction = self._initial_prediction

    @property
    def observations(self) -> int:
        """How many delays have been observed."""
        return self._observations

    def observe(self, value: float) -> float:
        """Feed one observed delay (seconds); return the forecast of the
        next one, which :meth:`predict` returns from now on."""
        if not math.isfinite(value):
            raise ValueError(f"observed delay must be finite, got {value!r}")
        self._observations += 1
        self._prediction = prediction = self._observe(float(value))
        return prediction

    def predict(self) -> float:
        """Forecast the next delay (seconds): ``initial_prediction`` before
        the first observation, else what the last :meth:`observe` returned."""
        return self._prediction

    def reset(self) -> None:
        """Forget all observations."""
        self._observations = 0
        self._prediction = self._initial_prediction
        self._reset()

    @classmethod
    def forecast_many(cls, observations: "np.ndarray", **params) -> "np.ndarray":
        """Block form: ``out[k]`` is what :meth:`observe` returns for
        ``observations[k]`` on a fresh ``cls(**params)`` that has observed
        ``observations[:k]`` — the forecast in force after it.

        ``observations`` is a non-empty 1-D float array of finite delays.
        This is that per-observation loop, so every predictor has a block
        form; an override computes the same forecasts with array
        operations and takes the constructor parameters that shape them.
        """
        observe = cls(**params).observe
        return np.array([observe(value) for value in observations.tolist()])

    # Subclass hooks -----------------------------------------------------
    def _observe(self, value: float) -> float:
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(observations={self._observations})"


class LastPredictor(Predictor):
    """``pred_{k+1} = obs_n`` — the last observation."""

    name = "Last"

    def __init__(self, initial_prediction: float = 0.0) -> None:
        super().__init__(initial_prediction)
        self._last = 0.0

    def _observe(self, value: float) -> float:
        self._last = value
        return value

    @classmethod
    def forecast_many(cls, observations: "np.ndarray") -> "np.ndarray":
        return observations.copy()

    def _reset(self) -> None:
        self._last = 0.0


class MeanPredictor(Predictor):
    """``pred_{k+1} = (1/n) * sum(obs)`` — the mean of all observations.

    Maintained as a running sum: O(1) per observation, exact for the run
    lengths used here.
    """

    name = "Mean"

    def __init__(self, initial_prediction: float = 0.0) -> None:
        super().__init__(initial_prediction)
        self._sum = 0.0

    def _observe(self, value: float) -> float:
        self._sum += value
        return self._sum / self._observations

    @classmethod
    def forecast_many(cls, observations: "np.ndarray") -> "np.ndarray":
        return np.cumsum(observations) / np.arange(1, observations.size + 1)

    def _reset(self) -> None:
        self._sum = 0.0


class WinMeanPredictor(Predictor):
    """``pred_{k+1}`` = mean of the last ``N`` observations.

    While fewer than ``N`` observations exist, WINMEAN(N) equals MEAN, as
    specified in the paper.  The paper's instance uses ``N = 10``.
    """

    name = "WinMean"

    def __init__(self, window: int = 10, initial_prediction: float = 0.0) -> None:
        super().__init__(initial_prediction)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._buffer: Deque[float] = deque(maxlen=self.window)
        self._window_sum = 0.0

    def _observe(self, value: float) -> float:
        if len(self._buffer) == self.window:
            self._window_sum -= self._buffer[0]
        self._buffer.append(value)
        self._window_sum += value
        return self._window_sum / len(self._buffer)

    @classmethod
    def forecast_many(
        cls, observations: "np.ndarray", window: int = 10
    ) -> "np.ndarray":
        # A sliding-window sum from two cumsum reads: within ~1e-13 of the
        # ring buffer's running sum, not bit for bit.
        n = observations.size
        cs = np.cumsum(observations)
        out = np.empty(n)
        head = min(window, n)
        out[:head] = cs[:head] / np.arange(1, head + 1)
        if n > window:
            out[window:] = (cs[window:] - cs[:-window]) / float(window)
        return out

    def _reset(self) -> None:
        self._buffer.clear()
        self._window_sum = 0.0


def _seeded_ewma(values: "np.ndarray", gain: float) -> "np.ndarray":
    """``out[0] = v[0]; out[k] = out[k-1] + gain*(v[k] - out[k-1])``.

    The recurrence is inherently sequential, so this is an explicit O(n)
    loop — but over a plain float list, without any per-observation object
    dispatch, it is still an order of magnitude faster than the class
    path, and it performs *bit-identical* operations to the scalar
    :class:`LpfPredictor` / :class:`~repro.fd.safety.JacobsonMargin`
    recurrences.
    """
    items = iter(values.tolist())
    acc = next(items)
    out = [acc]
    append = out.append
    for value in items:
        acc += gain * (value - acc)
        append(acc)
    return np.array(out)


class LpfPredictor(Predictor):
    """Exponential smoothing (low-pass filter).

    ``pred_{k+1} = pred_k + beta * (obs_n − pred_k)
                 = (1 − beta) pred_k + beta obs_n``

    The paper's instance uses ``beta = 1/8`` (the classic TCP smoothed-RTT
    gain).  The filter is seeded with the first observation.
    """

    name = "LPF"

    def __init__(self, beta: float = 0.125, initial_prediction: float = 0.0) -> None:
        super().__init__(initial_prediction)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta!r}")
        self.beta = float(beta)
        self._estimate: Optional[float] = None

    def _observe(self, value: float) -> float:
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate += self.beta * (value - self._estimate)
        return self._estimate

    @classmethod
    def forecast_many(
        cls, observations: "np.ndarray", beta: float = 0.125
    ) -> "np.ndarray":
        return _seeded_ewma(observations, beta)

    def _reset(self) -> None:
        self._estimate = None


class ArimaPredictor(Predictor):
    """ARIMA(p, d, q) prediction via the time-series substrate.

    The paper's instance is ARIMA(2, 1, 1) with coefficients re-estimated
    every ``N_arima = 1000`` observations.  Before the first fit the
    underlying forecaster predicts the last value, so the detector is
    usable from the first heartbeat.
    """

    name = "Arima"

    def __init__(
        self,
        p: int = 2,
        d: int = 1,
        q: int = 1,
        *,
        refit_interval: int = 1000,
        initial_fit: int = INITIAL_FIT,
        fit_window: int = FIT_WINDOW,
        initial_prediction: float = 0.0,
    ) -> None:
        super().__init__(initial_prediction)
        self._forecaster = ArimaForecaster(
            p,
            d,
            q,
            refit_interval=refit_interval,
            initial_fit=initial_fit,
            fit_window=fit_window,
        )

    @property
    def forecaster(self) -> ArimaForecaster:
        """The underlying online ARIMA forecaster."""
        return self._forecaster

    @property
    def order(self) -> tuple:
        """The (p, d, q) order."""
        return (self._forecaster.p, self._forecaster.d, self._forecaster.q)

    def _observe(self, value: float) -> float:
        forecaster = self._forecaster
        forecaster.observe(value)
        return forecaster.predict()

    @classmethod
    def forecast_many(
        cls,
        observations: "np.ndarray",
        p: int = 2,
        d: int = 1,
        q: int = 1,
        *,
        refit_interval: int = 1000,
        initial_fit: int = INITIAL_FIT,
        fit_window: int = FIT_WINDOW,
    ) -> "np.ndarray":
        return batch_arima_predictions(
            observations,
            p,
            d,
            q,
            refit_interval=refit_interval,
            initial_fit=initial_fit,
            fit_window=fit_window,
        )

    def _reset(self) -> None:
        self._forecaster.reset()


__all__ = [
    "ArimaPredictor",
    "LastPredictor",
    "LpfPredictor",
    "MeanPredictor",
    "Predictor",
    "WinMeanPredictor",
]
