"""ARIMA(p, d, q) online forecasting.

An ARIMA(p, d, q) process is an ARMA(p, q) process on the ``d``-times
differenced series.  :class:`ArimaForecaster` packages that for online use
by the failure detector:

* observations arrive one at a time (heartbeat delays);
* the ARMA coefficients are re-estimated every ``refit_interval``
  observations — the paper's ``N_arima = 1000`` — on a sliding window, so
  the model "can adapt to the variable condition of the network";
* between refits, one-step forecasts use the fitted coefficients with the
  running innovation state;
* before the first fit (or if fitting ever fails), the forecaster degrades
  to last-value prediction, so the failure detector it feeds is *always*
  armed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.timeseries.arma import ArmaModel, fit_arma_hannan_rissanen
from repro.timeseries.base import Forecaster

#: The fit schedule beyond the refit interval: the observation count of
#: the first fit, and how many recent observations each fit reads.
INITIAL_FIT = 200
FIT_WINDOW = 4000


def difference(series, d: int) -> np.ndarray:
    """Apply the difference operator ``(1 − B)^d`` to a series."""
    values = np.asarray(series, dtype=float)
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if d >= values.size and d > 0:
        raise ValueError(f"series of length {values.size} cannot be differenced {d} times")
    for _ in range(d):
        values = np.diff(values)
    return values


def undifference_forecast(w_forecast: float, recent_values, d: int) -> float:
    """Invert ``d`` differences: turn a forecast of ``w_{t+1}`` into one of
    ``y_{t+1}`` given the most recent raw values.

    From ``w_{t+1} = (1 − B)^d y_{t+1}``::

        y_{t+1} = w_{t+1} + sum_{k=1..d} (−1)^{k+1} C(d, k) y_{t+1−k}

    ``recent_values[-1]`` must be ``y_t``; at least ``d`` values are needed.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if len(recent_values) < d:
        raise ValueError(f"need at least {d} recent values, got {len(recent_values)}")
    result = float(w_forecast)
    for k in range(1, d + 1):
        # (−1)^{k+1}: positive for odd k.
        sign = 1.0 if k % 2 == 1 else -1.0
        result += sign * math.comb(d, k) * float(recent_values[-k])
    return result


def _filter_innovations(
    w_series: np.ndarray,
    phi: List[float],
    theta: List[float],
    const: float,
    p: int,
    q: int,
) -> np.ndarray:
    """Innovation filter ``a_t = w_t − ŵ_t``, numerically identical to
    :meth:`~repro.timeseries.arma.ArmaModel.innovations`.

    The AR part of every one-step prediction depends only on the observed
    series, so it is pre-computed as shifted array sums (same per-lag
    accumulation order as the scalar loop); only the MA feedback — which
    consumes its own output — runs as an O(n) float recurrence.
    """
    size = w_series.size
    predictions = np.full(size, const)
    for i in range(1, p + 1):
        if i < size:
            predictions[i:] += phi[i - 1] * w_series[:-i]
    if q == 0:
        return w_series - predictions
    w_list = w_series.tolist()
    prediction_list = predictions.tolist()
    # The paper's model has one feedback term.  A general-q loop over
    # lag taps costs this filter a start-up loop and an inner loop per
    # step, which made batch_arima_predictions 13 % slower (docs/
    # performance.md, section 16), so q == 1 keeps its own loop.
    if q == 1 and size:
        theta_1 = theta[0]
        ws, ps = iter(w_list), iter(prediction_list)
        innovation = next(ws) - next(ps)
        out = [innovation]
        append = out.append
        for w, prediction in zip(ws, ps):
            innovation = w - (prediction + theta_1 * innovation)
            append(innovation)
        return np.asarray(out)
    out = [0.0] * size
    for t in range(size):
        prediction = prediction_list[t]
        for j in range(1, q + 1):
            if t - j >= 0:
                prediction += theta[j - 1] * out[t - j]
        out[t] = w_list[t] - prediction
    return np.asarray(out)


def batch_arima_predictions(
    observations,
    p: int = 2,
    d: int = 1,
    q: int = 1,
    *,
    refit_interval: int = 1000,
    initial_fit: int = INITIAL_FIT,
    fit_window: int = FIT_WINDOW,
) -> np.ndarray:
    """Batched ARIMA replay: ``out[k]`` equals ``forecaster.predict()``
    after feeding ``observations[: k + 1]`` to an :class:`ArimaForecaster`
    constructed with the same parameters.

    The refit schedule is honoured exactly — a per-window least-squares
    call at the same observation counts, on the same sliding window, with
    the same failure handling (short series, singular/unstable fits keep
    the previous model; before any successful fit the prediction degrades
    to last-value).  *Between* refits the coefficients are frozen, so the
    AR part of every one-step forecast and the final undifferencing are
    plain shifted-array operations over the differenced series; only the
    MA innovation feedback remains an O(n) float recurrence (the
    pattern of :func:`~repro.fd.predictors._seeded_ewma`).  All operations are
    performed in the scalar path's association order, so agreement is
    bitwise in practice, not merely within tolerance.
    """
    if min(p, d, q) < 0:
        raise ValueError(f"orders must be >= 0, got ({p}, {d}, {q})")
    if refit_interval <= 0:
        raise ValueError(f"refit_interval must be > 0, got {refit_interval}")
    if initial_fit <= max(p, q, d) + 1:
        raise ValueError(
            f"initial_fit must exceed the model order, got {initial_fit}"
        )
    if fit_window < initial_fit:
        raise ValueError("fit_window must be >= initial_fit")
    x = np.asarray(observations, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observations must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    n = x.size
    wd = x
    for _ in range(d):
        wd = np.diff(wd)  # wd[i] == w at raw index i + d; differencing is local

    predictions = np.empty(n)
    window_raw = fit_window + d + 1
    max_a = max(q, 1)
    fitted = False
    const_f = 0.0
    phi_f: List[float] = []
    theta_f: List[float] = []
    a_hist: List[float] = []
    w_forecast = 0.0  # cached ŵ_{t+1}, i.e. _last_w_forecast

    def attempt_fit(t: int) -> Optional[np.ndarray]:
        """Try a refit at observation index ``t`` (count ``t + 1``);
        adopt the model and return the fit window on success."""
        nonlocal fitted, const_f, phi_f, theta_f, a_hist
        start = max(0, t + 1 - window_raw)
        w_series = wd[start : t + 1 - d]
        if w_series.size < initial_fit - d:
            return None
        try:
            model = fit_arma_hannan_rissanen(w_series, p, q)
        except (ValueError, np.linalg.LinAlgError):
            return None
        if not model.is_stationary():
            return None
        fitted = True
        const_f = float(model.const)
        phi_f = [float(value) for value in model.phi]
        theta_f = [float(value) for value in model.theta]
        innovations = _filter_innovations(w_series, phi_f, theta_f, const_f, p, q)
        a_hist = [float(value) for value in innovations[-max_a:]]
        return w_series

    def forecast_after(t: int) -> float:
        """``forecast_one`` on the running state, zero-padded start-up."""
        forecast = const_f
        for i in range(1, p + 1):
            lag = t + 1 - i - d
            if lag >= 0:
                forecast += phi_f[i - 1] * float(wd[lag])
        available = len(a_hist)
        for j in range(1, q + 1):
            if j <= available:
                forecast += theta_f[j - 1] * a_hist[-j]
        return forecast

    def undifference_at(t: int, value: float) -> float:
        result = float(value)
        for k in range(1, d + 1):
            sign = 1.0 if k % 2 == 1 else -1.0
            result += sign * math.comb(d, k) * float(x[t + 1 - k])
        return result

    # Phase 1: before the first fit attempt, prediction is last-value.
    t = min(initial_fit - 1, n)
    predictions[:t] = x[:t]
    # Phase 2: attempt a fit at every observation until one succeeds
    # (_should_refit returns True while no model exists).
    while t < n and not fitted:
        if attempt_fit(t) is None:
            predictions[t] = x[t]
            t += 1
        else:
            w_forecast = forecast_after(t)
            predictions[t] = undifference_at(t, w_forecast)
            t += 1

    # Phase 3: frozen-coefficient segments between scheduled refits.
    while t < n:
        # Next observation whose count is a refit_interval multiple.
        next_refit = -(-(t + 1) // refit_interval) * refit_interval - 1
        end = min(next_refit, n)
        if end > t:
            ar_part = np.full(end - t, const_f)
            for i in range(1, p + 1):
                low = t + 1 - i - d
                if low >= 0:
                    ar_part += phi_f[i - 1] * wd[low : low + (end - t)]
                else:
                    pad = -low
                    ar_part[pad:] += phi_f[i - 1] * wd[: end - t - pad]
            forecasts = ar_part.tolist()
            if q > 0:
                # A fit needs more than q points, so a_hist holds q
                # innovations and every lag is available.
                taps = list(zip(theta_f, range(-1, -q - 1, -1)))
                append = a_hist.append
                for offset, w in enumerate(wd[t - d : end - d].tolist()):
                    append(w - w_forecast)
                    w_forecast = forecasts[offset]
                    for theta_j, lag in taps:
                        w_forecast += theta_j * a_hist[lag]
                    forecasts[offset] = w_forecast
                a_hist = a_hist[-max_a:]
            else:
                w_forecast = forecasts[-1]
            segment = np.asarray(forecasts)
            for k in range(1, d + 1):
                sign = 1.0 if k % 2 == 1 else -1.0
                segment += sign * math.comb(d, k) * x[t + 1 - k : end + 1 - k]
            predictions[t:end] = segment
            t = end
        if t < n:
            # The refit observation: innovation with the old state first
            # (discarded on success by the rebuild, kept on failure), then
            # the least-squares call, then the forecast.
            a_hist.append(float(wd[t - d]) - w_forecast)
            if len(a_hist) > max_a:
                a_hist.pop(0)
            attempt_fit(t)
            w_forecast = forecast_after(t)
            predictions[t] = undifference_at(t, w_forecast)
            t += 1
    return predictions


class ArimaForecaster(Forecaster):
    """Online ARIMA(p, d, q) with periodic refitting.

    Parameters
    ----------
    p, d, q:
        Model orders.  The paper's selected model is (2, 1, 1).
    refit_interval:
        Re-estimate coefficients every this many observations
        (paper: ``N_arima = 1000``).
    initial_fit:
        Observation count at which the first fit is attempted; before
        that, prediction degrades to last-value.
    fit_window:
        Number of most recent observations used for each fit.  Bounds the
        refit cost on arbitrarily long runs.
    """

    def __init__(
        self,
        p: int,
        d: int,
        q: int,
        *,
        refit_interval: int = 1000,
        initial_fit: int = INITIAL_FIT,
        fit_window: int = FIT_WINDOW,
    ) -> None:
        if min(p, d, q) < 0:
            raise ValueError(f"orders must be >= 0, got ({p}, {d}, {q})")
        if p == 0 and q == 0 and d == 0:
            # Degenerate "white noise around a constant" model is allowed:
            # it predicts the fitted intercept.
            pass
        if refit_interval <= 0:
            raise ValueError(f"refit_interval must be > 0, got {refit_interval}")
        if initial_fit <= max(p, q, d) + 1:
            raise ValueError(
                f"initial_fit must exceed the model order, got {initial_fit}"
            )
        if fit_window < initial_fit:
            raise ValueError("fit_window must be >= initial_fit")
        self.p = int(p)
        self.d = int(d)
        self.q = int(q)
        self._refit_interval = int(refit_interval)
        self._initial_fit = int(initial_fit)
        self._fit_window = int(fit_window)
        self._raw: Deque[float] = deque(maxlen=fit_window + d + 1)
        self._count = 0
        self._model: Optional[ArmaModel] = None
        self._recent_w: Deque[float] = deque(maxlen=max(p, 1))
        self._recent_innovations: Deque[float] = deque(maxlen=max(q, 1))
        self._last_w_forecast: Optional[float] = None
        self.refits = 0
        self.failed_fits = 0

    # ------------------------------------------------------------------
    # Forecaster interface
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value!r}")
        self._raw.append(value)
        self._count += 1
        if len(self._raw) > self.d:
            w = self._current_differenced()
            if self._model is not None:
                forecast = (
                    self._last_w_forecast
                    if self._last_w_forecast is not None
                    else self._model.forecast_one(
                        self._recent_w, self._recent_innovations
                    )
                )
                self._recent_innovations.append(w - forecast)
            self._recent_w.append(w)
            self._last_w_forecast = None
        if self._should_refit():
            self._refit()

    def predict(self) -> float:
        if self._model is None:
            return self._fallback_prediction()
        w_forecast = self._model.forecast_one(
            self._recent_w, self._recent_innovations
        )
        self._last_w_forecast = w_forecast
        if len(self._raw) < self.d:
            return self._fallback_prediction()
        return undifference_forecast(w_forecast, self._raw, self.d)

    def reset(self) -> None:
        self._raw.clear()
        self._count = 0
        self._model = None
        self._recent_w.clear()
        self._recent_innovations.clear()
        self._last_w_forecast = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fallback_prediction(self) -> float:
        return self._raw[-1] if self._raw else 0.0

    def _current_differenced(self) -> float:
        """``w_t`` from the last ``d + 1`` raw values.

        Indexed from the right end of the deque, so the cost does not grow
        with the fit window (up to ``fit_window + d + 1`` values deep).
        Differenced in plain floats: each pass subtracts neighbours exactly
        as ``np.diff`` does, without building an array per observation.
        """
        raw = self._raw
        if self.d == 0:
            return raw[-1]
        if self.d == 1:  # the paper's model: one subtraction
            return raw[-1] - raw[-2]
        values = list(map(raw.__getitem__, range(-(self.d + 1), 0)))
        for _ in range(self.d):
            values = [b - a for a, b in zip(values, values[1:])]
        return values[-1]

    def _should_refit(self) -> bool:
        if self._count < self._initial_fit:
            return False
        if self._model is None:
            return True
        return self._count % self._refit_interval == 0

    def _refit(self) -> None:
        raw = np.asarray(self._raw, dtype=float)
        w_series = difference(raw, self.d)
        if w_series.size < self._initial_fit - self.d:
            return
        try:
            model = fit_arma_hannan_rissanen(w_series, self.p, self.q)
        except (ValueError, np.linalg.LinAlgError):
            self.failed_fits += 1
            return
        if not model.is_stationary():
            # A non-stationary fit would make forecasts diverge between
            # refits; keep the previous model instead.
            self.failed_fits += 1
            return
        self._model = model
        self.refits += 1
        # Rebuild the innovation state consistently with the new model.
        innovations = model.innovations(w_series)
        self._recent_w.clear()
        for value in w_series[-self._recent_w.maxlen:]:
            self._recent_w.append(float(value))
        self._recent_innovations.clear()
        for value in innovations[-self._recent_innovations.maxlen:]:
            self._recent_innovations.append(float(value))
        self._last_w_forecast = None

    @property
    def fitted(self) -> bool:
        """Whether a model has been fitted yet."""
        return self._model is not None

    @property
    def model(self) -> Optional[ArmaModel]:
        """The current fitted ARMA model on the differenced series."""
        return self._model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArimaForecaster(p={self.p}, d={self.d}, q={self.q}, "
            f"fitted={self.fitted}, observations={self._count})"
        )


__all__ = [
    "FIT_WINDOW",
    "INITIAL_FIT",
    "ArimaForecaster",
    "batch_arima_predictions",
    "difference",
    "undifference_forecast",
]
