"""ARMA estimation and one-step forecasting.

Model convention (note the **plus** sign on the MA part; Box–Jenkins write
``Theta(B) = 1 − theta_1 B − ...``, i.e. their theta is the negation of
ours — the fitted process is identical)::

    z_t = c + sum_i phi_i z_{t-i} + a_t + sum_j theta_j a_{t-j}

Estimation uses the Hannan–Rissanen two-stage procedure:

1. fit a long AR by conditional least squares and take its residuals as
   innovation estimates;
2. regress ``z_t`` on the ``p`` lagged values and ``q`` lagged residual
   estimates (with intercept) to obtain ``phi``, ``theta`` and ``c``.

Hannan–Rissanen is consistent, needs no nonlinear optimisation (important:
the detector refits every 1000 observations at runtime), and is the
standard initialiser even for maximum-likelihood ARMA fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.timeseries.ar import fit_ar_ols


@dataclass(frozen=True)
class ArmaModel:
    """A fitted ARMA(p, q) model.

    ``phi`` are the AR coefficients, ``theta`` the MA coefficients (plus
    convention), ``const`` the intercept and ``noise_variance`` the
    innovation variance estimate.
    """

    phi: np.ndarray
    theta: np.ndarray
    const: float
    noise_variance: float

    # The orders and the float coefficients are computed on first use
    # and kept: innovations() reads the orders per sample, forecast_one()
    # the coefficients per heartbeat.
    @cached_property
    def p(self) -> int:
        """AR order."""
        return int(self.phi.shape[0])

    @cached_property
    def q(self) -> int:
        """MA order."""
        return int(self.theta.shape[0])

    @cached_property
    def _terms(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The AR and MA coefficients as Python floats."""
        return tuple(map(float, self.phi)), tuple(map(float, self.theta))

    def forecast_one(
        self,
        recent_values: Sequence[float],
        recent_innovations: Sequence[float],
    ) -> float:
        """One-step forecast given the most recent values/innovations.

        ``recent_values[-1]`` is the latest observation ``z_t``;
        ``recent_innovations[-1]`` is the latest innovation ``a_t``.
        Histories shorter than the model order are zero-padded on the old
        side (the conditional-sum-of-squares start-up convention).
        """
        ar, ma = self._terms
        forecast = self.const
        for coefficient, value in zip(ar, reversed(recent_values)):
            forecast += coefficient * float(value)
        for coefficient, innovation in zip(ma, reversed(recent_innovations)):
            forecast += coefficient * float(innovation)
        return forecast

    def innovations(self, series: Sequence[float]) -> np.ndarray:
        """Filter a series through the model, returning the innovation
        sequence ``a_t = z_t − ẑ_t`` (zero-padded start-up)."""
        values = np.asarray(series, dtype=float)
        innovations = np.zeros(values.size)
        for t in range(values.size):
            prediction = self.const
            for i in range(1, self.p + 1):
                if t - i >= 0:
                    prediction += float(self.phi[i - 1]) * values[t - i]
            for j in range(1, self.q + 1):
                if t - j >= 0:
                    prediction += float(self.theta[j - 1]) * innovations[t - j]
            innovations[t] = values[t] - prediction
        return innovations

    def is_stationary(self) -> bool:
        """Whether the AR polynomial has all roots outside the unit circle."""
        if self.p == 0:
            return True
        # Companion-matrix eigenvalues of the AR recursion.
        companion = np.zeros((self.p, self.p))
        companion[0, :] = self.phi
        if self.p > 1:
            companion[1:, :-1] = np.eye(self.p - 1)
        eigenvalues = np.linalg.eigvals(companion)
        return bool(np.all(np.abs(eigenvalues) < 1.0))


def fit_arma_hannan_rissanen(
    series,
    p: int,
    q: int,
    *,
    long_ar_order: Optional[int] = None,
) -> ArmaModel:
    """Fit ARMA(p, q) by the Hannan–Rissanen two-stage procedure."""
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {values.shape}")
    if p < 0 or q < 0:
        raise ValueError(f"orders must be >= 0, got p={p}, q={q}")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")

    if q == 0:
        # Pure AR: a single least-squares fit suffices.
        phi, intercept, residuals = fit_ar_ols(values, p)
        variance = float(np.mean(residuals**2)) if residuals.size else 0.0
        return ArmaModel(
            phi=phi, theta=np.zeros(0), const=intercept, noise_variance=variance
        )

    if long_ar_order is None:
        long_ar_order = max(2 * (p + q), 10)
        long_ar_order = min(long_ar_order, max(1, values.size // 4))
    minimum = long_ar_order + max(p, q) + p + q + 2
    if values.size < minimum:
        raise ValueError(
            f"series too short for ARMA({p},{q}) via Hannan-Rissanen: "
            f"need >= {minimum}, got {values.size}"
        )

    # Stage 1: long AR residuals as innovation estimates.
    _, _, stage1_residuals = fit_ar_ols(values, long_ar_order)
    innovations = np.concatenate([np.zeros(long_ar_order), stage1_residuals])

    # Stage 2: regress z_t on lagged z and lagged innovation estimates.
    start = max(p, q, long_ar_order)
    rows = values.size - start
    design = np.empty((rows, 1 + p + q))
    design[:, 0] = 1.0
    for i in range(1, p + 1):
        design[:, i] = values[start - i : values.size - i]
    for j in range(1, q + 1):
        design[:, p + j] = innovations[start - j : values.size - j]
    target = values[start:]
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    const = float(solution[0])
    phi = solution[1 : 1 + p]
    theta = solution[1 + p :]
    residuals = target - design @ solution
    variance = float(np.mean(residuals**2)) if residuals.size else 0.0
    return ArmaModel(phi=phi, theta=theta, const=const, noise_variance=variance)


__all__ = ["ArmaModel", "fit_arma_hannan_rissanen"]
