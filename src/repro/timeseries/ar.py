"""Autoregressive model fitting.

:func:`fit_ar_ols` fits AR(p) coefficients by conditional least squares
with an intercept; it is the stage-1 "long AR" of the Hannan–Rissanen
ARMA estimator.

Model convention used throughout the package::

    z_t = c + phi_1 z_{t-1} + ... + phi_p z_{t-p} + a_t
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _validate_series(series, order: int, minimum: int) -> np.ndarray:
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {values.shape}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if values.size < minimum:
        raise ValueError(
            f"series too short for AR({order}): need >= {minimum}, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    return values


def fit_ar_ols(series, order: int) -> Tuple[np.ndarray, float, np.ndarray]:
    """Fit AR(p) with intercept by conditional least squares.

    Returns ``(phi, intercept, residuals)``; ``residuals`` has length
    ``len(series) - order`` and corresponds to ``series[order:]``.
    """
    values = _validate_series(series, order, minimum=max(2 * order + 2, order + 2, 2))
    n = values.size
    if order == 0:
        mean = float(np.mean(values))
        return np.zeros(0), mean, values - mean
    rows = n - order
    design = np.empty((rows, order + 1))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = values[order - lag : n - lag]
    target = values[order:]
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    intercept = float(solution[0])
    phi = solution[1:]
    residuals = target - design @ solution
    return phi, intercept, residuals


__all__ = ["fit_ar_ols"]
