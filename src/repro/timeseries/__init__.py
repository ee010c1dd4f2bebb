"""Time-series forecasting substrate (the paper's RPS-toolkit role).

The paper identifies its ARIMA predictor with the RPS resource-prediction
toolkit (Dinda & O'Hallaron).  This package provides the equivalent pieces
from scratch on top of numpy:

* :mod:`repro.timeseries.ar` — autoregressive fitting (OLS);
* :mod:`repro.timeseries.arma` — ARMA estimation via Hannan–Rissanen and
  one-step forecasting with running innovations;
* :mod:`repro.timeseries.arima` — ARIMA(p, d, q): differencing + ARMA,
  with the paper's refit-every-``N_arima`` behaviour;
* :mod:`repro.timeseries.selection` — order selection by one-step mean
  squared prediction error (the paper's ``msqerr`` grid search).
"""

from repro.timeseries.base import Forecaster, evaluate_forecaster
from repro.timeseries.ar import fit_ar_ols
from repro.timeseries.arma import ArmaModel, fit_arma_hannan_rissanen
from repro.timeseries.arima import ArimaForecaster, difference, undifference_forecast
from repro.timeseries.selection import GridSearchResult, select_arima_order

__all__ = [
    "ArimaForecaster",
    "ArmaModel",
    "Forecaster",
    "GridSearchResult",
    "difference",
    "evaluate_forecaster",
    "fit_ar_ols",
    "fit_arma_hannan_rissanen",
    "select_arima_order",
    "undifference_forecast",
]
