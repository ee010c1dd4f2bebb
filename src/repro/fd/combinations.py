"""The paper's 30 failure-detector combinations (Tables 1 and 2).

Five predictors × six safety margins:

=========  =======================================
Predictor  Parameters (paper Table 2)
=========  =======================================
Arima      ARIMA(2, 1, 1), refit every 1000 obs
Last       —
LPF        beta = 1/8
Mean       —
WinMean    N = 10
=========  =======================================

=========  ==========================
Margin     Parameter (paper Table 1)
=========  ==========================
CI_low     gamma = 1
CI_med     gamma = 2
CI_high    gamma = 3.31
JAC_low    phi = 1 (alpha = 1/4)
JAC_med    phi = 2
JAC_high   phi = 4
=========  ==========================

Detector identifiers are ``"<Predictor>+<Margin>"``, e.g. ``"Arima+CI_low"``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple, Type

from repro.fd.predictors import (
    ArimaPredictor,
    LastPredictor,
    LpfPredictor,
    MeanPredictor,
    Predictor,
    WinMeanPredictor,
)
from repro.fd.safety import ConfidenceIntervalMargin, JacobsonMargin, SafetyMargin
from repro.fd.timeout import TimeoutStrategy

#: Table 2: each predictor name's class and parameters, in the paper's
#: plotting order.  The one place a predictor name resolves:
#: :func:`make_predictor` (and through it the detector layer) builds
#: ``cls(**params)``, the replay calls ``cls.forecast_many(x, **params)``.
PREDICTORS: Dict[str, Tuple[Type[Predictor], Dict[str, Any]]] = {
    "Arima": (ArimaPredictor, {"p": 2, "d": 1, "q": 1, "refit_interval": 1000}),
    "Last": (LastPredictor, {}),
    "LPF": (LpfPredictor, {"beta": 1.0 / 8.0}),
    "Mean": (MeanPredictor, {}),
    "WinMean": (WinMeanPredictor, {"window": 10}),
}

#: Predictor names in the paper's plotting order.
PREDICTOR_NAMES: Tuple[str, ...] = tuple(PREDICTORS)

#: Table 1: each safety-margin name's class and level (gamma for
#: ``SM_CI``, phi for ``SM_JAC``, whose alpha is the class default 1/4), in
#: the paper's x-axis order.  The one place a margin name resolves:
#: :func:`make_margin` builds ``cls(level)``, the detector layer and the
#: replay scale the class's shared state by the level.
MARGINS: Dict[str, Tuple[Type[SafetyMargin], float]] = {
    "CI_low": (ConfidenceIntervalMargin, 1.0),
    "CI_med": (ConfidenceIntervalMargin, 2.0),
    "CI_high": (ConfidenceIntervalMargin, 3.31),
    "JAC_low": (JacobsonMargin, 1.0),
    "JAC_med": (JacobsonMargin, 2.0),
    "JAC_high": (JacobsonMargin, 4.0),
}

#: Safety-margin names in the paper's x-axis order (CI side then JAC side).
MARGIN_NAMES: Tuple[str, ...] = tuple(MARGINS)


def make_predictor(name: str, **overrides) -> Predictor:
    """Build a fresh predictor by paper name.

    ``overrides`` tweak the instance parameters (e.g. ``window=20`` for
    WinMean in ablations); unspecified parameters take the paper's values.
    """
    if name not in PREDICTORS:
        raise KeyError(f"unknown predictor {name!r}; known: {PREDICTOR_NAMES}")
    cls, params = PREDICTORS[name]
    return cls(**{**params, **overrides})


def make_margin(name: str, **overrides) -> SafetyMargin:
    """Build a fresh safety margin by paper name (e.g. ``"CI_low"``)."""
    if name not in MARGINS:
        raise KeyError(f"unknown margin {name!r}; known: {MARGIN_NAMES}")
    cls, level = MARGINS[name]
    margin = cls(level, **overrides)
    margin.name = name
    return margin


def make_strategy(predictor_name: str, margin_name: str) -> TimeoutStrategy:
    """Build the time-out strategy for one paper combination."""
    return TimeoutStrategy(
        make_predictor(predictor_name),
        make_margin(margin_name),
        name=f"{predictor_name}+{margin_name}",
    )


def combination_ids() -> List[str]:
    """The 30 detector identifiers, predictor-major order."""
    return [
        f"{predictor}+{margin}"
        for predictor in PREDICTOR_NAMES
        for margin in MARGIN_NAMES
    ]


def all_combinations() -> Iterator[Tuple[str, str, str]]:
    """Yield ``(detector_id, predictor_name, margin_name)`` for all 30."""
    for predictor in PREDICTOR_NAMES:
        for margin in MARGIN_NAMES:
            yield f"{predictor}+{margin}", predictor, margin


def parse_combination_id(detector_id: str) -> Tuple[str, str]:
    """Split ``"Arima+CI_low"`` into ``("Arima", "CI_low")`` with checks."""
    try:
        predictor, margin = detector_id.split("+", 1)
    except ValueError:
        raise ValueError(f"malformed detector id {detector_id!r}") from None
    if predictor not in PREDICTOR_NAMES:
        raise ValueError(f"unknown predictor in id {detector_id!r}")
    if margin not in MARGIN_NAMES:
        raise ValueError(f"unknown margin in id {detector_id!r}")
    return predictor, margin


__all__ = [
    "MARGINS",
    "MARGIN_NAMES",
    "PREDICTORS",
    "PREDICTOR_NAMES",
    "all_combinations",
    "combination_ids",
    "make_margin",
    "make_predictor",
    "make_strategy",
    "parse_combination_id",
]
