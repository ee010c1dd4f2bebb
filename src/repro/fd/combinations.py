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

from typing import Dict, Iterator, List, Tuple

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

#: Predictor names in the paper's plotting order.
PREDICTOR_NAMES: Tuple[str, ...] = ("Arima", "Last", "LPF", "Mean", "WinMean")

#: Table 1: each safety-margin name's family and level (gamma for
#: ``"CI"``, phi for ``"JAC"``), in the paper's x-axis order.  The one
#: place a margin name is resolved: :func:`make_margin`, the detector
#: layer and the replay kernel read it by subscript.
MARGIN_LEVELS: Dict[str, Tuple[str, float]] = {
    "CI_low": ("CI", 1.0),
    "CI_med": ("CI", 2.0),
    "CI_high": ("CI", 3.31),
    "JAC_low": ("JAC", 1.0),
    "JAC_med": ("JAC", 2.0),
    "JAC_high": ("JAC", 4.0),
}

#: Safety-margin names in the paper's x-axis order (CI side then JAC side).
MARGIN_NAMES: Tuple[str, ...] = tuple(MARGIN_LEVELS)

#: Table 2 parameter values.
ARIMA_ORDER: Tuple[int, int, int] = (2, 1, 1)
ARIMA_REFIT_INTERVAL: int = 1000
LPF_BETA: float = 1.0 / 8.0
WINMEAN_WINDOW: int = 10
JACOBSON_ALPHA: float = 0.25


def make_predictor(name: str, **overrides) -> Predictor:
    """Build a fresh predictor by paper name.

    ``overrides`` tweak the instance parameters (e.g. ``window=20`` for
    WinMean in ablations); unspecified parameters take the paper's values.
    """
    if name == "Arima":
        p, d, q = overrides.pop("order", ARIMA_ORDER)
        overrides.setdefault("refit_interval", ARIMA_REFIT_INTERVAL)
        return ArimaPredictor(p, d, q, **overrides)
    if name == "Last":
        return LastPredictor(**overrides)
    if name == "LPF":
        overrides.setdefault("beta", LPF_BETA)
        return LpfPredictor(**overrides)
    if name == "Mean":
        return MeanPredictor(**overrides)
    if name == "WinMean":
        overrides.setdefault("window", WINMEAN_WINDOW)
        return WinMeanPredictor(**overrides)
    raise KeyError(f"unknown predictor {name!r}; known: {PREDICTOR_NAMES}")


def make_margin(name: str, **overrides) -> SafetyMargin:
    """Build a fresh safety margin by paper name (e.g. ``"CI_low"``)."""
    if name not in MARGIN_LEVELS:
        raise KeyError(f"unknown margin {name!r}; known: {MARGIN_NAMES}")
    family, level = MARGIN_LEVELS[name]
    margin: SafetyMargin
    if family == "CI":
        overrides.setdefault("gamma", level)
        margin = ConfidenceIntervalMargin(**overrides)
    else:
        overrides.setdefault("phi", level)
        overrides.setdefault("alpha", JACOBSON_ALPHA)
        margin = JacobsonMargin(**overrides)
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
    "ARIMA_ORDER",
    "ARIMA_REFIT_INTERVAL",
    "JACOBSON_ALPHA",
    "LPF_BETA",
    "MARGIN_LEVELS",
    "MARGIN_NAMES",
    "PREDICTOR_NAMES",
    "WINMEAN_WINDOW",
    "all_combinations",
    "combination_ids",
    "make_margin",
    "make_predictor",
    "make_strategy",
    "parse_combination_id",
]
