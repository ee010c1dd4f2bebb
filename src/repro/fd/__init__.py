"""The paper's contribution: a modular adaptive push-style failure detector.

A failure detector is assembled from two pluggable pieces (Section 2.3 of
the paper): a **predictor** that forecasts the transmission delay of the
next heartbeat (:mod:`repro.fd.predictors`) and a **safety margin** added
to the prediction to limit premature time-outs (:mod:`repro.fd.safety`).
The time-out for cycle ``i`` is ``delta_i = pred_i + sm_i`` and the
freshness point is ``tau_i = sigma_i + delta_i`` where ``sigma_i = i*eta``
is the heartbeat send time.

:mod:`repro.fd.combinations` enumerates the paper's 30 combinations
(5 predictors × 6 safety margins); :mod:`repro.fd.baselines` adds the
comparison detectors from the literature (NFD-E, Bertier's detector, a
constant-time-out detector and the φ-accrual detector).
:mod:`repro.fd.replay` evaluates all 30 combinations over recorded delay
traces as vectorized array operations, in one kernel — an order of
magnitude faster than the per-observation class path, and proven
equivalent to it.

The experimental layers — :class:`~repro.fd.heartbeat.Heartbeater`,
:class:`~repro.fd.simcrash.SimCrash` and
:class:`~repro.fd.multiplexer.MultiPlexer` — reproduce the paper's
Figure 3 architecture.  :class:`~repro.fd.detector.PushFailureDetector`
is the one push detector layer: every detector watching one endpoint —
table ids over shared predictor and margin states, and ``(label,
strategy)`` rows for any other :class:`~repro.fd.timeout.TimeoutStrategy`
— with every row's deadline and one timer.
"""

from repro.fd.predictors import (
    ArimaPredictor,
    LastPredictor,
    LpfPredictor,
    MeanPredictor,
    Predictor,
    WinMeanPredictor,
)
from repro.fd.safety import ConfidenceIntervalMargin, JacobsonMargin, SafetyMargin, ConstantMargin
from repro.fd.timeout import TimeoutStrategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.fd.combinations import (
    MARGIN_NAMES,
    PREDICTOR_NAMES,
    all_combinations,
    make_margin,
    make_predictor,
    make_strategy,
)
from repro.fd.analysis import AnalyticQos, ConstantTimeoutAnalysis
from repro.fd.registry import (
    MedianPredictor,
    make_registered_strategy,
    register_margin,
    register_predictor,
)
from repro.fd.replay import DetectorReplay, replay_detector_matrix
from repro.fd.requirements import (
    Configuration,
    QosRequirements,
    UnsatisfiableRequirements,
    configure,
)

__all__ = [
    "AnalyticQos",
    "ArimaPredictor",
    "ConfidenceIntervalMargin",
    "Configuration",
    "ConstantTimeoutAnalysis",
    "MedianPredictor",
    "QosRequirements",
    "UnsatisfiableRequirements",
    "ConstantMargin",
    "DetectorReplay",
    "Heartbeater",
    "JacobsonMargin",
    "LastPredictor",
    "LpfPredictor",
    "MARGIN_NAMES",
    "MeanPredictor",
    "MultiPlexer",
    "PREDICTOR_NAMES",
    "Predictor",
    "PushFailureDetector",
    "SafetyMargin",
    "SimCrash",
    "TimeoutStrategy",
    "WinMeanPredictor",
    "all_combinations",
    "make_margin",
    "make_predictor",
    "configure",
    "make_registered_strategy",
    "make_strategy",
    "register_margin",
    "register_predictor",
    "replay_detector_matrix",
]
