"""repro — reproduction of Falai & Bondavalli, "Experimental Evaluation of
the QoS of Failure Detectors on Wide Area Network" (DSN 2005).

The package implements the paper's modular adaptive push-style failure
detector (5 predictors × 6 safety margins = 30 combinations), every
substrate it runs on (a Neko-style protocol framework, a discrete-event
simulator, calibrated WAN models, an ARIMA forecasting library, NTP-style
clock synchronisation) and the full experimental methodology (NekoStat-style
event-based QoS extraction: T_D, T_D^U, T_M, T_MR, P_A).

Quick start::

    from repro import ExperimentConfig, run_qos_experiment

    config = ExperimentConfig(num_cycles=2000, mttc=120.0, ttr=20.0)
    result = run_qos_experiment(config, ["Last+JAC_med", "Mean+CI_low"])
    for detector_id, qos in result.qos.items():
        print(detector_id, qos.t_d.mean if qos.t_d else None, qos.p_a)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.neko.config import ExperimentConfig
from repro.experiments.runner import (
    AggregatedQos,
    QosRunResult,
    aggregate_runs,
    run_qos_experiment,
    run_repetitions,
)
from repro.experiments.qos import figure_data
from repro.experiments.accuracy import (
    collect_delay_trace,
    predictor_accuracy,
    rank_predictors,
)
from repro.experiments.characterize import characterize_profile
from repro.fd.combinations import (
    MARGIN_NAMES,
    PREDICTOR_NAMES,
    all_combinations,
    combination_ids,
    make_margin,
    make_predictor,
    make_strategy,
)
from repro.fd.detector import PushFailureDetector
from repro.fd.requirements import QosRequirements, configure
from repro.fd.timeout import TimeoutStrategy
from repro.net.wan import get_profile, italy_japan_profile, lan_profile, mobile_profile

__version__ = "1.30.0"

__all__ = [
    "AggregatedQos",
    "ExperimentConfig",
    "MARGIN_NAMES",
    "PREDICTOR_NAMES",
    "PushFailureDetector",
    "QosRequirements",
    "QosRunResult",
    "TimeoutStrategy",
    "configure",
    "__version__",
    "aggregate_runs",
    "all_combinations",
    "characterize_profile",
    "collect_delay_trace",
    "combination_ids",
    "figure_data",
    "get_profile",
    "italy_japan_profile",
    "lan_profile",
    "make_margin",
    "make_predictor",
    "make_strategy",
    "mobile_profile",
    "predictor_accuracy",
    "rank_predictors",
    "run_qos_experiment",
    "run_repetitions",
]
