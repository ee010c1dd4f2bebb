"""Experiment harness: the paper's Section 5 in runnable form.

* :mod:`repro.experiments.runner` — builds the Figure 3 architecture
  (Heartbeater / SimCrash on the monitored side; MultiPlexer feeding all
  detector combinations on the monitor side) from an
  :class:`~repro.neko.config.ExperimentConfig` and runs it.
* :mod:`repro.experiments.accuracy` — Section 5.1: predictor accuracy
  (Table 3) and the ARIMA order selection (Table 2).
* :mod:`repro.experiments.characterize` — Table 4: path characterisation.
* :mod:`repro.experiments.qos` — Section 5.2: the QoS comparison behind
  Figures 4–8.
* :mod:`repro.experiments.report` — ASCII tables/series in the paper's
  layout.
"""

from repro.experiments.runner import (
    AggregatedQos,
    QosRunResult,
    QosRunSummary,
    aggregate_runs,
    build_qos_system,
    run_qos_experiment,
    run_repetitions,
)
from repro.experiments.parallel import (
    default_workers,
    parallel_map,
    run_repetitions_parallel,
)
from repro.experiments.replay_engine import (
    HeartbeatTrace,
    run_qos_replay,
    run_repetitions_replay,
    synthesize_heartbeat_trace,
)
from repro.experiments.accuracy import (
    collect_delay_trace,
    predictor_accuracy,
    rank_predictors,
)
from repro.experiments.characterize import characterize_profile
from repro.experiments.qos import figure_data, qos_metric_value
from repro.experiments.report import (
    format_figure_grid,
    format_predictor_accuracy_table,
    format_qos_report,
    format_wan_table,
)
from repro.experiments.chart import render_figure
from repro.experiments.store import load_campaign, save_campaign
from repro.experiments.sweep import (
    SweepPoint,
    format_sweep,
    sweep_eta,
)

__all__ = [
    "AggregatedQos",
    "HeartbeatTrace",
    "QosRunResult",
    "QosRunSummary",
    "SweepPoint",
    "default_workers",
    "parallel_map",
    "run_repetitions_parallel",
    "aggregate_runs",
    "build_qos_system",
    "characterize_profile",
    "collect_delay_trace",
    "figure_data",
    "format_sweep",
    "load_campaign",
    "render_figure",
    "save_campaign",
    "sweep_eta",
    "format_figure_grid",
    "format_predictor_accuracy_table",
    "format_qos_report",
    "format_wan_table",
    "predictor_accuracy",
    "qos_metric_value",
    "rank_predictors",
    "run_qos_experiment",
    "run_qos_replay",
    "run_repetitions",
    "run_repetitions_replay",
    "synthesize_heartbeat_trace",
]
