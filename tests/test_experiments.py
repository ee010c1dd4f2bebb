"""Tests for the experiment harness: runner, accuracy, characterize, qos, report."""

import math

import pytest

from repro.experiments.accuracy import (
    collect_delay_trace,
    predictor_accuracy,
    rank_predictors,
)
from repro.experiments.characterize import characterize_profile
from repro.experiments.qos import FIGURE_METRICS, figure_data, qos_metric_value
from repro.experiments.report import (
    format_figure_grid,
    format_predictor_accuracy_table,
    format_qos_report,
    format_wan_table,
)
from repro.experiments.runner import (
    aggregate_runs,
    build_qos_system,
    run_qos_experiment,
    run_repetitions,
)
from repro.neko.config import ExperimentConfig
from repro.net.wan import lan_profile


SMALL = ExperimentConfig(num_cycles=400, mttc=60.0, ttr=12.0, seed=3)
DETECTORS = ["Last+JAC_med", "Mean+CI_low"]


class TestRunner:
    def test_build_returns_components(self):
        parts = build_qos_system(SMALL, DETECTORS)
        assert set(parts) >= {
            "sim", "system", "event_log", "heartbeater",
            "simcrash", "multiplexer", "detectors", "link",
        }
        assert set(parts["detectors"]) == set(DETECTORS)

    def test_run_produces_qos_for_each_detector(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        assert set(result.qos) == set(DETECTORS)
        for qos in result.qos.values():
            assert qos.observation_time == SMALL.duration

    def test_crashes_injected(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        assert result.crashes >= 3
        for qos in result.qos.values():
            assert len(qos.td_samples) + qos.undetected_crashes >= result.crashes - 1

    def test_deterministic_given_seed(self):
        a = run_qos_experiment(SMALL, DETECTORS)
        b = run_qos_experiment(SMALL, DETECTORS)
        assert a.crashes == b.crashes
        for detector_id in DETECTORS:
            assert a.qos[detector_id].td_samples == b.qos[detector_id].td_samples

    def test_different_seeds_differ(self):
        a = run_qos_experiment(SMALL, DETECTORS)
        b = run_qos_experiment(SMALL.with_run(1), DETECTORS)
        assert a.qos[DETECTORS[0]].td_samples != b.qos[DETECTORS[0]].td_samples

    def test_all_detectors_see_same_crashes(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        counts = {
            d: len(q.td_samples) + q.undetected_crashes
            for d, q in result.qos.items()
        }
        assert len(set(counts.values())) == 1

    def test_run_repetitions_distinct_seeds(self):
        results = run_repetitions(SMALL, 2, DETECTORS)
        assert len(results) == 2
        assert results[0].config.seed != results[1].config.seed

    def test_run_repetitions_validation(self):
        with pytest.raises(ValueError):
            run_repetitions(SMALL, 0, DETECTORS)

    def test_aggregate_pools_samples(self):
        results = run_repetitions(SMALL, 2, DETECTORS)
        pooled = aggregate_runs(results)
        for detector_id in DETECTORS:
            individual = sum(len(r.qos[detector_id].td_samples) for r in results)
            assert len(pooled[detector_id].td_samples) == individual
            assert pooled[detector_id].up_time == pytest.approx(
                sum(r.qos[detector_id].up_time for r in results)
            )

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_clock_offset_biases_detection(self):
        # A monitor clock ahead of the monitored one inflates measured
        # delays, inflating time-outs; behind deflates them.  Either way
        # the experiment must still run and detect crashes.
        config = ExperimentConfig(
            num_cycles=300, mttc=60.0, ttr=12.0, seed=3, clock_offset=0.05
        )
        result = run_qos_experiment(config, ["Last+JAC_med"])
        assert len(result.qos["Last+JAC_med"].td_samples) >= 2


class TestAccuracyExperiment:
    def test_trace_length_reflects_loss(self):
        trace = collect_delay_trace(count=5000, seed=1)
        assert 4900 <= len(trace) <= 5000  # < 1% loss

    def test_trace_without_loss_is_full_length(self):
        trace = collect_delay_trace(count=1000, seed=1, apply_loss=False)
        assert len(trace) == 1000

    def test_accuracy_returns_all_predictors(self):
        trace = collect_delay_trace(count=3000, seed=1)
        accuracy = predictor_accuracy(trace)
        assert set(accuracy) == {"Arima", "Last", "LPF", "Mean", "WinMean"}
        assert all(v > 0 and math.isfinite(v) for v in accuracy.values())

    def test_rank_sorted_ascending(self):
        ranking = rank_predictors({"a": 3.0, "b": 1.0, "c": 2.0})
        assert [name for name, _ in ranking] == ["b", "c", "a"]

    def test_arima_most_accurate_on_wan_trace(self):
        # The paper's headline Table 3 result.
        trace = collect_delay_trace(count=20000, seed=5)
        ranking = rank_predictors(predictor_accuracy(trace))
        assert ranking[0][0] == "Arima"

    def test_mean_less_accurate_than_windowed(self):
        trace = collect_delay_trace(count=20000, seed=5)
        accuracy = predictor_accuracy(trace)
        assert accuracy["WinMean"] < accuracy["Mean"]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            collect_delay_trace(count=0)


class TestCharacterize:
    def test_italy_japan_table4(self):
        result = characterize_profile(samples=20000, seed=2)
        delay = result.delay_ms()
        assert 195 < delay.mean < 210
        assert 4 < delay.std < 10
        assert delay.minimum >= 192.0
        assert result.hops == 18
        assert 0.0 < result.loss_probability < 0.01

    def test_lan_profile(self):
        result = characterize_profile(lan_profile(), samples=5000)
        assert result.delay_ms().mean < 2.0

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            characterize_profile(samples=1)


class TestFigureData:
    def test_metric_extraction(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        qos = result.qos[DETECTORS[0]]
        assert qos_metric_value(qos, "td") == (
            qos.t_d.mean if qos.t_d else math.nan
        )
        assert qos_metric_value(qos, "pa") == qos.p_a

    def test_unknown_metric_rejected(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        with pytest.raises(KeyError):
            qos_metric_value(result.qos[DETECTORS[0]], "latency")

    def test_figure_data_layout(self):
        result = run_qos_experiment(SMALL, DETECTORS)
        data = figure_data(result.qos, "td")
        assert data["Last"]["JAC_med"] > 0
        assert data["Mean"]["CI_low"] > 0
        assert data["Arima"] == {}  # not in this partial run

    def test_all_figure_metrics_defined(self):
        assert set(FIGURE_METRICS) == {"td", "tdu", "tm", "tmr", "pa"}


class TestReportFormatting:
    def test_accuracy_table_ranks_and_scales(self):
        text = format_predictor_accuracy_table({"Arima": 3e-5, "Last": 5e-5})
        lines = text.splitlines()
        assert "Table 3" in lines[0]
        arima_line = next(l for l in lines if l.startswith("Arima"))
        assert "30.000" in arima_line  # 3e-5 s^2 -> 30 ms^2
        assert lines.index(arima_line) < lines.index(
            next(l for l in lines if l.startswith("Last"))
        )

    def test_wan_table_contains_fields(self):
        result = characterize_profile(samples=2000, seed=0)
        text = format_wan_table(result)
        for field in ["Mean one-way delay", "Standard deviation", "hops",
                      "Loss probability"]:
            assert field.lower() in text.lower()

    def test_figure_grid_layout(self):
        data = {"Last": {"CI_low": 0.5, "JAC_high": 0.7}}
        text = format_figure_grid(data, "T_D")
        assert "500.0" in text and "700.0" in text
        assert "-" in text  # missing cells rendered as dashes

    def test_figure_grid_probability_scale(self):
        data = {"Last": {"CI_low": 0.999}}
        text = format_figure_grid(data, "P_A", unit="", scale=1.0, decimals=3)
        assert "0.999" in text

    def test_qos_report_combines_metrics(self):
        data = {"Last": {"CI_low": 0.5}}
        text = format_qos_report({"td": data, "pa": {"Last": {"CI_low": 0.99}}})
        assert "Figure 4" in text and "Figure 8" in text
