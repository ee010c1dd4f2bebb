"""Determinism tests for the parallel campaign runner.

The parallel runner is only acceptable if it is *invisible* in the
numbers: fanning the repetitions of a campaign over worker processes must
produce byte-identical pooled QoS to the serial loop, because every run's
seed is derived from the run index (``ExperimentConfig.with_run``), not
from any shared mutable state.
"""

import struct

import pytest

from repro.experiments.parallel import (
    default_workers,
    parallel_map,
    resolve_workers,
    run_repetitions_parallel,
)
from repro.experiments.runner import (
    QosRunSummary,
    aggregate_runs,
    run_qos_experiment,
    run_repetitions,
)
from repro.experiments.sweep import sweep_eta
from repro.neko.config import ExperimentConfig

DETECTORS = ["Last+JAC_med", "Mean+CI_med", "Arima+CI_low"]

CONFIG = ExperimentConfig(
    num_cycles=1200,
    mttc=60.0,
    ttr=10.0,
    eta=1.0,
    profile_name="italy-japan",
    seed=7,
)


def _pooled_bytes(qos):
    """One detector's pooled samples and totals, floats as IEEE bytes."""
    floats = [
        *qos.td_samples, *qos.tm_samples, *qos.tmr_samples,
        qos.up_time, qos.suspected_up_time,
    ]
    return (
        len(qos.td_samples), len(qos.tm_samples), len(qos.tmr_samples),
        qos.undetected_crashes, struct.pack(f"<{len(floats)}d", *floats),
    )


def _assert_pooled_identical(pooled_a, pooled_b):
    assert set(pooled_a) == set(pooled_b)
    for detector_id in pooled_a:
        assert _pooled_bytes(pooled_a[detector_id]) == _pooled_bytes(
            pooled_b[detector_id]
        )


class TestHelpers:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == default_workers()
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_parallel_map_preserves_order(self):
        payloads = list(range(20))
        assert parallel_map(_square, payloads, workers=2) == [
            p * p for p in payloads
        ]

    def test_parallel_map_inline_for_single_worker(self):
        assert parallel_map(_square, [3, 4], workers=1) == [9, 16]

    def test_summary_strips_event_log(self):
        result = run_qos_experiment(
            CONFIG.with_run(0), DETECTORS
        )
        summary = QosRunSummary.from_result(result)
        assert summary.qos is result.qos
        assert summary.heartbeats_sent == result.heartbeats_sent
        assert summary.crashes == result.crashes
        assert not hasattr(summary, "event_log")


class TestRunRepetitions:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_repetitions(CONFIG, 2, DETECTORS, workers=1)
        parallel = run_repetitions(CONFIG, 2, DETECTORS, workers=2)
        assert all(isinstance(r, QosRunSummary) for r in parallel)
        _assert_pooled_identical(aggregate_runs(serial), aggregate_runs(parallel))

    def test_run_order_is_preserved(self):
        results = run_repetitions_parallel(CONFIG, 3, DETECTORS, workers=2)
        assert [r.config.seed for r in results] == [
            CONFIG.with_run(k).seed for k in range(3)
        ]

    def test_build_kwargs_rejected_on_parallel_path(self):
        with pytest.raises(ValueError, match="build_kwargs"):
            run_repetitions(
                CONFIG, 2, DETECTORS, workers=2, record_events=True
            )

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            run_repetitions_parallel(CONFIG, 2, DETECTORS, workers=0)
        with pytest.raises(ValueError):
            run_repetitions(CONFIG, 0, DETECTORS)


class TestSweepWorkers:
    def test_sweep_eta_parallel_matches_serial(self):
        base = ExperimentConfig(
            num_cycles=800, mttc=60.0, ttr=10.0, eta=1.0,
            profile_name="italy-japan", seed=3,
        )
        etas = [0.5, 1.0]
        serial = sweep_eta(
            base, etas, predictor_name="Last", margin_name="JAC_med", workers=1
        )
        parallel = sweep_eta(
            base, etas, predictor_name="Last", margin_name="JAC_med", workers=2
        )
        assert serial == parallel  # frozen dataclasses: field-wise equality
        assert [p.value for p in parallel] == etas


def _square(x):
    """Module-level so it pickles into pool workers."""
    return x * x
