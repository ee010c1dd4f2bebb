"""Equivalence tests for the replay-backed campaign engine.

``engine="replay"`` must be a drop-in for the event-driven simulator on
crash-free configurations: same synthesized traces (identical random
stream consumption), same per-detector QoS samples, same link counters,
same pooled aggregates — for all 30 paper combinations.  A hypothesis
property sweeps the configuration space; deterministic tests pin the
refusal paths (crashes inside the horizon, clock error, unsupported
combinations) and the process-pool composition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.replay_engine import (
    run_qos_replay,
    run_repetitions_replay,
    synthesize_heartbeat_trace,
)
from repro.experiments.runner import (
    QosRunSummary,
    aggregate_runs,
    run_qos_experiment,
    run_repetitions,
)
from repro.fd.combinations import combination_ids
from repro.neko.config import ExperimentConfig
from repro.net.wan import PROFILES

from tests.conftest import examples

TOLERANCE = 1e-9

#: Every combination, including the six batched-ARIMA ones.
ALL_IDS = combination_ids()


def crash_free_config(**overrides) -> ExperimentConfig:
    """A config whose first SimCrash draw always lands past the horizon.

    The draw is uniform in [mttc/2, 3 mttc/2], so mttc > 2 x duration
    guarantees crash-freeness for every seed.
    """
    params = dict(
        num_cycles=1200,
        ttr=20.0,
        eta=1.0,
        profile_name="italy-japan",
        seed=7,
    )
    params.update(overrides)
    duration = params["num_cycles"] * params["eta"]
    return ExperimentConfig(mttc=2.5 * duration, **params)


def assert_summaries_equivalent(sim, rep):
    """One simulator result == one replay summary, field for field."""
    assert rep.heartbeats_sent == sim.heartbeats_sent
    assert rep.heartbeats_delivered == sim.heartbeats_delivered
    assert rep.link_loss_rate == pytest.approx(sim.link_loss_rate, abs=1e-12)
    assert rep.crashes == sim.crashes == 0
    assert set(rep.qos) == set(sim.qos)
    for detector_id, expected in sim.qos.items():
        actual = rep.qos[detector_id]
        assert actual.detector == expected.detector
        assert actual.td_samples == expected.td_samples == []
        assert actual.undetected_crashes == expected.undetected_crashes == 0
        assert actual.up_time == pytest.approx(expected.up_time, abs=TOLERANCE)
        assert len(actual.mistakes) == len(expected.mistakes), detector_id
        for got, want in zip(actual.mistakes, expected.mistakes):
            assert got.start == pytest.approx(want.start, abs=TOLERANCE)
            assert got.end == pytest.approx(want.end, abs=TOLERANCE)
        np.testing.assert_allclose(
            actual.tmr_samples, expected.tmr_samples, rtol=0, atol=TOLERANCE
        )
        assert actual.suspected_up_time == pytest.approx(
            expected.suspected_up_time, abs=1e-6
        )


class TestTraceSynthesis:
    def test_matches_simulator_link_counters(self):
        for profile_name in sorted(PROFILES):
            config = crash_free_config(
                num_cycles=2000, seed=3, profile_name=profile_name
            )
            trace = synthesize_heartbeat_trace(config)
            result = run_qos_experiment(config, ["Last+JAC_med"])
            assert trace.heartbeats_sent == result.heartbeats_sent
            assert trace.heartbeats_delivered == result.heartbeats_delivered
            assert trace.loss_rate == pytest.approx(
                result.link_loss_rate, abs=1e-12
            ), profile_name

    def test_sends_num_cycles_plus_one(self):
        config = crash_free_config(num_cycles=500)
        trace = synthesize_heartbeat_trace(config)
        assert trace.heartbeats_sent == 501
        np.testing.assert_array_equal(
            trace.send_times, np.arange(501) * config.eta
        )

    def test_lost_heartbeats_have_no_delay_draw(self):
        config = crash_free_config(num_cycles=5000, seed=1)
        trace = synthesize_heartbeat_trace(config)
        assert np.all(np.isnan(trace.delays[trace.lost]))
        assert np.all(np.isfinite(trace.delays[~trace.lost]))

    def test_crash_inside_horizon_rejected(self):
        config = ExperimentConfig(
            num_cycles=2000, mttc=120.0, ttr=20.0, eta=1.0, seed=2005
        )
        with pytest.raises(ValueError, match="crash-free"):
            synthesize_heartbeat_trace(config)

    def test_clock_error_rejected(self):
        config = crash_free_config(clock_drift=1e-5)
        with pytest.raises(ValueError, match="perfect clocks"):
            synthesize_heartbeat_trace(config)


class TestEngineEquivalence:
    def test_all_thirty_combinations_one_run(self):
        config = crash_free_config(num_cycles=2500, seed=11)
        sim = QosRunSummary.from_result(run_qos_experiment(config, ALL_IDS))
        rep = run_qos_replay(config, ALL_IDS)
        assert_summaries_equivalent(sim, rep)

    @settings(max_examples=examples(5), deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_cycles=st.integers(min_value=300, max_value=1500),
        eta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_property_pooled_qos_matches(self, seed, num_cycles, eta):
        # Every profile per example: lan runs the default loss and delay
        # loops, mobile Gilbert–Elliott under
        # SpikeOverlay(LognormalDelay), italy-japan the flat sampler.
        for profile_name in sorted(PROFILES):
            config = crash_free_config(
                num_cycles=num_cycles, eta=eta, seed=seed, profile_name=profile_name
            )
            sim = run_repetitions(config, 1, ALL_IDS)
            rep = run_repetitions(config, 1, ALL_IDS, engine="replay")
            pooled_sim = aggregate_runs(sim)
            pooled_rep = aggregate_runs(rep)
            assert set(pooled_sim) == set(pooled_rep) == set(ALL_IDS)
            for detector_id in ALL_IDS:
                expected = pooled_sim[detector_id]
                actual = pooled_rep[detector_id]
                assert len(actual.tm_samples) == len(expected.tm_samples)
                np.testing.assert_allclose(
                    actual.tm_samples, expected.tm_samples, rtol=0, atol=TOLERANCE
                )
                np.testing.assert_allclose(
                    actual.tmr_samples, expected.tmr_samples, rtol=0, atol=TOLERANCE
                )
                assert actual.p_a == pytest.approx(expected.p_a, abs=1e-9)
                assert actual.empirical_p_a == pytest.approx(
                    expected.empirical_p_a, abs=1e-9
                )

    def test_run_repetitions_seeding_matches_serial(self):
        config = crash_free_config(num_cycles=600, seed=21)
        serial = run_repetitions_replay(config, 3)
        via_engine = run_repetitions(config, 3, engine="replay")
        assert [r.config.seed for r in serial] == [
            r.config.seed for r in via_engine
        ]
        for a, b in zip(serial, via_engine):
            assert_summaries_equivalent(a, b)


class TestWorkersComposition:
    def test_parallel_equals_serial(self):
        config = crash_free_config(num_cycles=800, seed=5)
        detectors = ["Arima+CI_med", "Last+JAC_med", "WinMean+CI_high"]
        serial = run_repetitions_replay(config, 3, detectors, workers=1)
        pooled = run_repetitions_replay(config, 3, detectors, workers=2)
        for a, b in zip(serial, pooled):
            assert_summaries_equivalent(a, b)


class TestRefusals:
    def test_unknown_engine_rejected(self):
        config = crash_free_config()
        with pytest.raises(ValueError, match="engine"):
            run_repetitions(config, 1, engine="warp-drive")

    def test_build_kwargs_rejected_on_replay(self):
        config = crash_free_config()
        with pytest.raises(ValueError, match="build_kwargs"):
            run_repetitions(
                config, 1, engine="replay", record_events=True
            )

    def test_unsupported_combination_rejected(self):
        config = crash_free_config()
        with pytest.raises(ValueError, match="unknown margin"):
            run_qos_replay(config, ["Last+nope"])
