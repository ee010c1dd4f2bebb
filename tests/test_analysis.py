"""Validation of the analytic QoS model against the simulator.

Chen et al. validated their NFD analysis by simulation; here the roles
are reversed — the closed-form predictions of
:class:`repro.fd.analysis.ConstantTimeoutAnalysis` validate the whole
simulation pipeline (engine, links, detector, metric extraction) on
configurations where both are exact.
"""

import math

import numpy as np
import pytest

from repro.fd.analysis import ConstantTimeoutAnalysis
from repro.fd.baselines import constant_timeout_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.net.delay import ShiftedGammaDelay
from repro.net.loss import BernoulliLoss
from repro.sim.engine import Simulator


def simulate(delta, *, duration=20000.0, eta=1.0, loss=0.0,
             crash_schedule=(), seed=3):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    event_log = EventLog()
    system = NekoSystem(sim)
    delay_model = ShiftedGammaDelay(rng, minimum=0.15, shape=2.0, scale=0.02)
    loss_model = BernoulliLoss(np.random.default_rng(seed + 1), loss)
    system.network.set_link("q", "p", delay_model, loss_model, record_delays=False)
    heartbeater = Heartbeater("p", eta, event_log)
    simcrash = SimCrash(100.0, 20.0, None, event_log, schedule=list(crash_schedule))
    system.create_process("q", ProtocolStack([heartbeater, simcrash]))
    detector = PushFailureDetector(
        "q", eta, event_log, [("fd", constant_timeout_strategy(delta))],
        initial_timeout=5.0,
    )
    system.create_process("p", ProtocolStack([detector]))
    system.run(until=duration)
    return extract_qos(event_log, end_time=duration)["fd"]


@pytest.fixture(scope="module")
def analysis():
    rng = np.random.default_rng(3)
    sample = 0.15 + rng.gamma(2.0, 0.02, 200_000)
    return ConstantTimeoutAnalysis(sample, eta=1.0)


class TestAgainstSimulation:
    def test_mistake_recurrence_matches(self, analysis):
        delta = 0.25
        predicted = analysis.predict(delta)
        observed = simulate(delta)
        assert observed.t_mr is not None
        assert observed.t_mr.mean == pytest.approx(
            predicted.mistake_recurrence_mean, rel=0.15
        )

    def test_mistake_duration_matches(self, analysis):
        delta = 0.25
        predicted = analysis.predict(delta)
        observed = simulate(delta)
        assert observed.t_m.mean == pytest.approx(
            predicted.mistake_duration_mean, rel=0.25
        )

    def test_query_accuracy_matches(self, analysis):
        delta = 0.25
        predicted = analysis.predict(delta)
        observed = simulate(delta)
        assert observed.p_a == pytest.approx(predicted.query_accuracy, abs=2e-4)

    def test_detection_time_matches(self, analysis):
        delta = 0.3
        predicted = analysis.predict(delta)
        # Crash phases swept over the heartbeat cycle (k * 0.37 mod 1) so
        # the "uniform crash instant" assumption of the formula holds.
        schedule = [
            (100.0 * k + 50.0 + (k * 0.37) % 1.0,
             100.0 * k + 70.0 + (k * 0.37) % 1.0)
            for k in range(100)
        ]
        observed = simulate(delta, crash_schedule=schedule, duration=10_050.0)
        assert observed.t_d.mean == pytest.approx(
            predicted.detection_time_mean, rel=0.05
        )
        assert observed.t_d_upper <= predicted.detection_time_worst + 1e-6

    def test_loss_dominates_at_large_delta(self, analysis):
        loss = 0.01
        rng = np.random.default_rng(3)
        sample = 0.15 + rng.gamma(2.0, 0.02, 200_000)
        lossy = ConstantTimeoutAnalysis(sample, eta=1.0, loss_probability=loss)
        delta = 0.6  # effectively no late messages
        predicted = lossy.predict(delta)
        observed = simulate(delta, loss=loss, duration=50_000.0)
        assert predicted.mistake_probability_per_cycle == pytest.approx(loss, rel=0.01)
        assert observed.t_mr.mean == pytest.approx(
            predicted.mistake_recurrence_mean, rel=0.15
        )


class TestPredictions:
    def test_worst_case_formula(self, analysis):
        qos = analysis.predict(0.4)
        assert qos.detection_time_worst == pytest.approx(1.4)
        assert qos.detection_time_mean == pytest.approx(0.9)

    def test_larger_delta_rarer_mistakes(self, analysis):
        small = analysis.predict(0.2)
        large = analysis.predict(0.3)
        assert large.mistake_recurrence_mean > small.mistake_recurrence_mean
        assert large.query_accuracy >= small.query_accuracy

    def test_huge_delta_mistake_free(self, analysis):
        qos = analysis.predict(10.0)
        assert math.isinf(qos.mistake_recurrence_mean)
        assert qos.query_accuracy == 1.0

    def test_delta_for_recurrence_inverts_predict(self, analysis):
        target = 120.0
        delta = analysis.delta_for_recurrence(target)
        achieved = analysis.predict(delta).mistake_recurrence_mean
        assert achieved >= target * 0.95

    def test_delta_for_recurrence_unsatisfiable_with_loss(self):
        rng = np.random.default_rng(0)
        sample = 0.15 + rng.gamma(2.0, 0.02, 10_000)
        lossy = ConstantTimeoutAnalysis(sample, eta=1.0, loss_probability=0.01)
        with pytest.raises(ValueError):
            lossy.delta_for_recurrence(1_000.0)  # loss alone caps T_MR at 100 s

    def test_late_probability_empirical(self):
        analysis = ConstantTimeoutAnalysis([0.1, 0.2, 0.3, 0.4], eta=1.0)
        assert analysis.late_probability(0.25) == pytest.approx(0.5)
        assert analysis.late_probability(0.45) == 0.0

    def test_mean_excess(self):
        analysis = ConstantTimeoutAnalysis([0.1, 0.2, 0.3, 0.4], eta=1.0)
        assert analysis.mean_excess(0.25) == pytest.approx(0.1)
        assert analysis.mean_excess(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantTimeoutAnalysis([], eta=1.0)
        with pytest.raises(ValueError):
            ConstantTimeoutAnalysis([0.1], eta=0.0)
        with pytest.raises(ValueError):
            ConstantTimeoutAnalysis([0.1], eta=1.0, loss_probability=1.0)
        analysis = ConstantTimeoutAnalysis([0.1], eta=1.0)
        with pytest.raises(ValueError):
            analysis.predict(-0.1)
        with pytest.raises(ValueError):
            analysis.delta_for_recurrence(0.0)
