"""Tests for QoS-requirements-driven configuration (NFD methodology)."""

import numpy as np
import pytest

from repro.experiments.runner import MONITORED, build_qos_system
from repro.fd.baselines import constant_timeout_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.requirements import (
    Configuration,
    QosRequirements,
    UnsatisfiableRequirements,
    configure,
)
from repro.neko.config import ExperimentConfig
from repro.nekostat.metrics import extract_qos


@pytest.fixture(scope="module")
def gamma_delays():
    rng = np.random.default_rng(5)
    return 0.15 + rng.gamma(2.0, 0.02, 100_000)


class TestConfigure:
    def test_meets_all_three_requirements(self, gamma_delays):
        requirements = QosRequirements(
            detection_time_upper=2.0,
            mistake_recurrence_lower=300.0,
            mistake_duration_upper=2.0,
        )
        configuration = configure(gamma_delays, requirements)
        assert configuration.eta + configuration.delta <= 2.0 + 1e-9
        predicted = configuration.predicted
        assert predicted.mistake_recurrence_mean >= 300.0
        assert predicted.mistake_duration_mean <= 2.0

    def test_prefers_cheapest_configuration(self, gamma_delays):
        loose = QosRequirements(
            detection_time_upper=3.0,
            mistake_recurrence_lower=10.0,
            mistake_duration_upper=5.0,
        )
        tight = QosRequirements(
            detection_time_upper=3.0,
            mistake_recurrence_lower=50_000.0,
            mistake_duration_upper=5.0,
        )
        cheap = configure(gamma_delays, loose)
        expensive = configure(gamma_delays, tight)
        # Looser accuracy demands allow a longer period (fewer messages).
        assert cheap.eta >= expensive.eta
        assert cheap.messages_per_second <= expensive.messages_per_second

    def test_unsatisfiable_due_to_loss(self, gamma_delays):
        requirements = QosRequirements(
            detection_time_upper=2.0,
            mistake_recurrence_lower=100_000.0,
            mistake_duration_upper=5.0,
        )
        with pytest.raises(UnsatisfiableRequirements, match="T_MR"):
            configure(gamma_delays, requirements, loss_probability=0.01)

    def test_unsatisfiable_budget_too_small(self, gamma_delays):
        # Detection budget below the delay floor: every heartbeat "late".
        requirements = QosRequirements(
            detection_time_upper=0.05,
            mistake_recurrence_lower=10.0,
            mistake_duration_upper=1.0,
        )
        with pytest.raises(UnsatisfiableRequirements):
            configure(gamma_delays, requirements)

    def test_explicit_candidates_respected(self, gamma_delays):
        requirements = QosRequirements(
            detection_time_upper=2.0,
            mistake_recurrence_lower=10.0,
            mistake_duration_upper=5.0,
        )
        configuration = configure(
            gamma_delays, requirements, eta_candidates=[1.5, 1.0]
        )
        assert configuration.eta in (1.5, 1.0)

    def test_requirement_validation(self):
        with pytest.raises(ValueError):
            QosRequirements(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            QosRequirements(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            QosRequirements(1.0, 1.0, 0.0)


class TestEndToEndContract:
    def test_configured_detector_honours_contract_in_simulation(self, gamma_delays):
        """The complete loop: characterise -> configure -> simulate ->
        verify the contract held."""
        requirements = QosRequirements(
            detection_time_upper=1.5,
            mistake_recurrence_lower=120.0,
            mistake_duration_upper=2.0,
        )
        configuration = configure(gamma_delays, requirements)

        from repro.net.delay import ShiftedGammaDelay
        from repro.net.link import FairLossyLink  # noqa: F401 (doc link)
        from repro.fd.heartbeat import Heartbeater
        from repro.fd.simcrash import SimCrash
        from repro.neko.layer import ProtocolStack
        from repro.neko.system import NekoSystem
        from repro.nekostat.log import EventLog
        from repro.sim.engine import Simulator

        sim = Simulator()
        event_log = EventLog()
        system = NekoSystem(sim)
        rng = np.random.default_rng(6)
        system.network.set_link(
            "q", "p", ShiftedGammaDelay(rng, minimum=0.15, shape=2.0, scale=0.02),
            record_delays=False,
        )
        heartbeater = Heartbeater("p", configuration.eta, event_log)
        schedule = [(500.0 * k + 100.0 + k * 0.37 % 1, 500.0 * k + 120.0)
                    for k in range(20)]
        simcrash = SimCrash(100.0, 20.0, None, event_log, schedule=schedule)
        system.create_process("q", ProtocolStack([heartbeater, simcrash]))
        detector = PushFailureDetector(
            "q", configuration.eta, event_log,
            [("fd", constant_timeout_strategy(configuration.delta))],
            initial_timeout=5.0,
        )
        system.create_process("p", ProtocolStack([detector]))
        duration = 10_000.0
        system.run(until=duration)
        qos = extract_qos(event_log, end_time=duration)["fd"]

        assert qos.undetected_crashes == 0
        assert qos.t_d_upper <= requirements.detection_time_upper + 1e-6
        if qos.t_mr is not None:
            assert qos.t_mr.mean >= requirements.mistake_recurrence_lower * 0.5
        if qos.t_m is not None:
            assert qos.t_m.mean <= requirements.mistake_duration_upper
