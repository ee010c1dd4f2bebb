"""Tests for the baseline detectors: constant, NFD-E, Bertier, φ-accrual, pull."""

import pytest

from repro.fd.baselines import (
    ConstantPredictor,
    PhiAccrualDetector,
    bertier_strategy,
    constant_timeout_strategy,
    nfd_e_strategy,
)
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.pull import PullFailureDetector, PullResponder
from repro.fd.simcrash import SimCrash
from repro.fd.predictors import LastPredictor
from repro.fd.safety import ConstantMargin
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.net.delay import ConstantDelay
from tests.reference_delay import TraceDelay


class TestConstantTimeout:
    def test_constant_predictor_ignores_observations(self):
        predictor = ConstantPredictor(0.5)
        predictor.observe(0.1)
        assert predictor.predict() == 0.5

    def test_strategy_timeout_fixed(self):
        strategy = constant_timeout_strategy(0.4)
        strategy.observe(0.2)
        strategy.observe(0.9)
        assert strategy.timeout() == pytest.approx(0.4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantPredictor(-0.1)


class TestNfdE:
    def test_is_winmean_plus_constant(self):
        strategy = nfd_e_strategy(alpha=0.1, window=3)
        for value in [0.2, 0.3, 0.4]:
            strategy.observe(value)
        assert strategy.timeout() == pytest.approx(0.3 + 0.1)

    def test_window_slides(self):
        strategy = nfd_e_strategy(alpha=0.0, window=2)
        for value in [10.0, 0.2, 0.4]:
            strategy.observe(value)
        assert strategy.timeout() == pytest.approx(0.3)


class TestBertierStrategy:
    def test_margin_adapts_to_error(self):
        strategy = bertier_strategy(window=100)
        for _ in range(50):
            strategy.observe(0.2)
        # Perfectly predictable delays: the margin decays towards zero.
        assert strategy.timeout() == pytest.approx(0.2, abs=0.05)

    def test_name(self):
        assert bertier_strategy().name == "Bertier"


def wire_monitor(sim, event_log, detector_layers, delays, eta=1.0,
                 crash_schedule=()):
    system = NekoSystem(sim)
    system.network.set_link("monitored", "monitor", delays)
    system.network.set_link("monitor", "monitored", ConstantDelay(0.1))
    heartbeater = Heartbeater("monitor", eta, event_log)
    simcrash = SimCrash(100.0, 10.0, None, event_log, schedule=list(crash_schedule))
    responder = PullResponder()
    system.create_process(
        "monitored", ProtocolStack([responder, heartbeater, simcrash])
    )
    multiplexer = MultiPlexer(detector_layers, event_log)
    system.create_process("monitor", ProtocolStack([multiplexer]))
    system.start()
    return system


class TestPhiAccrual:
    def test_no_suspicion_on_steady_heartbeats(self, sim, event_log):
        detector = PhiAccrualDetector("monitored", 1.0, event_log, threshold=8.0)
        wire_monitor(sim, event_log, [detector], ConstantDelay(0.2))
        sim.run(until=100.0)
        assert event_log.filter(kind=EventKind.START_SUSPECT) == []

    def test_detects_crash(self, sim, event_log):
        detector = PhiAccrualDetector("monitored", 1.0, event_log, threshold=3.0)
        wire_monitor(
            sim, event_log, [detector], ConstantDelay(0.2),
            crash_schedule=[(20.5, 40.5)],
        )
        sim.run(until=60.0)
        qos = extract_qos(event_log, end_time=60.0)[detector.detector_id]
        assert len(qos.td_samples) == 1
        assert qos.undetected_crashes == 0

    def test_lower_threshold_detects_faster(self, sim, event_log):
        fast = PhiAccrualDetector(
            "monitored", 1.0, event_log, threshold=1.0, detector_id="fast"
        )
        slow = PhiAccrualDetector(
            "monitored", 1.0, event_log, threshold=8.0, detector_id="slow"
        )
        wire_monitor(
            sim, event_log, [fast, slow], ConstantDelay(0.2),
            crash_schedule=[(20.5, 60.5)],
        )
        sim.run(until=80.0)
        qos = extract_qos(event_log, end_time=80.0)
        assert qos["fast"].td_samples[0] < qos["slow"].td_samples[0]

    def test_phi_grows_with_silence(self, sim, event_log):
        detector = PhiAccrualDetector(
            "monitored", 1.0, event_log, threshold=8.0, min_std=0.5
        )
        wire_monitor(
            sim, event_log, [detector], ConstantDelay(0.2),
            crash_schedule=[(20.5, 60.5)],
        )
        sim.run(until=22.0)
        phi_early = detector.phi()
        sim.run(until=25.0)
        assert detector.phi() > phi_early

    def test_phi_zero_after_fresh_heartbeat(self, sim, event_log):
        detector = PhiAccrualDetector("monitored", 1.0, event_log)
        wire_monitor(sim, event_log, [detector], ConstantDelay(0.2))
        sim.run(until=10.25)  # just after an arrival
        assert detector.phi() < 0.5

    def test_invalid_parameters(self, event_log):
        with pytest.raises(ValueError):
            PhiAccrualDetector("q", 0.0, event_log)
        with pytest.raises(ValueError):
            PhiAccrualDetector("q", 1.0, event_log, threshold=0.0)
        with pytest.raises(ValueError):
            PhiAccrualDetector("q", 1.0, event_log, window=1)


class TestPullDetector:
    def make_pull(self, event_log, timeout=0.5):
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.2))
        return PullFailureDetector(
            strategy, "monitored", 1.0, event_log, detector_id="pull",
            initial_timeout=timeout + 2.0,
        )

    def test_no_suspicion_on_steady_replies(self, sim, event_log):
        detector = self.make_pull(event_log)
        wire_monitor(sim, event_log, [detector], ConstantDelay(0.1))
        sim.run(until=50.0)
        assert event_log.filter(kind=EventKind.START_SUSPECT) == []
        assert detector.replies_seen > 40

    def test_observes_round_trip_times(self, sim, event_log):
        detector = self.make_pull(event_log)
        wire_monitor(sim, event_log, [detector], ConstantDelay(0.15))
        sim.run(until=10.0)
        # RTT = 0.15 (request via reverse link 0.1? request goes monitor->
        # monitored on the 0.1 link, reply on the 0.15 link) = 0.25.
        assert detector.strategy.prediction() == pytest.approx(0.25)

    def test_detects_crash(self, sim, event_log):
        detector = self.make_pull(event_log)
        wire_monitor(
            sim, event_log, [detector], ConstantDelay(0.1),
            crash_schedule=[(20.5, 40.5)],
        )
        sim.run(until=60.0)
        qos = extract_qos(event_log, end_time=60.0)["pull"]
        assert len(qos.td_samples) == 1
        assert qos.undetected_crashes == 0

    def test_two_messages_per_cycle(self, sim, event_log):
        # The paper's cost claim: pull needs twice the messages of push.
        detector = self.make_pull(event_log)
        system = wire_monitor(sim, event_log, [detector], ConstantDelay(0.1))
        sim.run(until=20.0)
        responder = None
        for layer in system.processes["monitored"].stack.layers:
            if isinstance(layer, PullResponder):
                responder = layer
        assert responder is not None
        assert detector.requests_sent >= 20
        assert responder.requests_answered >= 19
        # Total message count ~ 2 per cycle vs 1 for push.
        total = detector.requests_sent + responder.requests_answered
        assert total >= 2 * detector.requests_sent - 2

    def test_recovers_after_repair(self, sim, event_log):
        detector = self.make_pull(event_log)
        wire_monitor(
            sim, event_log, [detector], ConstantDelay(0.1),
            crash_schedule=[(20.5, 40.5)],
        )
        sim.run(until=60.0)
        assert not detector.suspecting

    def test_invalid_eta(self, event_log):
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.1))
        with pytest.raises(ValueError):
            PullFailureDetector(strategy, "q", 0.0, event_log)
