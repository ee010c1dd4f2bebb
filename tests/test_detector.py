"""Scenario tests for the push-style failure detector.

Each scenario wires the real Figure 3 architecture (Heartbeater, SimCrash,
MultiPlexer, a PushFailureDetector with one ``(label, strategy)`` row) on
controlled links so the expected suspect/trust transitions can be
computed by hand.
"""

import pytest

from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.predictors import LastPredictor
from repro.fd.safety import ConstantMargin
from repro.fd.simcrash import SimCrash
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.net.delay import ConstantDelay
from repro.sim.engine import Simulator
from tests.reference_delay import TraceDelay


def build(sim, event_log, delay_model, *, eta=1.0, strategy=None,
          crash_schedule=None, initial_timeout=5.0):
    """Wire heartbeater -> simcrash -> link -> multiplexer -> detector;
    return the system and the row's view, in a list."""
    system = NekoSystem(sim)
    system.network.set_link("monitored", "monitor", delay_model)
    heartbeater = Heartbeater("monitor", eta, event_log)
    simcrash = SimCrash(
        100.0, 10.0, None, event_log,
        schedule=crash_schedule if crash_schedule is not None else [],
    )
    system.create_process("monitored", ProtocolStack([heartbeater, simcrash]))
    if strategy is None:
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.1))
    detector = PushFailureDetector(
        "monitored", eta, event_log, [("fd", strategy)],
        initial_timeout=initial_timeout,
    )
    multiplexer = MultiPlexer([detector], event_log)
    system.create_process("monitor", ProtocolStack([multiplexer]))
    system.start()
    return system, [detector["fd"]]


class TestSteadyState:
    def test_no_suspicion_with_stable_delays(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2))
        sim_run(sim, 50.0)
        assert event_log.filter(kind=EventKind.START_SUSPECT) == []

    def test_delays_observed_match_link(self, sim, event_log):
        _, detectors = build(sim, event_log, ConstantDelay(0.2))
        sim_run(sim, 10.0)
        fd = detectors[0]
        assert fd.heartbeats_seen == 10
        assert fd.prediction() == pytest.approx(0.2)

    def test_current_timeout_tracks_strategy(self, sim, event_log):
        _, detectors = build(sim, event_log, ConstantDelay(0.2))
        sim_run(sim, 5.0)
        assert detectors[0].current_timeout() == pytest.approx(0.3)

    def test_highest_sequence_advances(self, sim, event_log):
        _, detectors = build(sim, event_log, ConstantDelay(0.2))
        sim_run(sim, 10.5)
        assert detectors[0].highest_sequence == 10


class TestCrashDetection:
    def test_crash_produces_permanent_suspicion(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)])
        sim_run(sim, 40.0)
        qos = extract_qos(event_log, end_time=40.0)["fd"]
        assert len(qos.td_samples) == 1
        assert qos.undetected_crashes == 0

    def test_detection_time_value(self, sim, event_log):
        # Crash at 10.5: last heartbeat sent at 10 arrives 10.2; the next
        # freshness point is 11 + 0.2 + 0.1 = 11.3, so T_D = 0.8.
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)])
        sim_run(sim, 40.0)
        qos = extract_qos(event_log, end_time=40.0)["fd"]
        assert qos.td_samples[0] == pytest.approx(0.8, abs=1e-6)

    def test_suspicion_ends_after_repair(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)])
        sim_run(sim, 40.0)
        ends = event_log.filter(kind=EventKind.END_SUSPECT)
        assert len(ends) == 1
        # First heartbeat after repair is sent at t=21, arrives 21.2.
        assert ends[0].time == pytest.approx(21.2, abs=1e-6)

    def test_detector_state_flags(self, sim, event_log):
        _, detectors = build(
            sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)]
        )
        sim_run(sim, 15.0)
        assert detectors[0].suspecting
        sim_run(sim, 40.0)
        assert not detectors[0].suspecting

    def test_multiple_crash_cycles(self, sim, event_log):
        schedule = [(10.5, 15.5), (30.5, 35.5), (50.5, 55.5)]
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=schedule)
        sim_run(sim, 70.0)
        qos = extract_qos(event_log, end_time=70.0)["fd"]
        assert len(qos.td_samples) == 3
        assert qos.undetected_crashes == 0


class TestFalsePositives:
    def test_delay_spike_causes_mistake(self, sim, event_log):
        # Heartbeats sent at 1s intervals; seq 5 is slow (0.5 > 0.2+0.1
        # timeout) -> a mistake begins at tau and ends on its arrival.
        delays = [0.2] * 5 + [0.5] + [0.2] * 50
        build(sim, event_log, TraceDelay(delays))
        sim_run(sim, 30.0)
        qos = extract_qos(event_log, end_time=30.0)["fd"]
        assert len(qos.mistakes) == 1
        # Suspicion from tau = 5 + 1*... heartbeat 5 sent at 5.0; freshness
        # point for it: sigma_4 + eta + delta = 4 + 1 + 0.3 = 5.3; ends at
        # arrival 5.5.
        assert qos.mistakes[0].start == pytest.approx(5.3, abs=1e-6)
        assert qos.mistakes[0].end == pytest.approx(5.5, abs=1e-6)

    def test_lost_heartbeat_causes_mistake_until_next(self, sim, event_log):
        class DropSeq:
            """Delay model is constant; drop is simulated by a huge delay."""

        delays = [0.2] * 5 + [10.0] + [0.2] * 50  # seq 5 effectively lost
        build(sim, event_log, TraceDelay(delays))
        sim_run(sim, 30.0)
        qos = extract_qos(event_log, end_time=30.0)["fd"]
        assert len(qos.mistakes) == 1
        # Mistake ends when heartbeat 6 (fresh) arrives at 6 + 0.2.
        assert qos.mistakes[0].end == pytest.approx(6.2, abs=1e-6)

    def test_stale_heartbeat_does_not_end_suspicion(self, sim, event_log):
        # seq 5 delayed so long it arrives after seq 6: it is stale on
        # arrival and must not generate an extra EndSuspect.
        delays = [0.2] * 5 + [1.5] + [0.2] * 50
        _, detectors = build(sim, event_log, TraceDelay(delays))
        sim_run(sim, 30.0)
        assert detectors[0].stale_heartbeats == 1
        starts = event_log.filter(kind=EventKind.START_SUSPECT)
        ends = event_log.filter(kind=EventKind.END_SUSPECT)
        assert len(starts) == len(ends) == 1
        # Trust restored by fresh seq 6 at 6.2, not by stale seq 5 at 6.5.
        assert ends[0].time == pytest.approx(6.2, abs=1e-6)

    def test_stale_heartbeat_observed_by_default(self, sim, event_log):
        delays = [0.2] * 5 + [1.5] + [0.2] * 50
        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.1))
        _, detectors = build(sim, event_log, TraceDelay(delays), strategy=strategy)
        sim_run(sim, 6.6)  # just after the stale arrival at 6.5
        # The stale delay (1.5) was fed to the predictor (LAST).
        assert detectors[0].prediction() == pytest.approx(1.5)



class TestInitialBehaviour:
    def test_initial_timeout_covers_first_heartbeat(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2), initial_timeout=5.0)
        sim_run(sim, 3.0)
        assert event_log.filter(kind=EventKind.START_SUSPECT) == []

    def test_suspects_if_no_heartbeat_ever(self, sim, event_log):
        # Crash from the very start: the initial timeout expires.
        build(
            sim, event_log, ConstantDelay(0.2),
            crash_schedule=[(0.0, 50.0)], initial_timeout=5.0,
        )
        sim_run(sim, 20.0)
        starts = event_log.filter(kind=EventKind.START_SUSPECT)
        assert len(starts) == 1
        assert starts[0].time == pytest.approx(6.0)  # eta + initial_timeout

    def test_heartbeat_without_seq_rejected(self, sim, event_log):
        from repro.net.message import Datagram

        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.1))
        detector = PushFailureDetector("p", 1.0, event_log, [("fd", strategy)])
        system = NekoSystem(sim)
        system.create_process("monitor", ProtocolStack([detector]))
        with pytest.raises(ValueError):
            detector.deliver(Datagram(source="p", destination="monitor", kind="heartbeat"))

    def test_non_heartbeat_messages_pass_through(self, sim, event_log):
        from repro.net.message import Datagram
        from tests.conftest import RecordingLayer

        strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.1))
        detector = PushFailureDetector("p", 1.0, event_log, [("fd", strategy)])
        recorder = RecordingLayer()
        system = NekoSystem(sim)
        system.create_process("monitor", ProtocolStack([recorder, detector]))
        message = Datagram(source="x", destination="monitor", kind="chat")
        detector.deliver(message)
        assert recorder.received == [message]
        assert detector.heartbeats_seen == 0

    def test_invalid_parameters(self, event_log):
        rows = [("fd", TimeoutStrategy(LastPredictor(), ConstantMargin(0.1)))]
        with pytest.raises(ValueError):
            PushFailureDetector("p", 0.0, event_log, rows)
        with pytest.raises(ValueError):
            PushFailureDetector("p", 1.0, event_log, rows, initial_timeout=-1.0)


class TestEventData:
    def test_suspect_events_carry_detector_and_timeout(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)])
        sim_run(sim, 25.0)
        start = event_log.filter(kind=EventKind.START_SUSPECT)[0]
        assert start.detector == "fd"
        assert start.site == "monitor"
        assert start.data["timeout"] == pytest.approx(0.3)

    def test_balanced_start_end_when_trusting_at_end(self, sim, event_log):
        build(sim, event_log, ConstantDelay(0.2), crash_schedule=[(10.5, 20.5)])
        sim_run(sim, 40.0)
        starts = event_log.filter(kind=EventKind.START_SUSPECT)
        ends = event_log.filter(kind=EventKind.END_SUSPECT)
        assert len(starts) == len(ends)


def sim_run(sim, until):
    """Run the (already started) scenario to `until`."""
    sim.run(until=until)
