"""Property-based scenario tests for the failure detector.

Hypothesis generates random delay sequences, loss patterns and crash
schedules; the invariants below must hold for every one of them:

* suspect/trust transitions strictly alternate in the event log;
* a crash is always permanently detected if the repair time exceeds the
  worst in-force time-out plus one period (completeness);
* with delays bounded by the time-out, no mistakes ever occur (accuracy
  under synchrony);
* the extracted QoS is internally consistent (sample counts, bounds).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.baselines import constant_timeout_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.sim.engine import Simulator
from tests.reference_delay import TraceDelay

ETA = 1.0
DELTA = 0.5  # constant time-out under test


def run_scenario(delays, crash_schedule, duration):
    sim = Simulator()
    event_log = EventLog()
    system = NekoSystem(sim)
    system.network.set_link("q", "p", TraceDelay(delays, wrap=True))
    heartbeater = Heartbeater("p", ETA, event_log)
    simcrash = SimCrash(
        100.0, 10.0, None, event_log, schedule=list(crash_schedule)
    )
    system.create_process("q", ProtocolStack([heartbeater, simcrash]))
    detector = PushFailureDetector(
        "q", ETA, event_log, [("fd", constant_timeout_strategy(DELTA))],
        initial_timeout=5.0,
    )
    system.create_process("p", ProtocolStack([detector]))
    system.run(until=duration)
    return event_log, detector["fd"]


# Delays: mostly moderate, occasionally huge (lost-like) or tiny.
delay_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.05, max_value=0.45),   # on time
        st.floats(min_value=0.6, max_value=3.0),     # late (mistake)
    ),
    min_size=5,
    max_size=60,
)

crash_starts = st.lists(
    st.floats(min_value=10.0, max_value=60.0),
    min_size=0,
    max_size=3,
)


def build_schedule(starts, ttr=8.0, gap=4.0):
    """Turn raw start times into an ordered, non-overlapping schedule."""
    schedule = []
    cursor = 0.0
    for start in sorted(starts):
        crash = max(start, cursor + gap)
        schedule.append((crash, crash + ttr))
        cursor = crash + ttr
    return schedule


class TestInvariants:
    @given(delay_lists, crash_starts)
    @settings(max_examples=40, deadline=None)
    def test_transitions_alternate(self, delays, starts):
        event_log, _ = run_scenario(delays, build_schedule(starts), 100.0)
        state = False  # trusting
        for event in event_log:
            if event.kind is EventKind.START_SUSPECT:
                assert not state, "StartSuspect while already suspecting"
                state = True
            elif event.kind is EventKind.END_SUSPECT:
                assert state, "EndSuspect while trusting"
                state = False

    @given(delay_lists, crash_starts)
    @settings(max_examples=40, deadline=None)
    def test_completeness_every_crash_detected(self, delays, starts):
        # TTR = 8 s >> eta + delta + max modelled delay: detection must be
        # permanent for every crash.
        schedule = build_schedule(starts)
        event_log, _ = run_scenario(delays, schedule, 100.0)
        qos = extract_qos(event_log, end_time=100.0, detectors=["fd"])["fd"]
        full_crashes = [c for c in schedule if c[1] <= 100.0]
        assert qos.undetected_crashes == 0
        assert len(qos.td_samples) >= len(full_crashes)

    @given(delay_lists, crash_starts)
    @settings(max_examples=40, deadline=None)
    def test_qos_internally_consistent(self, delays, starts):
        schedule = build_schedule(starts)
        event_log, _ = run_scenario(delays, schedule, 100.0)
        qos = extract_qos(event_log, end_time=100.0, detectors=["fd"])["fd"]
        assert 0.0 <= qos.p_a <= 1.0
        assert 0.0 <= qos.empirical_p_a <= 1.0
        assert qos.suspected_up_time <= qos.up_time + 1e-9
        # Detection bound: eta + delta in the normal case, extended by a
        # stale in-flight heartbeat that arrives during the crash, ends
        # the pre-crash suspicion, and postpones the permanent one — so
        # the exact bound is max(eta + delta, max delay).
        bound = max(ETA + DELTA, max(delays)) + 1e-9
        for sample in qos.td_samples:
            assert 0.0 <= sample <= bound
        for mistake in qos.mistakes:
            assert mistake.duration >= 0.0
        if len(qos.mistakes) >= 2:
            assert len(qos.tmr_samples) == len(qos.mistakes) - 1

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=0.45),
            min_size=5,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_accuracy_under_synchrony(self, delays):
        # Every delay below delta and no crashes: zero mistakes, ever.
        event_log, detector = run_scenario(delays, [], 80.0)
        qos = extract_qos(event_log, end_time=80.0, detectors=["fd"])["fd"]
        assert qos.mistakes == []
        assert not detector.suspecting
        assert qos.p_a == 1.0

    @given(delay_lists, crash_starts)
    @settings(max_examples=30, deadline=None)
    def test_detector_trusts_at_end_when_up(self, delays, starts):
        # If the process is up at the end and the last heartbeat had time
        # to arrive, an on-time delay stream must leave the detector
        # trusting... only guaranteed when all delays are on time;
        # restrict to the trusting invariant via the event log instead:
        # the final state equals what the event parity says.
        schedule = build_schedule(starts)
        event_log, detector = run_scenario(delays, schedule, 100.0)
        starts_count = len(event_log.filter(kind=EventKind.START_SUSPECT))
        ends_count = len(event_log.filter(kind=EventKind.END_SUSPECT))
        assert detector.suspecting == (starts_count == ends_count + 1)
