"""The detector layer against the stack it replaces.

The reference is the paper's literal architecture: a ``MultiPlexer``
fanning out to one scalar detector (``tests/reference_detector.py``: own
strategy, own timer) per row — a table id or a ``(label, strategy)``
pair.  Both stacks are driven with the same arrival sequence on
separate simulators and must agree on everything an observer can see:
the event log (kind, time, detector, time-out in force), the order of
``on_transition`` calls, the trace spans and the number of engine events.
The layer's trace follows its one timer, so it is compared with a
projection of the scalar detectors' spans (:func:`project`): suspect and
trust spans as they are, and per fresh heartbeat the one ``freshness``
span of the row the timer is armed on.  Equality is exact — no
tolerances — because the committed goldens and the replay ≡ simulator
proof compare floats.
"""

import asyncio
import cProfile
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.clock import DriftingClock, PerfectClock
from repro.fd.baselines import (
    bertier_strategy,
    constant_timeout_strategy,
    nfd_e_strategy,
)
from repro.fd.combinations import combination_ids, make_strategy, parse_combination_id
from repro.fd.detector import PushFailureDetector
from repro.fd.multiplexer import MultiPlexer
from repro.fd.registry import (
    make_registered_strategy,
    register_margin,
    registered_margins,
)
from repro.fd.safety import JacobsonMargin
from repro.neko.layer import ProtocolStack
from repro.neko.process import NekoProcess
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.obs.trace import TraceRecorder
from repro.service.runtime import AsyncioScheduler
from repro.sim.engine import Simulator

from tests.conftest import RecordingLayer, RecordingNetwork, examples, repro_calls
from tests.reference_detector import ReferenceDetector

ETA = 1.0
INITIAL_TIMEOUT = 4.0
ALL_IDS = combination_ids()

#: A registered margin for the strategy rows: a Jacobson margin with its
#: own gain and scale, outside the table.
SPREAD = "JAC_fast-rows"
if SPREAD not in registered_margins():
    register_margin(SPREAD, lambda: JacobsonMargin(alpha=0.5, phi=3.0))

#: ``(label, strategy factory)`` rows: each stack builds its own
#: strategies.  Short windows so the runs leave the warm-up.
STRATEGY_ROWS = [
    ("Const(300ms)", lambda: constant_timeout_strategy(0.3)),
    ("NFD-E(50ms)", lambda: nfd_e_strategy(0.05, window=8)),
    ("Bertier", lambda: bertier_strategy(window=8)),
    ("Median+JAC_med", lambda: make_registered_strategy("Median", "JAC_med")),
    (f"Median+{SPREAD}", lambda: make_registered_strategy("Median", SPREAD)),
]


def heartbeat(seq, *, eta=ETA, timestamp=None):
    return Datagram(
        source="q",
        destination="p",
        kind="heartbeat",
        seq=seq,
        timestamp=seq * eta if timestamp is None else timestamp,
    )


def scalar_uppers(rows, event_log, hook_factory, tracer):
    """The reference: one detector, one strategy and one timer per row.

    A row is a table id or a ``(label, strategy factory)`` pair."""
    uppers = []
    for row in rows:
        if isinstance(row, str):
            label, strategy = row, make_strategy(*parse_combination_id(row))
        else:
            label, strategy = row[0], row[1]()
        uppers.append(
            ReferenceDetector(
                strategy,
                "q",
                ETA,
                event_log,
                detector_id=label,
                initial_timeout=INITIAL_TIMEOUT,
                on_transition=hook_factory(label),
                tracer=tracer,
            )
        )
    return uppers


def fused_uppers(rows, event_log, hook_factory, tracer):
    return [
        PushFailureDetector(
            "q",
            ETA,
            event_log,
            [row if isinstance(row, str) else (row[0], row[1]()) for row in rows],
            initial_timeout=INITIAL_TIMEOUT,
            on_transition_factory=hook_factory,
            tracer=tracer,
        )
    ]


class Observed:
    """Everything one run of one stack lets an observer see."""

    def __init__(self, build, ids, arrivals, *, until,
                 offset=0.0, drift=0.0, steps=(), trace_path=None):
        self.sim = Simulator()
        self.event_log = EventLog()
        self.tracer = TraceRecorder(trace_path, ring_capacity=1_000_000)
        self.hook_calls = []
        self.uppers = build(ids, self.event_log, self._hook, self.tracer)
        system = NekoSystem(self.sim)
        clock = (
            DriftingClock(self.sim, offset=offset, drift=drift)
            if offset or drift or steps
            else PerfectClock(self.sim)
        )
        self.process = system.create_process(
            "p",
            ProtocolStack([MultiPlexer(self.uppers, tracer=self.tracer)]),
            clock=clock,
        )
        for arrival, seq in arrivals:
            self.sim.schedule_at(arrival, lambda seq=seq: self._receive(seq))
        # Clock steps ``(time, correction)``, as an NTP synchroniser makes.
        for at, correction in steps:
            self.sim.schedule_at(at, lambda c=correction: clock.adjust(c))
        system.run(until=until)

    def _receive(self, seq):
        """Deliver heartbeat ``seq``, after a ``receive`` span as the
        daemon writes it (``delay`` = local arrival − send timestamp)."""
        message = heartbeat(seq)
        self.tracer.emit(
            self.sim.now, "receive", "q", seq=seq,
            delay=self.process.local_time() - message.timestamp,
        )
        self.process.receive_from_network(message)

    def _hook(self, detector_id):
        def on_transition(suspecting):
            self.hook_calls.append((self.sim.now, detector_id, suspecting))

        return on_transition

    @property
    def events(self):
        return [
            (e.kind, e.time, e.detector, e.data["timeout"], e.local_time, e.site)
            for e in self.event_log
        ]

    @property
    def spans(self):
        return self.tracer.tail(1_000_000)


def project(spans):
    """The thirty detectors' spans as the bank writes them.

    Per fresh heartbeat the detectors write their ``trust`` and
    ``freshness`` spans interleaved, in bank order; the bank writes the
    trusts, then the freshness span of the row its one timer is armed on:
    the earliest deadline (clamped below at the arming instant, as the
    timer is), bank order on ties.  Every other span passes unchanged.
    """
    projected, armed = [], []

    def flush():
        if armed:
            projected.append(min(armed, key=lambda s: max(s["t"], s["deadline"])))
            armed.clear()

    for span in spans:
        if span["kind"] == "freshness":
            armed.append(span)
            continue
        if span["kind"] != "trust":
            flush()  # the next heartbeat's fan-out, or a suspicion
        projected.append(span)
    flush()
    return projected


def assert_same(ids, arrivals, *, until, **options):
    """Run both stacks; return the fused one after asserting equality."""
    scalar = Observed(scalar_uppers, ids, arrivals, until=until, **options)
    fused = Observed(fused_uppers, ids, arrivals, until=until, **options)
    assert fused.events == scalar.events
    assert fused.hook_calls == scalar.hook_calls
    assert fused.spans == project(scalar.spans)
    assert fused.sim.events_processed == scalar.sim.events_processed
    bank = fused.uppers[0]
    for detector in scalar.uppers:
        view = bank[detector.detector_id]
        assert view.suspecting == detector.suspecting
        assert view.suspicions_raised == detector.suspicions_raised
        assert view.heartbeats_seen == detector.heartbeats_seen
        assert view.stale_heartbeats == detector.stale_heartbeats
        assert view.highest_sequence == detector.highest_sequence
        assert view.current_timeout() == detector.current_timeout()
        assert view.prediction() == detector.strategy.prediction()
    return fused


# ----------------------------------------------------------------------
# Generated arrival sequences
# ----------------------------------------------------------------------
#: Per heartbeat: lost, or a delay.  Delays on a coarse grid make equal
#: deadlines (ties between rows) common; delays beyond one period make
#: reordering, so stale heartbeats; runs of losses are crashes.
beats = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from([0.125, 0.25, 0.25, 0.375, 0.5]),
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=1.1, max_value=3.5),
    ),
    min_size=1,
    max_size=90,
)
crashes = st.lists(
    st.tuples(st.integers(0, 60), st.integers(3, 12)), max_size=2
)
detector_sets = st.one_of(
    st.just(ALL_IDS),
    st.lists(st.sampled_from(ALL_IDS), min_size=1, max_size=8, unique=True),
)
clocks = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-1e-4, max_value=1e-4),
    ),
)


def arrivals_of(delays, crash_spans):
    down = {
        seq for start, length in crash_spans for seq in range(start, start + length)
    }
    return [
        (seq * ETA + delay, seq)
        for seq, delay in enumerate(delays)
        if delay is not None and seq not in down
    ]


class TestDifferential:
    @given(beats, crashes, detector_sets, clocks)
    @settings(max_examples=examples(60), deadline=None)
    def test_fused_bank_equals_thirty_detectors(
        self, delays, crash_spans, ids, clock
    ):
        offset, drift = clock
        assert_same(
            ids,
            arrivals_of(delays, crash_spans),
            until=len(delays) * ETA + 12.0,
            offset=offset,
            drift=drift,
        )

    def test_long_run_through_the_arima_fit(self, rng):
        """450 heartbeats: past ARIMA's initial fit at 200 observations,
        with loss, reordering and two crashes."""
        delays = rng.gamma(4.0, 0.05, size=450)
        delays[rng.random(450) < 0.03] += 1.7  # late: reordered, stale
        lost = rng.random(450) < 0.02
        arrivals = [
            (seq * ETA + float(delay), seq)
            for seq, delay in enumerate(delays)
            if not lost[seq] and not 120 <= seq < 135 and not 300 <= seq < 310
        ]
        fused = assert_same(ALL_IDS, arrivals, until=470.0)
        assert len(fused.event_log) > 60  # both crashes, every row

    def test_clock_stepped_between_heartbeats(self):
        """A drifting clock stepped between heartbeats, as an NTP
        synchroniser does, then silence.  Deadlines armed after a step map
        through the offset in force then; a row armed before the step at
        13.6 s expires after it, and its ``suspect`` span names the
        freshness point it was armed with."""
        delays = [0.21, 0.35, 0.18, 0.27, 0.4, 0.22, 0.31, 0.25, 0.2, 0.3] * 2
        arrivals = [(seq * ETA + delay, seq) for seq, delay in enumerate(delays)]
        steps = [(7.6, -0.03), (13.6, 0.02)]
        fused = assert_same(
            ALL_IDS, arrivals, until=40.0, offset=0.01, drift=2e-5, steps=steps
        )
        final = [e for e in suspicions(fused) if e.time > arrivals[-1][0]]
        assert sorted(e.detector for e in final) == sorted(ALL_IDS)
        assert any(
            span["kind"] == "suspect" and span["seq"] == 13
            for span in fused.spans
        )


class TestStrategyRows:
    """``(label, strategy)`` rows — constant time-out, NFD-E, Bertier, the
    registered ``Median`` predictor with a stock and a registered margin —
    alone and mixed with table ids, against one reference detector each."""

    @given(
        beats,
        crashes,
        st.lists(
            st.sampled_from(STRATEGY_ROWS + ALL_IDS[::4]),
            min_size=1, max_size=8, unique_by=lambda row: str(row),
        ),
        clocks,
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_strategy_rows_equal_one_detector_each(
        self, delays, crash_spans, rows, clock
    ):
        offset, drift = clock
        assert_same(
            rows,
            arrivals_of(delays, crash_spans),
            until=len(delays) * ETA + 12.0,
            offset=offset,
            drift=drift,
        )

    def test_stale_reordered_and_stepped(self):
        """Late heartbeats overtaken by the next (stale on arrival), a
        drifting clock stepped twice, then silence: every row's events,
        hooks and spans as its own detector's."""
        delays = [0.21, 0.35, 1.6, 0.27, 0.4, 0.22, 1.31, 0.25, 0.2, 0.3] * 3
        arrivals = [(seq * ETA + delay, seq) for seq, delay in enumerate(delays)]
        steps = [(7.6, -0.03), (13.6, 0.02), (21.3, 0.05)]
        rows = STRATEGY_ROWS + ["Last+JAC_med", "Mean+CI_high"]
        fused = assert_same(
            rows, arrivals, until=50.0, offset=0.01, drift=2e-5, steps=steps
        )
        assert fused.uppers[0].stale_heartbeats == 6
        final = [e for e in suspicions(fused) if e.time > arrivals[-1][0]]
        assert sorted(e.detector for e in final) == sorted(
            row if isinstance(row, str) else row[0] for row in rows
        )
        assert len(fused.hook_calls) == len(fused.event_log)


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------
def suspicions(observed):
    return [e for e in observed.event_log if e.kind is EventKind.START_SUSPECT]


class TestTies:
    def test_common_start_deadline_fires_in_bank_order(self):
        """No heartbeat ever: all thirty rows share the ``on_start``
        deadline and become suspect in bank order, one engine event each."""
        fused = assert_same(ALL_IDS, [], until=20.0)
        started = suspicions(fused)
        assert [e.detector for e in started] == ALL_IDS
        assert {e.time for e in started} == {ETA + INITIAL_TIMEOUT}
        assert fused.sim.events_processed == 30
        # Each suspect span names the ``on_start`` deadline it expired on.
        assert {
            (span["deadline"], span["timeout"]) for span in fused.spans
        } == {(ETA + INITIAL_TIMEOUT, INITIAL_TIMEOUT)}

    def test_all_ci_rows_tie_before_the_second_observation(self):
        """After one observation every predictor forecasts it and SM_CI
        is still its initial margin: the fifteen CI rows share a deadline
        (and the five rows of each JAC level share theirs)."""
        fused = assert_same(ALL_IDS, [(0.25, 0)], until=20.0)
        by_time = {}
        for event in suspicions(fused):
            by_time.setdefault(event.time, []).append(event.detector)
        ci_rows = [i for i in ALL_IDS if "+CI_" in i]
        assert ci_rows in by_time.values()
        assert sorted(len(rows) for rows in by_time.values()) == [5, 5, 5, 15]
        assert fused.sim.events_processed == 1 + 30

    def test_rows_trusting_in_the_middle_write_their_trusts_then_one_freshness(
        self, tmp_path
    ):
        """While a late heartbeat is awaited the tight rows suspect and the
        loose ones keep trusting, so its arrival brings trusts scattered
        through the bank.  The bank writes them in bank order, then one
        ``freshness`` span; ring and JSONL file read as the projection of
        thirty detectors emitting one span at a time."""
        delays = [0.21, 0.35, 0.18, 0.27, 0.4, 0.22, 0.31, 0.25, 0.2, 0.3, 0.45, 0.25]
        arrivals = [(seq * ETA + delay, seq) for seq, delay in enumerate(delays)]
        paths = {
            name: str(tmp_path / f"{name}.jsonl")
            for name in ("scalar", "fused", "projected")
        }
        scalar = Observed(
            scalar_uppers, ALL_IDS, arrivals, until=12.9, trace_path=paths["scalar"]
        )
        fused = Observed(
            fused_uppers, ALL_IDS, arrivals, until=12.9, trace_path=paths["fused"]
        )
        projected = project(scalar.spans)
        assert fused.spans == projected
        late = [
            s for s in fused.spans
            if s["seq"] == 10 and s["kind"] in ("trust", "freshness")
        ]
        trusting = [ALL_IDS.index(s["detector"]) for s in late if s["kind"] == "trust"]
        # Neither a prefix of the bank nor all of it: several segments.
        assert 1 < len(trusting) < 30
        assert trusting != list(range(len(trusting)))
        assert trusting == sorted(trusting)
        [armed] = [s for s in late if s["kind"] == "freshness"]
        assert late[-1] is armed
        # The row the timer is armed on: the earliest of thirty deadlines.
        per_row = [
            s for s in scalar.spans if s["seq"] == 10 and s["kind"] == "freshness"
        ]
        assert len(per_row) == 30
        assert armed["deadline"] == min(s["deadline"] for s in per_row)
        rewritten = TraceRecorder(paths["projected"])
        for span in projected:
            rewritten.emit(**span)
        for recorder in (scalar.tracer, fused.tracer, rewritten):
            recorder.close()
        with open(paths["projected"], "rb") as one, open(paths["fused"], "rb") as other:
            assert one.read() == other.read()
        assert fused.tracer.bytes_total == rewritten.bytes_total
        assert fused.tracer.bytes_total < scalar.tracer.bytes_total

    def test_mean_equals_winmean_for_the_first_ten_observations(self):
        arrivals = [(seq * ETA + delay, seq) for seq, delay in enumerate(
            [0.21, 0.35, 0.18, 0.27, 0.4, 0.22, 0.31]
        )]
        fused = assert_same(ALL_IDS, arrivals, until=30.0)
        # The silence after the last heartbeat: every row's final suspicion.
        final = [e for e in suspicions(fused) if e.time > arrivals[-1][0]]
        times = {e.detector: e.time for e in final}
        order = [e.detector for e in final]
        assert sorted(order) == sorted(ALL_IDS)
        for margin in ("CI_low", "CI_med", "CI_high", "JAC_low", "JAC_med", "JAC_high"):
            mean, winmean = f"Mean+{margin}", f"WinMean+{margin}"
            assert times[mean] == times[winmean]
            assert order.index(mean) < order.index(winmean)
        # Tied or not, each suspicion was its own engine event.
        assert fused.sim.events_processed == len(arrivals) + len(suspicions(fused))


class TestStaleHeartbeat:
    #: Heartbeat 2 is overtaken by 3 and arrives stale, before any of the
    #: deadlines that 3 armed.
    ARRIVALS = [(0.2, 0), (1.2, 1), (3.2, 3), (3.3, 2)]

    def _armed_by_heartbeat_3(self, fused):
        """Per row, the ``suspect`` span of its final suspicion: the
        freshness point heartbeat 3 armed and the time-out it used."""
        armed = {
            span["detector"]: span
            for span in fused.spans
            if span["kind"] == "suspect" and span["t"] > 3.3
        }
        for span in armed.values():
            assert span["seq"] == 3
        return armed

    def _final_suspicions(self, fused):
        final = [e for e in suspicions(fused) if e.time > 3.3]
        assert sorted(e.detector for e in final) == sorted(ALL_IDS)
        return final

    def test_suspicion_carries_the_timeout_in_force_at_expiry(self):
        """The stale delay moves every time-out without re-arming:
        ``START_SUSPECT`` fires at the armed deadline but reports the
        time-out in force at expiry, while the ``suspect`` span keeps the
        one the deadline was armed with."""
        fused = assert_same(ALL_IDS, self.ARRIVALS, until=30.0)
        assert fused.uppers[0].stale_heartbeats == 1
        armed = self._armed_by_heartbeat_3(fused)
        [heartbeat_3] = [
            s for s in fused.spans if s["kind"] == "freshness" and s["seq"] == 3
        ]
        assert heartbeat_3 == {**armed[heartbeat_3["detector"]], "kind": "freshness",
                               "t": heartbeat_3["t"]}
        moved = 0
        for event in self._final_suspicions(fused):
            assert event.time == armed[event.detector]["deadline"]
            moved += event.data["timeout"] != armed[event.detector]["timeout"]
        assert moved == 30



class TestSmallBanks:
    def test_empty_bank_arms_nothing_and_passes_traffic_on(self, sim, event_log):
        bank = PushFailureDetector("q", ETA, event_log, [])
        extra = RecordingLayer()
        system = NekoSystem(sim)
        process = system.create_process(
            "p", ProtocolStack([MultiPlexer([bank, extra], event_log)])
        )
        system.start()
        assert sim.pending_events == 0
        process.receive_from_network(heartbeat(0))
        sim.run(until=50.0)
        assert len(bank) == 0 and list(bank.items()) == []
        assert bank.heartbeats_seen == 1
        assert [m.seq for m in extra.received] == [0]
        assert len(event_log) == 0 and sim.events_processed == 0

    @pytest.mark.parametrize("detector_id", ["Last+CI_med", "Arima+JAC_high"])
    def test_one_row_bank_is_the_single_detector(self, detector_id):
        arrivals = [
            (seq * ETA + delay, seq)
            for seq, delay in enumerate([0.2, 0.3, 0.25, 1.6, 0.22, 0.21, 0.4])
            if seq != 4
        ]
        fused = assert_same([detector_id], arrivals, until=30.0)
        bank = fused.uppers[0]
        assert list(bank) == [detector_id] and detector_id in bank
        assert bank.get("Mean+CI_low") is None

    def test_views_follow_bank_order_and_repeats_collapse(self, event_log):
        ids = ["WinMean+JAC_low", "Arima+CI_high", "WinMean+JAC_low"]
        bank = PushFailureDetector("q", ETA, event_log, ids)
        assert list(bank) == ["WinMean+JAC_low", "Arima+CI_high"]
        assert [view.detector_id for _id, view in bank.items()] == list(bank)
        assert bank.initial_timeout == 10.0
        assert list(PushFailureDetector("q", ETA, event_log)) == ALL_IDS
        with pytest.raises(ValueError):
            PushFailureDetector("q", ETA, event_log, ["Nope+CI_low"])
        with pytest.raises(ValueError):
            PushFailureDetector(
                "q", ETA, event_log,
                [("fd", constant_timeout_strategy(0.3)),
                 ("fd", constant_timeout_strategy(0.4))],
            )

    def test_stopped_row_stays_quiet_until_the_next_heartbeat(self, sim, event_log):
        bank = PushFailureDetector(
            "q", ETA, event_log, ["Last+CI_low", "Last+CI_high"],
            initial_timeout=INITIAL_TIMEOUT,
        )
        system = NekoSystem(sim)
        process = system.create_process("p", ProtocolStack([MultiPlexer([bank])]))
        system.start()
        bank["Last+CI_low"].stop()
        sim.run(until=10.0)
        assert not bank["Last+CI_low"].suspecting
        assert bank["Last+CI_high"].suspecting
        sim.schedule_at(
            10.2, lambda: process.receive_from_network(heartbeat(10))
        )
        sim.run(until=30.0)
        assert bank["Last+CI_low"].suspecting  # re-armed by the heartbeat
        bank.stop()
        assert sim.pending_events == 0


# ----------------------------------------------------------------------
# The fused step
# ----------------------------------------------------------------------
def on_time_bank(sim, *, delay=0.2, beats=300):
    """A 30-row bank behind a MultiPlexer, fed heartbeat ``seq`` at
    ``seq * ETA + delay`` for ``beats`` heartbeats."""
    bank = PushFailureDetector(
        "q", ETA, EventLog(), ALL_IDS, initial_timeout=INITIAL_TIMEOUT
    )
    system = NekoSystem(sim)
    process = system.create_process("p", ProtocolStack([MultiPlexer([bank])]))
    for seq in range(beats):
        sim.schedule_at(
            seq * ETA + delay,
            lambda seq=seq: process.receive_from_network(heartbeat(seq)),
        )
    system.start()
    return bank, process


class TestFusedStep:
    def test_heartbeat_cost_in_calls(self, sim):
        """A fresh heartbeat that moves no row is one bank step: at most
        40 calls of the package's functions, from the engine's step to the
        re-armed timer (36 today; the five predictors' ``observe`` and
        ``_observe`` are ten of them).  Walking five ``TimeoutStrategy``
        chains and mapping 30 deadlines one by one took 112; a separate
        ``predict``/``_predict`` per predictor, property reads of the
        ``SM_CI`` moments and the ARMA orders took 54."""
        bank, _process = on_time_bank(sim)
        sim.run(until=250.5)  # past ARIMA's initial fit
        transitions = sum(view.suspicions_raised for _id, view in bank.items())
        profiler = cProfile.Profile()
        profiler.enable()
        sim.run(until=299.5)
        profiler.disable()
        assert bank.heartbeats_seen == 300
        assert sum(view.suspicions_raised for _id, view in bank.items()) == transitions
        assert not any(view.suspecting for _id, view in bank.items())
        assert repro_calls(profiler) / 49 <= 40

    @pytest.mark.parametrize("timestamp", [math.nan, -math.inf])
    def test_non_finite_delay_rejected_before_any_state_moves(self, sim, timestamp):
        bank, process = on_time_bank(sim, beats=30)
        sim.run(until=30.0)
        views = [view for _id, view in bank.items()]
        before = [(view.prediction(), view.current_timeout()) for view in views]
        deadline = bank._timer.deadline
        seen = bank.heartbeats_seen
        with pytest.raises(ValueError):
            bank.deliver(heartbeat(30, timestamp=timestamp))
        assert [(view.prediction(), view.current_timeout()) for view in views] == before
        assert bank._timer.deadline == deadline
        assert (bank.heartbeats_seen, bank.highest_sequence) == (seen, 29)
        # The bank goes on from the state it had.
        process.receive_from_network(heartbeat(30))
        assert bank.highest_sequence == 30


# ----------------------------------------------------------------------
# The live path: one timer on a clock that moves
# ----------------------------------------------------------------------
class TestAsyncioScheduler:
    #: Twelve prompt heartbeats, then one that sat in a queue for 4 s: its
    #: delay moves the forecasts, and nine rows' freshness points are still
    #: over 0.4 s in the past on arrival (the rest over 0.4 s ahead).
    PROMPT, QUEUED = 0.2, 4.0

    def _overdue_rows(self):
        overdue = []
        for detector_id in ALL_IDS:
            strategy = make_strategy(*parse_combination_id(detector_id))
            for _ in range(12):
                strategy.observe(self.PROMPT)
            strategy.observe(self.QUEUED)
            if strategy.timeout() < self.QUEUED - ETA:
                overdue.append(detector_id)
        return overdue

    def _suspicions_per_turn(self, build):
        """Suspicion count after each turn of the loop that changed it,
        up to the first turn that raised any; and the suspects in order."""

        async def main():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            log = EventLog()
            uppers = build(ALL_IDS, log, lambda _id: None, None)
            process = NekoProcess(
                NekoSystem(scheduler, RecordingNetwork()),  # type: ignore[arg-type]
                "p",
                ProtocolStack([MultiPlexer(uppers)]),
            )
            process.start()
            for seq in range(12):
                process.receive_from_network(
                    heartbeat(seq, timestamp=scheduler.now - self.PROMPT)
                )
            process.receive_from_network(
                heartbeat(12, timestamp=scheduler.now - self.QUEUED)
            )
            counts = [len(log)]
            for _ in range(1000):
                if counts[-1]:
                    break
                await asyncio.sleep(0)
                counts.append(len(log))
            scheduler.close()
            return counts, [e.detector for e in log]

        return asyncio.run(asyncio.wait_for(main(), timeout=30.0))

    def test_overdue_rows_all_suspect_in_one_loop_turn(self):
        """Timers that are all due run in one turn of the loop; the bank's
        single timer must not hand the loop back between overdue rows (the
        next datagram would slip in and trust them first)."""
        overdue = self._overdue_rows()
        assert len(overdue) == 9
        for build in (scalar_uppers, fused_uppers):
            counts, suspects = self._suspicions_per_turn(build)
            # Nothing on delivery; then every overdue row in the first
            # turn that raises any, in bank order.
            assert counts[0] == 0 and counts[-1] >= len(overdue), build.__name__
            assert suspects[: len(overdue)] == overdue, build.__name__
