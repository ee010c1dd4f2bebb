"""Tests for the discrete-event simulation engine."""

import math

import pytest

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_non_finite_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=math.inf)

    def test_schedule_advances_time(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_zero_delay_event_fires(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_finite_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not callable")


class TestOrdering:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda lbl=label: order.append(lbl))
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("late"), priority=1)
        sim.schedule(1.0, lambda: order.append("early"), priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_events_scheduled_during_execution(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(3.0, lambda: order.append("last"))
        sim.run()
        assert order == ["first", "nested", "last"]

    def test_zero_delay_nested_event_fires_same_time(self, sim):
        times = []

        def outer():
            sim.schedule(0.0, lambda: times.append(sim.now))

        sim.schedule(2.0, outer)
        sim.run()
        assert times == [2.0]


class TestRunControl:
    def test_run_until_stops_at_bound(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_run_until_includes_boundary_event(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_remaining_events_fire_on_second_run(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == [5]

    def test_run_until_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_max_events_budget(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1]

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_one_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_budget_stop_keeps_time_at_last_event(self, sim):
        """A run cut by ``max_events`` with events due before ``until``
        still queued must not jump to ``until``: the next run would move
        time backwards, and scheduling between the two would raise."""
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(sim.now))
        sim.run(until=10.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.schedule_at(2.5, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 2.5, 3.0, 4.0, 5.0]
        assert sim.now == 10.0

    def test_budget_stop_advances_when_nothing_is_due(self, sim):
        sim.schedule(1.0, lambda: None)
        later = sim.schedule(2.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        later.cancel()
        sim.run(until=10.0, max_events=1)
        # Only a cancelled event and one after ``until`` remain.
        assert sim.now == 10.0

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    """The scheduled :class:`Event` is itself the handle."""

    def test_schedule_returns_the_event(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1), name="probe")
        assert isinstance(event, Event)
        assert not event.cancelled and not event.fired
        sim.run()
        assert fired == [1]
        assert event.fired and not event.cancelled

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_counted_as_processed(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_pending_events_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_handle_reports_time_and_name(self, sim):
        handle = sim.schedule(2.5, lambda: None, name="probe")
        assert handle.time == 2.5
        assert handle.name == "probe"

    def test_cancel_during_run(self, sim):
        fired = []
        handle = sim.schedule(2.0, lambda: fired.append("victim"))
        sim.schedule(1.0, handle.cancel)
        sim.run()
        assert fired == []
        assert handle.cancelled and not handle.fired

    def test_cancel_at_queue_head_before_run(self, sim):
        fired = []
        head = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        head.cancel()
        sim.run(until=1.5)
        assert fired == []
        assert sim.now == 1.5
        sim.run()
        assert fired == [2]


class TestDeterminism:
    def test_identical_schedules_identical_traces(self):
        def run_once():
            simulator = Simulator()
            trace = []
            for i in range(50):
                simulator.schedule(
                    (i * 7919 % 101) / 10.0,
                    lambda i=i: trace.append((simulator.now, i)),
                )
            simulator.run()
            return trace

        assert run_once() == run_once()


class TestPendingCounter:
    """pending_events is a live O(1) counter, not a heap scan."""

    def test_counts_down_as_events_fire(self, sim):
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending_events == 4
        sim.step()
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_a_noop(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        handle.cancel()  # already fired: must not drive the counter negative
        assert sim.pending_events == 0

    def test_cancel_after_cancel_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 1

    def test_schedule_during_run_is_counted(self, sim):
        def chain(depth):
            if depth:
                sim.schedule_at(sim.now + 1.0, lambda: chain(depth - 1))

        chain(3)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 3
