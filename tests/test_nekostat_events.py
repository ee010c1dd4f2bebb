"""Tests for events and the event log."""

import pickle

import pytest

from repro.nekostat.events import EventKind, StatEvent


def suspect(time, detector="fd", kind=EventKind.START_SUSPECT):
    return StatEvent(time=time, kind=kind, site="monitor", detector=detector)


class TestStatEvent:
    def test_suspect_requires_detector(self):
        with pytest.raises(ValueError):
            StatEvent(time=0.0, kind=EventKind.START_SUSPECT, site="m")

    def test_sent_requires_seq(self):
        with pytest.raises(ValueError):
            StatEvent(time=0.0, kind=EventKind.SENT, site="m")

    def test_received_requires_seq(self):
        with pytest.raises(ValueError):
            StatEvent(time=0.0, kind=EventKind.RECEIVED, site="m")

    def test_crash_needs_no_extras(self):
        event = StatEvent(time=1.0, kind=EventKind.CRASH, site="monitored")
        assert event.detector is None

    def test_frozen(self):
        event = StatEvent(time=1.0, kind=EventKind.CRASH, site="m")
        with pytest.raises(AttributeError):
            event.time = 2.0  # type: ignore[misc]

    def test_no_new_attributes(self):
        event = StatEvent(time=1.0, kind=EventKind.CRASH, site="m")
        with pytest.raises(AttributeError):
            event.extra = 1  # type: ignore[attr-defined]

    def test_default_data_is_a_fresh_dict_per_event(self):
        first = StatEvent(time=1.0, kind=EventKind.CRASH, site="m")
        second = StatEvent(time=1.0, kind=EventKind.CRASH, site="m")
        assert first.data == {} and second.data == {}
        first.data["note"] = 1
        assert second.data == {}
        assert StatEvent(time=2.0, kind=EventKind.RESTORE, site="m").data == {}

    def test_given_data_is_kept(self):
        data = {"timeout": 0.25}
        assert StatEvent(1.0, EventKind.CRASH, "m", data=data).data is data

    def test_positional_equals_keyword(self):
        keyword = StatEvent(
            time=1.5, kind=EventKind.START_SUSPECT, site="p", detector="fd",
            local_time=1.49, data={"timeout": 0.3},
        )
        positional = StatEvent(
            1.5, EventKind.START_SUSPECT, "p", "fd", None, 1.49, {"timeout": 0.3}
        )
        assert positional == keyword
        assert StatEvent._fields == (
            "time", "kind", "site", "detector", "seq", "local_time", "data",
        )

    def test_positional_construction_validates(self):
        with pytest.raises(ValueError, match="detector"):
            StatEvent(0.0, EventKind.END_SUSPECT, "m")
        with pytest.raises(ValueError, match="sequence"):
            StatEvent(0.0, EventKind.SENT, "m", None, None)

    def test_field_wise_equality(self):
        event = StatEvent(time=1.0, kind=EventKind.SENT, site="q", seq=3)
        assert event == StatEvent(time=1.0, kind=EventKind.SENT, site="q", seq=3)
        assert event != StatEvent(time=1.0, kind=EventKind.SENT, site="q", seq=4)
        assert event != StatEvent(
            time=1.0, kind=EventKind.SENT, site="q", seq=3, data={"x": 1}
        )

    def test_pickle_round_trip(self):
        event = StatEvent(
            time=2.5, kind=EventKind.END_SUSPECT, site="p", detector="fd",
            local_time=2.4, data={"timeout": 0.3},
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(event, protocol))
            assert type(restored) is StatEvent
            assert restored == event
            assert restored.data is not event.data

    def test_replace_derives_a_changed_copy(self):
        event = StatEvent(time=1.0, kind=EventKind.CRASH, site="q")
        moved = event._replace(time=2.0)
        assert (moved.time, event.time) == (2.0, 1.0)
        assert type(moved) is StatEvent

    def test_replace_validates(self):
        event = StatEvent(1.0, EventKind.START_SUSPECT, "p", "fd")
        with pytest.raises(ValueError, match="detector"):
            event._replace(detector=None)
        with pytest.raises(ValueError, match="sequence"):
            StatEvent(1.0, EventKind.SENT, "p", seq=1)._replace(seq=None)

    def test_repr(self):
        event = StatEvent(1.0, EventKind.START_SUSPECT, "p", "fd")
        assert repr(event) == "StatEvent(t=1.000000, start_suspect, p, fd=fd)"


class TestEventLog:
    def test_append_and_iterate(self, event_log):
        event_log.append(suspect(1.0))
        event_log.append(suspect(2.0, kind=EventKind.END_SUSPECT))
        assert len(event_log) == 2
        assert [e.time for e in event_log] == [1.0, 2.0]

    def test_rejects_time_regression(self, event_log):
        event_log.append(suspect(2.0))
        with pytest.raises(ValueError):
            event_log.append(suspect(1.0))

    def test_equal_times_allowed(self, event_log):
        event_log.append(suspect(1.0, detector="a"))
        event_log.append(suspect(1.0, detector="b"))
        assert len(event_log) == 2

    def test_filter_by_kind(self, event_log):
        event_log.append(suspect(1.0))
        event_log.append(StatEvent(time=2.0, kind=EventKind.CRASH, site="q"))
        crashes = event_log.filter(kind=EventKind.CRASH)
        assert len(crashes) == 1 and crashes[0].time == 2.0

    def test_filter_by_detector(self, event_log):
        event_log.append(suspect(1.0, detector="a"))
        event_log.append(suspect(2.0, detector="b"))
        assert len(event_log.filter(detector="a")) == 1

    def test_filter_by_site(self, event_log):
        event_log.append(StatEvent(time=1.0, kind=EventKind.CRASH, site="q"))
        event_log.append(StatEvent(time=2.0, kind=EventKind.CRASH, site="r"))
        assert len(event_log.filter(site="q")) == 1

    def test_detectors_sorted_unique(self, event_log):
        event_log.append(suspect(1.0, detector="b"))
        event_log.append(suspect(2.0, detector="a"))
        event_log.append(suspect(3.0, detector="b", kind=EventKind.END_SUSPECT))
        assert event_log.detectors() == ["a", "b"]

    def test_subscribers_notified(self, event_log):
        seen = []
        event_log.subscribe(seen.append)
        event = suspect(1.0)
        event_log.append(event)
        assert seen == [event]

    def test_crash_intervals_pairs(self, event_log):
        event_log.append(StatEvent(time=1.0, kind=EventKind.CRASH, site="q"))
        event_log.append(StatEvent(time=2.0, kind=EventKind.RESTORE, site="q"))
        event_log.append(StatEvent(time=5.0, kind=EventKind.CRASH, site="q"))
        event_log.append(StatEvent(time=6.0, kind=EventKind.RESTORE, site="q"))
        assert event_log.crash_intervals() == [(1.0, 2.0), (5.0, 6.0)]

    def test_open_crash_closed_at_end_time(self, event_log):
        event_log.append(StatEvent(time=3.0, kind=EventKind.CRASH, site="q"))
        assert event_log.crash_intervals(end_time=10.0) == [(3.0, 10.0)]

    def test_double_crash_rejected(self, event_log):
        event_log.append(StatEvent(time=1.0, kind=EventKind.CRASH, site="q"))
        event_log.append(StatEvent(time=2.0, kind=EventKind.CRASH, site="q"))
        with pytest.raises(ValueError):
            event_log.crash_intervals()

    def test_restore_without_crash_rejected(self, event_log):
        event_log.append(StatEvent(time=1.0, kind=EventKind.RESTORE, site="q"))
        with pytest.raises(ValueError):
            event_log.crash_intervals()

    def test_getitem(self, event_log):
        event_log.append(suspect(1.0))
        assert event_log[0].time == 1.0
        assert event_log[-1].time == 1.0
