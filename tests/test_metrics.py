"""Tests for QoS metric extraction (T_D, T_M, T_MR, P_A).

These tests build synthetic event logs with known ground truth and verify
the interval algebra of :func:`repro.nekostat.metrics.extract_qos`,
including the tricky cases: suspicions that become permanent detections,
suspicions corrected during a crash by stale heartbeats, undetected
crashes, and open intervals at the end of a run.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import AggregatedQos
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import (
    _EPS,
    DetectorQos,
    MistakeInterval,
    _suspicion_intervals_by_detector,
    extract_qos,
    qos_from_suspicion_arrays,
    query_accuracy,
)
from repro.nekostat.stats import summarize


def build_log(entries):
    """entries: list of (time, kind, detector-or-None)."""
    log = EventLog()
    for time, kind, detector in sorted(entries, key=lambda e: e[0]):
        site = "monitor" if detector else "monitored"
        log.append(StatEvent(time=time, kind=kind, site=site, detector=detector))
    return log


S, E = EventKind.START_SUSPECT, EventKind.END_SUSPECT
C, R = EventKind.CRASH, EventKind.RESTORE


class TestDetectionTime:
    def test_simple_detection(self):
        log = build_log([
            (10.0, C, None),
            (11.2, S, "fd"),
            (40.0, R, None),
            (40.3, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.td_samples == pytest.approx([1.2])
        assert qos.undetected_crashes == 0

    def test_td_upper_is_max(self):
        log = build_log([
            (10.0, C, None), (11.0, S, "fd"), (20.0, R, None), (20.1, E, "fd"),
            (50.0, C, None), (53.0, S, "fd"), (60.0, R, None), (60.1, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.t_d_upper == pytest.approx(3.0)
        assert qos.t_d.mean == pytest.approx(2.0)

    def test_suspicion_started_before_crash_gives_zero_td(self):
        # A false positive in progress at crash time persists until repair:
        # detection was effectively immediate.
        log = build_log([
            (9.0, S, "fd"),
            (10.0, C, None),
            (40.0, R, None),
            (40.2, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.td_samples == pytest.approx([0.0])
        # And it is NOT double-counted as a mistake.
        assert qos.mistakes == []

    def test_suspicion_corrected_during_crash_not_permanent(self):
        # A stale in-flight heartbeat ends the first suspicion mid-crash;
        # the second suspicion is the permanent one.
        log = build_log([
            (10.0, C, None),
            (11.0, S, "fd"),
            (12.0, E, "fd"),   # stale heartbeat arrived during the crash
            (13.5, S, "fd"),
            (40.0, R, None),
            (40.2, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.td_samples == pytest.approx([3.5])
        # The corrected suspicion started while crashed: not a mistake.
        assert qos.mistakes == []

    def test_undetected_crash_counted(self):
        log = build_log([
            (10.0, C, None),
            (12.0, R, None),  # repaired before any suspicion
        ])
        qos = extract_qos(log, end_time=100.0, detectors=["fd"])["fd"]
        assert qos.undetected_crashes == 1
        assert qos.td_samples == []
        assert qos.t_d is None
        assert qos.t_d_upper is None

    def test_open_suspicion_at_end_detects_open_crash(self):
        log = build_log([
            (90.0, C, None),
            (91.5, S, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.td_samples == pytest.approx([1.5])

    def test_multiple_crashes_one_sample_each(self):
        entries = []
        for k in range(5):
            base = 100.0 * k
            entries += [
                (base + 10.0, C, None),
                (base + 11.0 + 0.1 * k, S, "fd"),
                (base + 40.0, R, None),
                (base + 40.2, E, "fd"),
            ]
        qos = extract_qos(build_log(entries), end_time=500.0)["fd"]
        assert len(qos.td_samples) == 5
        assert qos.td_samples == pytest.approx([1.0, 1.1, 1.2, 1.3, 1.4])


class TestMistakes:
    def test_false_positive_is_mistake(self):
        log = build_log([
            (5.0, S, "fd"),
            (5.4, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert len(qos.mistakes) == 1
        assert qos.mistakes[0].duration == pytest.approx(0.4)
        assert qos.t_m.mean == pytest.approx(0.4)

    def test_mistake_durations_averaged(self):
        log = build_log([
            (5.0, S, "fd"), (5.2, E, "fd"),
            (10.0, S, "fd"), (10.6, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.t_m.mean == pytest.approx(0.4)

    def test_tmr_between_mistake_starts(self):
        log = build_log([
            (5.0, S, "fd"), (5.2, E, "fd"),
            (25.0, S, "fd"), (25.1, E, "fd"),
            (65.0, S, "fd"), (65.3, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.tmr_samples == pytest.approx([20.0, 40.0])
        assert qos.t_mr.mean == pytest.approx(30.0)

    def test_single_mistake_tmr_falls_back_to_up_time(self):
        log = build_log([(5.0, S, "fd"), (5.2, E, "fd")])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.t_mr.mean == pytest.approx(100.0)

    def test_no_mistakes_tmr_none(self):
        log = build_log([
            (10.0, C, None), (11.0, S, "fd"), (40.0, R, None), (40.1, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.t_m is None
        assert qos.t_mr is None

    def test_open_mistake_closed_at_end_time(self):
        log = build_log([(95.0, S, "fd")])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert len(qos.mistakes) == 1
        assert qos.mistakes[0].duration == pytest.approx(5.0)

    def test_permanent_detection_not_a_mistake(self):
        log = build_log([
            (5.0, S, "fd"), (5.5, E, "fd"),      # a real mistake
            (10.0, C, None), (11.0, S, "fd"),
            (40.0, R, None), (40.1, E, "fd"),    # the detection
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert len(qos.mistakes) == 1
        assert qos.mistakes[0].start == 5.0


class TestAccuracy:
    def test_pa_formula(self):
        # T_M mean = 1.0, T_MR mean = 10.0 -> P_A = 0.9.
        log = build_log([
            (10.0, S, "fd"), (11.0, E, "fd"),
            (20.0, S, "fd"), (21.0, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.p_a == pytest.approx(0.9)

    def test_pa_one_when_mistake_free(self):
        log = build_log([
            (10.0, C, None), (11.0, S, "fd"), (40.0, R, None), (40.1, E, "fd"),
        ])
        assert extract_qos(log, end_time=100.0)["fd"].p_a == 1.0

    def test_empirical_pa_counts_suspected_up_time(self):
        # 2 s of false suspicion in 100 s of up-time (no crashes).
        log = build_log([(10.0, S, "fd"), (12.0, E, "fd")])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.empirical_p_a == pytest.approx(0.98)

    def test_empirical_pa_excludes_crash_periods(self):
        # Permanent detection during a 30 s crash must not count against
        # availability; only the 1 s of pre-repair... the detection interval
        # [11, 40.1] overlaps up-time only in [40.0, 40.1].
        log = build_log([
            (10.0, C, None), (11.0, S, "fd"), (40.0, R, None), (40.1, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.up_time == pytest.approx(70.0)
        assert qos.suspected_up_time == pytest.approx(0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        durations=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=12),
        recurrences=st.lists(
            st.floats(min_value=-1.0, max_value=100.0), max_size=12
        ),
        up_time=st.sampled_from([0.0, 3.5, 1000.0]),
    )
    def test_query_accuracy_is_the_ratio_of_means_formula(
        self, durations, recurrences, up_time
    ):
        """``query_accuracy`` of the summaries equals the formula ``p_a``
        had inline, and both ``p_a`` properties go through it."""
        qos = DetectorQos(
            detector="fd",
            mistakes=[MistakeInterval(10.0, 10.0 + d) for d in durations],
            tmr_samples=list(recurrences),
            up_time=up_time,
        )
        t_m, t_mr = qos.t_m, qos.t_mr
        if t_m is None or t_mr is None:
            expected = 1.0
        elif t_mr.mean <= 0:
            expected = 0.0
        else:
            expected = max(0.0, (t_mr.mean - t_m.mean) / t_mr.mean)
        assert repr(query_accuracy(t_m, t_mr)) == repr(expected)
        assert repr(qos.p_a) == repr(expected)
        pooled = AggregatedQos(
            "fd",
            tm_samples=[end - start for start, end in qos.mistakes],
            tmr_samples=list(recurrences),
        )
        assert repr(pooled.p_a) == repr(
            query_accuracy(pooled.t_m, pooled.t_mr)
        )

    def test_query_accuracy_edges(self):
        one = summarize([1.0])
        assert query_accuracy(None, None) == 1.0
        assert query_accuracy(one, None) == 1.0
        assert query_accuracy(None, one) == 1.0
        assert query_accuracy(summarize([2.0]), summarize([0.0])) == 0.0
        assert query_accuracy(summarize([5.0]), summarize([4.0])) == 0.0
        assert query_accuracy(summarize([1.0]), summarize([4.0])) == 0.75

    def test_mistake_rate(self):
        log = build_log([
            (10.0, S, "fd"), (10.1, E, "fd"),
            (20.0, S, "fd"), (20.1, E, "fd"),
        ])
        qos = extract_qos(log, end_time=100.0)["fd"]
        assert qos.mistake_rate == pytest.approx(2 / 100.0)


class TestMultipleDetectors:
    def test_detectors_isolated(self):
        log = build_log([
            (5.0, S, "a"), (5.5, E, "a"),
            (10.0, C, None),
            (11.0, S, "a"), (12.0, S, "b"),
            (40.0, R, None),
            (40.1, E, "a"), (40.2, E, "b"),
        ])
        qos = extract_qos(log, end_time=100.0)
        assert qos["a"].td_samples == pytest.approx([1.0])
        assert qos["b"].td_samples == pytest.approx([2.0])
        assert len(qos["a"].mistakes) == 1
        assert len(qos["b"].mistakes) == 0

    def test_detector_filter(self):
        log = build_log([(5.0, S, "a"), (5.5, E, "a")])
        qos = extract_qos(log, end_time=10.0, detectors=["a", "ghost"])
        assert set(qos) == {"a", "ghost"}
        assert qos["ghost"].mistakes == []

    def test_many_crashes_interleaved_detectors(self):
        # Per crash: "a" is wrong once before it, flaps during it (a stale
        # heartbeat corrects the first suspicion) and then detects; "b"
        # suspects early and holds (T_D = 0); "c" never notices.
        entries = []
        for k in range(6):
            base = 100.0 * k
            entries += [
                (base + 5.0, S, "a"), (base + 6.0, E, "a"),
                (base + 8.0, S, "b"),
                (base + 10.0, C, None),
                (base + 11.0, S, "a"), (base + 12.0, E, "a"),
                (base + 14.0, S, "a"),
                (base + 40.0, R, None),
                (base + 41.0, E, "a"), (base + 42.0, E, "b"),
            ]
        qos = extract_qos(build_log(entries), end_time=600.0, detectors=["c", "b", "a"])
        assert list(qos) == ["c", "b", "a"]
        assert qos["a"].td_samples == pytest.approx([4.0] * 6)
        assert [m.duration for m in qos["a"].mistakes] == pytest.approx([1.0] * 6)
        assert qos["a"].tmr_samples == pytest.approx([100.0] * 5)
        assert qos["b"].td_samples == [0.0] * 6
        assert qos["b"].mistakes == []
        assert qos["b"].suspected_up_time == pytest.approx(6 * (2.0 + 2.0))
        assert qos["c"].undetected_crashes == 6
        assert qos["c"].td_samples == [] and qos["c"].mistakes == []

    def test_malformed_detector_outside_the_filter_is_ignored(self):
        log = build_log([(1.0, S, "bad"), (2.0, S, "bad"), (3.0, S, "a"), (4.0, E, "a")])
        qos = extract_qos(log, end_time=10.0, detectors=["a"])
        assert qos["a"].mistakes == [MistakeInterval(3.0, 4.0)]
        with pytest.raises(ValueError, match="'bad'.*StartSuspect"):
            extract_qos(log, end_time=10.0)


class TestMistakeInterval:
    def test_keyword_and_positional_construction(self):
        mistake = MistakeInterval(start=2.0, end=3.5)
        assert mistake == MistakeInterval(2.0, 3.5)
        assert (mistake.start, mistake.end) == (2.0, 3.5)
        assert mistake.duration == 1.5
        start, end = mistake
        assert end - start == mistake.duration

    def test_equality_and_hash(self):
        assert MistakeInterval(1.0, 2.0) != MistakeInterval(1.0, 2.5)
        assert len({MistakeInterval(1.0, 2.0), MistakeInterval(1.0, 2.0)}) == 1

    def test_built_from_arrays(self):
        qos = qos_from_suspicion_arrays(
            "fd", np.array([1.0, 5.0]), np.array([1.5, 7.0]), end_time=10.0
        )
        assert qos.mistakes == [MistakeInterval(1.0, 1.5), MistakeInterval(5.0, 7.0)]
        assert all(type(m) is MistakeInterval for m in qos.mistakes)
        assert all(type(m.start) is float for m in qos.mistakes)
        assert qos.t_m.mean == pytest.approx(1.25)
        assert qos.tmr_samples == [4.0]

    def test_mistake_free_arrays(self):
        qos = qos_from_suspicion_arrays("fd", np.empty(0), np.empty(0), end_time=10.0)
        assert qos.mistakes == []
        assert qos.t_m is None and qos.p_a == 1.0

    def test_misordered_arrays_rejected(self):
        with pytest.raises(ValueError):
            qos_from_suspicion_arrays("fd", np.array([2.0]), np.array([1.0]), end_time=10.0)
        with pytest.raises(ValueError):
            qos_from_suspicion_arrays(
                "fd", np.array([5.0, 1.0]), np.array([6.0, 2.0]), end_time=10.0
            )


class TestMalformedLogs:
    def test_double_start_rejected(self):
        log = build_log([(1.0, S, "fd"), (2.0, S, "fd")])
        with pytest.raises(ValueError):
            extract_qos(log, end_time=10.0)

    def test_end_without_start_rejected(self):
        log = build_log([(1.0, E, "fd")])
        with pytest.raises(ValueError):
            extract_qos(log, end_time=10.0)

    def test_empty_log(self):
        qos = extract_qos(EventLog(), end_time=10.0, detectors=["fd"])["fd"]
        assert qos.td_samples == []
        assert qos.p_a == 1.0
        assert qos.up_time == 10.0


class TestStartTime:
    """A run on a real-time scheduler starts at the loop time it was
    built at, not at 0."""

    LOG = [
        (1001.0, S, "fd"), (1002.0, E, "fd"),
        (1004.0, C, None), (1004.5, S, "fd"),
        (1006.0, R, None), (1006.2, E, "fd"),
    ]

    def test_observation_and_up_time_count_from_the_start(self):
        qos = extract_qos(build_log(self.LOG), end_time=1010.0, start_time=1000.0)["fd"]
        assert qos.observation_time == 10.0
        assert qos.up_time == 8.0
        assert qos.suspected_up_time == pytest.approx(1.2)
        assert qos.td_samples == [0.5]
        assert qos.mistakes == [MistakeInterval(1001.0, 1002.0)]

    def test_up_windows_open_at_the_start(self):
        assert _up_windows([(1004.0, 1006.0)], 1010.0, 1000.0) == [
            (1000.0, 1004.0), (1006.0, 1010.0)
        ]

    def test_suspected_up_time_counts_from_the_start(self):
        # [998, 1001) straddles the start: only [1000, 1001) is up time.
        log = build_log([(998.0, S, "fd"), (1001.0, E, "fd")])
        qos = extract_qos(log, end_time=1010.0, start_time=1000.0)["fd"]
        assert qos.suspected_up_time == 1.0
        assert qos.up_time == 10.0


# ----------------------------------------------------------------------
# extract_qos against its earlier per-interval body, bit for bit
# ----------------------------------------------------------------------
def _up_windows(crashes, end_time, start_time=0.0):
    """The complement of the crash intervals within [start_time, end_time)."""
    windows = []
    cursor = start_time
    for crash_start, crash_end in crashes:
        if crash_start > cursor:
            windows.append((cursor, min(crash_start, end_time)))
        cursor = max(cursor, crash_end)
    if cursor < end_time:
        windows.append((cursor, end_time))
    return windows


def _reference_overlap(interval, window):
    start = max(interval[0], window[0])
    end = min(interval[1], window[1])
    return max(0.0, end - start)


def _reference_extract_qos(log, *, end_time=None, detectors=None, start_time=0.0):
    """The extractor as it was written with a helper call per overlap and
    a keyword-built mistake per interval: the reference for bit identity."""
    if end_time is None:
        end_time = log[-1].time if len(log) else 0.0
    crashes = log.crash_intervals(end_time=end_time)
    crashed_time = sum(end - start for start, end in crashes)
    up_windows = _up_windows(crashes, end_time, start_time)
    detector_ids = list(detectors) if detectors is not None else log.detectors()
    intervals_of = _suspicion_intervals_by_detector(log, detector_ids, end_time)
    results = {}
    for detector in detector_ids:
        qos = DetectorQos(
            detector=detector,
            observation_time=end_time - start_time,
            up_time=max(0.0, end_time - start_time - crashed_time),
        )
        intervals = intervals_of[detector]
        permanent = set()
        first = 0
        for crash_start, crash_end in crashes:
            detection = None
            while first < len(intervals) and intervals[first][1] < crash_start:
                first += 1
            for index in range(first, len(intervals)):
                s, e = intervals[index]
                if s >= crash_end - _EPS:
                    break
                if e >= crash_end - _EPS:
                    detection = (s, e)
                    permanent.add(index)
                    break
            if detection is None:
                qos.undetected_crashes += 1
            else:
                qos.td_samples.append(max(0.0, detection[0] - crash_start))
        crash_index = 0
        for index, (s, e) in enumerate(intervals):
            if index in permanent:
                continue
            while crash_index < len(crashes) and crashes[crash_index][1] - _EPS <= s:
                crash_index += 1
            if crash_index == len(crashes) or s < crashes[crash_index][0] - _EPS:
                qos.mistakes.append(MistakeInterval(start=s, end=e))
        starts = [mistake.start for mistake in qos.mistakes]
        qos.tmr_samples = [b - a for a, b in zip(starts, starts[1:])]
        suspected_up = 0.0
        window_index = 0
        for s, e in intervals:
            while window_index < len(up_windows) and up_windows[window_index][1] <= s:
                window_index += 1
            k = window_index
            while k < len(up_windows) and up_windows[k][0] < e:
                suspected_up += _reference_overlap((s, e), up_windows[k])
                k += 1
        qos.suspected_up_time = suspected_up
        results[detector] = qos
    return results


def _qos_bytes(qos):
    """Every field of a DetectorQos, floats as their IEEE bytes."""
    floats = [
        *qos.td_samples,
        *(bound for mistake in qos.mistakes for bound in mistake),
        *qos.tmr_samples,
        qos.observation_time,
        qos.up_time,
        qos.suspected_up_time,
    ]
    return (
        qos.detector,
        qos.undetected_crashes,
        len(qos.td_samples),
        len(qos.mistakes),
        len(qos.tmr_samples),
        struct.pack(f"<{len(floats)}d", *floats),
    )


#: Instants in [0, 50]: any float, or a non-dyadic one (k / 97) so that
#: sums of overlaps round, and a different summation order shows.
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=50.0),
    st.integers(0, 4850).map(lambda k: k / 97),
)


@st.composite
def _signed_zero_logs(draw):
    """A legal log over one crash/restore actor ("") and one to three
    detectors.  Times come from a small shared pool (so suspicions start
    and end on crash and restore instants), from ±0.0 in either order, or
    fresh; one suspicion often spans several up-windows, and a lone
    detector collects enough overlaps that numpy's pairwise summation
    would round differently from the sequential one."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    size = draw(st.integers(0, 120))
    actors = draw(
        st.lists(st.sampled_from(["", "", *names]), min_size=size, max_size=size)
    )
    pool = draw(st.lists(_TIME, min_size=1, max_size=6)) + [-0.0, 0.0]
    times = sorted(
        draw(st.one_of(st.sampled_from(pool), _TIME)) for _ in actors
    )
    state = dict.fromkeys(["", "a", "b", "c"], False)
    log = EventLog()
    for actor, t in zip(actors, times):
        state[actor] = not state[actor]
        if actor:
            kind = EventKind.START_SUSPECT if state[actor] else EventKind.END_SUSPECT
            log.append(StatEvent(t, kind, "monitor", actor))
        else:
            kind = EventKind.CRASH if state[actor] else EventKind.RESTORE
            log.append(StatEvent(t, kind, "monitored"))
    last = times[-1] if times else draw(st.sampled_from([-0.0, 0.0]))
    end_time = draw(
        st.one_of(st.none(), st.just(last), _TIME.map(lambda extra: last + extra))
    )
    return log, end_time


@settings(max_examples=300, deadline=None)
@given(case=_signed_zero_logs(), ask_all=st.booleans())
def test_extract_qos_bit_identical_to_reference(case, ask_all):
    """Bytes, not approximate values: the inlined overlap keeps the
    builtins' tie rules (which operand wins a tie, hence which zero) and
    the sequential summation order, and every sample, up-time and pooled
    digest downstream stays the same."""
    log, end_time = case
    detectors = None if ask_all else ["a", "b", "c", "ghost"]
    fast = extract_qos(log, end_time=end_time, detectors=detectors)
    reference = _reference_extract_qos(log, end_time=end_time, detectors=detectors)
    assert list(fast) == list(reference)
    for detector in reference:
        assert _qos_bytes(fast[detector]) == _qos_bytes(reference[detector])
        assert all(type(m) is MistakeInterval for m in fast[detector].mistakes)


# ----------------------------------------------------------------------
# The sweep called directly: crash arrays, a start, the replay's path
# ----------------------------------------------------------------------
def _sweep_inputs(log, end_time, detector):
    if end_time is None:
        end_time = log[-1].time if len(log) else 0.0
    intervals = _suspicion_intervals_by_detector(log, [detector], end_time)[detector]
    crashes = log.crash_intervals(end_time=end_time)
    return (
        end_time,
        np.array([start for start, _ in intervals], dtype=float),
        np.array([end for _, end in intervals], dtype=float),
        [start for start, _ in crashes],
        [end for _, end in crashes],
    )


@settings(max_examples=300, deadline=None)
@given(
    case=_signed_zero_logs(),
    start_time=st.one_of(_TIME, st.sampled_from([-0.0, -3.5])).filter(
        lambda t: t != 0.0 or math.copysign(1.0, t) < 0
    ),
)
def test_sweep_with_crashes_and_a_start_bit_identical_to_reference(case, start_time):
    """``qos_from_suspicion_arrays`` with crash arrays and a window that
    does not open at 0 equals the per-interval reference byte for byte."""
    log, end_time = case
    reference = _reference_extract_qos(
        log, end_time=end_time, detectors=["a", "b", "c"], start_time=start_time
    )
    for detector in ("a", "b", "c"):
        end, starts, ends, crash_starts, crash_ends = _sweep_inputs(
            log, end_time, detector
        )
        qos = qos_from_suspicion_arrays(
            detector,
            starts,
            ends,
            end_time=end,
            start_time=start_time,
            crash_starts=crash_starts,
            crash_ends=crash_ends,
        )
        assert _qos_bytes(qos) == _qos_bytes(reference[detector])


@settings(max_examples=200, deadline=None)
@given(case=_signed_zero_logs())
def test_crash_free_sweep_bit_identical_to_reference(case):
    """The replay's path: no crash arrays, the window opening at 0."""
    log, end_time = case
    crash_free = EventLog()
    for event in log:
        if event.detector is not None:
            crash_free.append(event)
    reference = _reference_extract_qos(
        crash_free, end_time=end_time, detectors=["a", "b", "c"]
    )
    for detector in ("a", "b", "c"):
        end, starts, ends, crash_starts, _ = _sweep_inputs(
            crash_free, end_time, detector
        )
        assert crash_starts == []
        qos = qos_from_suspicion_arrays(detector, starts, ends, end_time=end)
        assert _qos_bytes(qos) == _qos_bytes(reference[detector])


def test_replayed_detector_qos_bit_identical_to_reference():
    """A trace replay's ``to_detector_qos`` against the reference over an
    event log of the same suspicions."""
    from repro.fd.replay import replay_detector_matrix

    rng = np.random.default_rng(7)
    n = 400
    delays = 0.1 + rng.gamma(2.0, 0.01, n) + (rng.random(n) < 0.05) * 1.5
    replays = replay_detector_matrix(
        ["Last+CI_low", "Mean+JAC_med"], np.arange(n) * 1.0, delays,
        eta=1.0, end_time=float(n),
    )
    for detector, replay in replays.items():
        log = EventLog()
        for start, end in replay.suspicion_intervals():
            log.append(StatEvent(start, S, "monitor", detector))
            log.append(StatEvent(end, E, "monitor", detector))
        assert replay.suspicion_starts.size > 2
        expected = _reference_extract_qos(log, end_time=replay.end_time)[detector]
        assert _qos_bytes(replay.to_detector_qos()) == _qos_bytes(expected)


class TestSweepArguments:
    def test_crash_arrays_must_match(self):
        with pytest.raises(ValueError, match="crash"):
            qos_from_suspicion_arrays(
                "fd", np.empty(0), np.empty(0), end_time=10.0,
                crash_starts=[1.0], crash_ends=[],
            )

    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="crash"):
            qos_from_suspicion_arrays(
                "fd", np.empty(0), np.empty(0), end_time=10.0,
                crash_starts=[1.0, 2.0], crash_ends=[3.0, 4.0],
            )

    def test_overlapping_suspicions_rejected(self):
        with pytest.raises(ValueError):
            qos_from_suspicion_arrays(
                "fd", np.array([1.0, 2.0]), np.array([3.0, 4.0]), end_time=10.0
            )

    def test_detection_at_a_signed_zero_keeps_the_builtin_max(self):
        # (-0.0) - 0.0 is -0.0: max(0.0, -0.0) is 0.0, np.maximum(0.0, -0.0) -0.0.
        log = build_log([(-0.0, S, "fd"), (0.0, C, None), (5.0, R, None), (5.5, E, "fd")])
        reference = _reference_extract_qos(log, end_time=10.0)["fd"]
        qos = qos_from_suspicion_arrays(
            "fd", np.array([-0.0]), np.array([5.5]), end_time=10.0,
            crash_starts=[0.0], crash_ends=[5.0],
        )
        assert _qos_bytes(qos) == _qos_bytes(reference)
        assert math.copysign(1.0, qos.td_samples[0]) == 1.0

    def test_a_suspicion_spanning_two_crashes_detects_both(self):
        qos = qos_from_suspicion_arrays(
            "fd", np.array([1.5]), np.array([9.0]), end_time=10.0,
            crash_starts=[1.0, 5.0], crash_ends=[3.0, 8.0],
        )
        assert qos.td_samples == [0.5, 0.0]
        assert qos.mistakes == []
        assert qos.up_time == 5.0
        assert qos.suspected_up_time == 3.0
