"""Trace-driven analysis: loading, hop joins, QoS-from-spans, post-mortems.

The unit layer builds synthetic span streams by hand (so every join and
boundary is exact); the equivalence layer replays the same synthetic
transitions through a live :class:`OnlineQosAccumulator` and asserts the
span replay matches it; the CLI layer drives ``repro trace-analyze`` and
``repro postmortem`` end to end over JSONL files.  The live acceptance
test (a chaos-scenario daemon run whose trace reproduces the online
accumulators) lives in ``tests/test_chaos_live.py`` with the other
network-marked scenarios.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.nekostat.events import EventKind
from repro.nekostat.metrics import OnlineQosAccumulator
from repro.obs import TraceRecorder, WindowedQosStore
from repro.obs.analyze import (
    HOPS,
    PostMortem,
    analyze,
    cross_check,
    history_reference,
    hop_breakdown,
    load_events,
    post_mortems,
    qos_from_spans,
    read_trace_file,
    rotated_paths,
)

from tests.test_detector_bank import (
    ALL_IDS,
    ETA,
    INITIAL_TIMEOUT,
    Observed,
    arrivals_of,
    beats,
    clocks,
    crashes,
    detector_sets,
    fused_uppers,
    scalar_uppers,
)

pytestmark = pytest.mark.obs


def span(t, kind, endpoint, **extra):
    record = {"t": t, "kind": kind, "endpoint": endpoint}
    record.update(extra)
    return record


def heartbeat_journey(endpoint, seq, send_t, *, delay=0.1, route=0.001,
                      decide=0.002, detector="fd"):
    """The four spans of one clean heartbeat through the pipeline."""
    receive_t = send_t + delay
    fanout_t = receive_t + route
    decide_t = fanout_t + decide
    return [
        span(send_t, "send", endpoint, seq=seq),
        span(receive_t, "receive", endpoint, seq=seq, delay=delay),
        span(fanout_t, "fanout", endpoint, seq=seq),
        span(decide_t, "freshness", endpoint, seq=seq, detector=detector,
             timeout=0.3, deadline=decide_t + 1.0),
    ]


class TestLoading:
    def test_rotated_paths_orders_oldest_first(self, tmp_path):
        live = tmp_path / "trace.jsonl"
        for name in ("trace.jsonl", "trace.jsonl.1", "trace.jsonl.2"):
            (tmp_path / name).write_text("")
        assert rotated_paths(str(live)) == [
            str(tmp_path / "trace.jsonl.2"),
            str(tmp_path / "trace.jsonl.1"),
            str(live),
        ]

    def test_read_trace_spans_rotation_boundary(self, tmp_path):
        """Events written across a rotation read back in emit order."""
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path), max_bytes=4096, backups=2)
        padding = "x" * 100
        total = 300
        for i in range(total):
            recorder.emit(float(i), "send", padding, seq=i)
        recorder.close()
        assert recorder.rotations_total >= 1
        events = read_trace_file(str(path))
        seqs = [e["seq"] for e in events]
        # Generations beyond the backup budget are gone, but what
        # survives is contiguous and ends at the newest event.
        assert seqs == list(range(seqs[0], total))

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(span(1.0, "send", "q", seq=0)) + "\n"
            + '{"t": 2.0, "kind": "se'  # interrupted writer
        )
        events = read_trace_file(str(path))
        assert len(events) == 1 and events[0]["seq"] == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace_file(str(tmp_path / "nope.jsonl"))
        with pytest.raises(ValueError):
            load_events([])

    def test_merge_sorts_by_time_stably(self, tmp_path):
        daemon_trace = tmp_path / "fd.jsonl"
        emitter_trace = tmp_path / "hb.jsonl"
        daemon_trace.write_text(
            "".join(json.dumps(span(t, "receive", "q", seq=i, delay=0.1))
                    + "\n" for i, t in enumerate((1.1, 2.1)))
        )
        emitter_trace.write_text(
            "".join(json.dumps(span(t, "send", "q", seq=i)) + "\n"
                    for i, t in enumerate((1.0, 2.0)))
        )
        merged = load_events([str(daemon_trace), str(emitter_trace)])
        assert [e["kind"] for e in merged] == [
            "send", "receive", "send", "receive",
        ]


class TestHopBreakdown:
    def test_clean_journeys_produce_all_hops(self):
        events = []
        for seq in range(20):
            events.extend(heartbeat_journey("q", seq, float(seq)))
        hops = hop_breakdown(events)["q"]
        assert set(hops) == set(HOPS)
        assert hops["emit_to_intake"].count == 20
        assert hops["emit_to_intake"].p50 == pytest.approx(0.1)
        assert hops["intake_to_fanout"].p50 == pytest.approx(0.001)
        assert hops["fanout_to_decision"].p50 == pytest.approx(0.002)
        assert hops["total"].p50 == pytest.approx(0.103)
        assert hops["total"].maximum >= hops["total"].p99 >= hops["total"].p50

    def test_emit_time_recovered_from_receive_delay(self):
        """Daemon-only traces (no send spans) still yield the network hop."""
        events = []
        for seq in range(5):
            events.extend(heartbeat_journey("q", seq, float(seq))[1:])
        hops = hop_breakdown(events)["q"]
        assert hops["emit_to_intake"].count == 5
        assert hops["emit_to_intake"].p50 == pytest.approx(0.1)
        assert hops["total"].p50 == pytest.approx(0.103)

    def test_decision_sampled_once_per_heartbeat(self):
        """A trace written when every detector had its own ``freshness``
        span still yields one decision sample per heartbeat: the first."""
        events = []
        for seq in range(3):
            events.extend(heartbeat_journey("q", seq, float(seq)))
            decide_t = events[-1]["t"]
            events.append(span(decide_t, "freshness", "q", seq=seq, detector="fd2",
                               timeout=0.4, deadline=decide_t + 1.1))
        hops = hop_breakdown(events)["q"]
        assert hops["fanout_to_decision"].count == 3
        assert hops["total"].count == 3
        assert hops["fanout_to_decision"].p50 == pytest.approx(0.002)

    def test_incomplete_journeys_are_skipped(self):
        events = [span(0.0, "send", "q", seq=0)]  # never received
        assert hop_breakdown(events) == {}


class TestQosFromSpans:
    def test_replay_matches_online_accumulator(self):
        """The heart of the tentpole: spans alone reproduce the live QoS."""
        transitions = [
            (2.0, "suspect"), (2.5, "trust"),        # mistake
            (5.0, "crash"), (5.8, "suspect"),        # detection
            (9.0, "restore"), (9.1, "trust"),
            (11.0, "suspect"), (11.2, "trust"),      # second mistake
        ]
        events = [span(0.0, "fanout", "q", seq=0)]
        live = OnlineQosAccumulator("fd", start_time=2.0)
        for t, kind in transitions:
            detector = "" if kind in ("crash", "restore") else "fd"
            events.append(span(t, kind, "q", detector=detector, seq=1))
            getattr(live, f"observe_{kind}")(t)
        replayed = qos_from_spans(events, end_time=15.0)
        assert set(replayed) == {("q", "fd")}
        result = replayed[("q", "fd")]
        expected = live.snapshot(15.0)
        assert result.qos.td_samples == expected.td_samples
        assert len(result.qos.mistakes) == len(expected.mistakes)
        assert result.qos.p_a == pytest.approx(expected.p_a)
        assert result.qos.up_time == pytest.approx(expected.up_time)
        assert not result.suspecting_at_end
        assert result.inconsistencies == 0

    def test_crash_fans_out_to_detector_seen_later(self):
        """A crash span precedes the detector's first transition: the
        second discovery pass must still deliver it to that series."""
        events = [
            span(1.0, "crash", "q"),
            span(1.4, "suspect", "q", detector="fd"),
            span(3.0, "restore", "q"),
            span(3.1, "trust", "q", detector="fd"),
        ]
        result = qos_from_spans(events, end_time=5.0)[("q", "fd")]
        assert result.qos.td_samples == pytest.approx([0.4])
        assert result.qos.mistakes == []

    def test_detector_filter(self):
        events = [
            span(1.0, "suspect", "q", detector="fd"),
            span(1.5, "trust", "q", detector="fd"),
            span(1.0, "suspect", "q", detector="other"),
            span(1.5, "trust", "q", detector="other"),
        ]
        replayed = qos_from_spans(events, detectors=["fd"])
        assert set(replayed) == {("q", "fd")}

    def test_out_of_order_transition_counted_not_fatal(self):
        events = [
            span(2.0, "suspect", "q", detector="fd"),
            span(1.0, "trust", "q", detector="fd"),  # goes backwards
            span(3.0, "trust", "q", detector="fd"),
        ]
        result = qos_from_spans(events, end_time=4.0)[("q", "fd")]
        assert result.inconsistencies == 1
        assert len(result.qos.mistakes) == 1


class TestPostMortems:
    def _mistake_trace(self):
        events = heartbeat_journey("q", 7, 0.0)
        deadline = events[-1]["deadline"]  # 1.103
        events.append(span(deadline, "suspect", "q", detector="fd", seq=7))
        # The resolving heartbeat limped in 0.4s past the freshness point
        # with a 0.5s one-way delay: 0.1s less delay would have saved it.
        events.append(span(deadline + 0.4, "receive", "q", seq=8, delay=0.5))
        events.append(span(deadline + 0.401, "trust", "q", detector="fd",
                           seq=8))
        return events, deadline

    def test_mistake_post_mortem_reconstructs_cause(self):
        events, deadline = self._mistake_trace()
        [mortem] = post_mortems(events)
        assert mortem.kind == "mistake"
        assert mortem.freshness_seq == 7
        assert mortem.prediction == pytest.approx(0.3)
        assert mortem.deadline == pytest.approx(deadline)
        assert mortem.duration == pytest.approx(0.401)
        assert mortem.margin == pytest.approx(0.4)
        [preventer] = mortem.preventers
        assert preventer["seq"] == 8
        assert preventer["late_by"] == pytest.approx(0.4)
        assert preventer["preventing_delay"] == pytest.approx(0.1)

    def test_crash_detection_is_not_a_mistake(self):
        events = [
            span(1.0, "crash", "q"),
            span(1.9, "suspect", "q", detector="fd", seq=3),
        ]
        [mortem] = post_mortems(events)
        assert mortem.kind == "detection"
        assert mortem.trust_t is None and mortem.duration is None

    def test_endpoint_and_detector_filters(self):
        events, _ = self._mistake_trace()
        assert post_mortems(events, endpoint="other") == []
        assert post_mortems(events, detector="other") == []
        assert len(post_mortems(events, endpoint="q", detector="fd")) == 1

    def test_suspect_span_names_its_freshness_point(self):
        """A bank writes one ``freshness`` span per heartbeat, for another
        row: the suspicion reads its freshness point off its own span."""
        events = heartbeat_journey("q", 7, 0.0, detector="other")
        events.append(span(1.2, "suspect", "q", detector="fd", seq=7,
                           timeout=0.25, deadline=1.2))
        events.append(span(1.5, "receive", "q", seq=8, delay=0.5))
        events.append(span(1.5, "trust", "q", detector="fd", seq=8, timeout=0.3))
        [mortem] = post_mortems(events)
        assert (mortem.freshness_seq, mortem.prediction, mortem.deadline) == (
            7, 0.25, 1.2
        )
        assert mortem.margin == pytest.approx(0.3)
        [preventer] = mortem.preventers
        assert preventer["preventing_delay"] == pytest.approx(0.2)

    def test_trace_written_with_a_freshness_span_per_detector(self, tmp_path):
        """The format of release 1.15 and before: thirty ``freshness`` lines
        per heartbeat, and ``suspect`` lines whose ``timeout`` is the one in
        force at expiry, with no ``deadline``.  Every field is recovered."""
        path = tmp_path / "fd-trace.jsonl"
        path.write_text(LEGACY_TRACE)
        events = load_events([str(path)])
        assert [mortem.to_dict() for mortem in post_mortems(events)] == [
            {
                "endpoint": "ep00",
                "detector": "Last+CI_low",
                "suspect_t": 2.325,
                "trust_t": 3.75,
                "duration": 3.75 - 2.325,
                "kind": "mistake",
                "freshness_seq": 1,
                "prediction": 0.225,
                "deadline": 2.325,
                "margin": 3.75 - 2.325,
                "preventers": [
                    {"seq": 2, "receive_t": 3.75, "delay": 1.75,
                     "late_by": 3.75 - 2.325,
                     "preventing_delay": 1.75 - (3.75 - 2.325)},
                ],
            },
            {
                "endpoint": "ep00",
                "detector": "Last+JAC_high",
                "suspect_t": 3.0,
                "trust_t": None,
                "duration": None,
                "kind": "mistake",
                "freshness_seq": 1,
                "prediction": 0.9,
                "deadline": 3.0,
                "margin": None,
                "preventers": [],
            },
        ]
        assert legacy_post_mortems(events) == [
            mortem.to_dict() for mortem in post_mortems(events)
        ]


#: Release 1.15 trace lines of one endpoint and two detectors.
LEGACY_TRACE = "".join(
    line + "\n"
    for line in (
        '{"t":1.1,"kind":"receive","endpoint":"ep00","seq":1,"delay":0.1}',
        '{"t":1.1,"kind":"fanout","endpoint":"ep00","seq":1}',
        '{"t":1.1,"kind":"freshness","endpoint":"ep00","detector":"Last+CI_low",'
        '"seq":1,"timeout":0.225,"deadline":2.325}',
        '{"t":1.1,"kind":"freshness","endpoint":"ep00","detector":"Last+JAC_high",'
        '"seq":1,"timeout":0.9,"deadline":3.0}',
        '{"t":2.325,"kind":"suspect","endpoint":"ep00","detector":"Last+CI_low",'
        '"seq":1,"timeout":0.25}',
        '{"t":3.0,"kind":"suspect","endpoint":"ep00","detector":"Last+JAC_high",'
        '"seq":1,"timeout":0.9}',
        '{"t":3.75,"kind":"receive","endpoint":"ep00","seq":2,"delay":1.75}',
        '{"t":3.75,"kind":"fanout","endpoint":"ep00","seq":2}',
        '{"t":3.75,"kind":"trust","endpoint":"ep00","detector":"Last+CI_low",'
        '"seq":2,"timeout":1.0}',
    )
)


def legacy_post_mortems(events):
    """``post_mortems`` as it was while every detector wrote its own
    ``freshness`` span: a suspicion reads its detector's last one, and the
    resolving receives come from a scan of the endpoint's whole receive
    log.  The reference for the analyzer that reads the ``suspect`` span
    and bisects."""
    receives, freshness, crashed, open_mortems, mortems = {}, {}, {}, {}, []
    for event in events:
        kind = event.get("kind")
        name = event.get("endpoint", "")
        if kind == "receive":
            receives.setdefault(name, []).append(event)
        elif kind == "freshness":
            freshness[(name, event.get("detector", ""))] = event
        elif kind == "crash":
            crashed[name] = True
        elif kind == "restore":
            crashed[name] = False
        elif kind == "suspect":
            det = event.get("detector", "")
            armed = freshness.get((name, det))
            mortem = PostMortem(
                endpoint=name,
                detector=det,
                suspect_t=event["t"],
                trust_t=None,
                duration=None,
                kind="detection" if crashed.get(name) else "mistake",
                freshness_seq=armed.get("seq") if armed else None,
                prediction=armed.get("timeout") if armed else None,
                deadline=armed.get("deadline") if armed else None,
                preventers=[],
                margin=None,
            )
            open_mortems[(name, det)] = mortem
            mortems.append(mortem)
        elif kind == "trust":
            mortem = open_mortems.pop((name, event.get("detector", "")), None)
            if mortem is None:
                continue
            mortem.trust_t = event["t"]
            mortem.duration = event["t"] - mortem.suspect_t
            for receive in receives.get(name, ()):
                t = receive["t"]
                if t <= mortem.suspect_t or t > mortem.trust_t:
                    continue
                entry = {"seq": receive.get("seq"), "receive_t": t,
                         "delay": receive.get("delay")}
                if mortem.deadline is not None:
                    late_by = t - mortem.deadline
                    entry["late_by"] = late_by
                    delay = receive.get("delay")
                    if delay is not None and delay > late_by:
                        entry["preventing_delay"] = delay - late_by
                    if mortem.margin is None:
                        mortem.margin = late_by
                mortem.preventers.append(entry)
    return [mortem.to_dict() for mortem in mortems]


#: One step of a generated time-ordered trace: a time increment (zero
#: often, so spans tie), a span kind, an endpoint, a detector, a sequence
#: number and a value for the span's delay or time-out.
trace_steps = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                  st.floats(min_value=0.0, max_value=2.0)),
        st.sampled_from(
            ["receive", "receive", "suspect", "trust", "freshness", "crash",
             "restore"]
        ),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["x", "y"]),
        st.integers(0, 40),
        st.floats(min_value=0.01, max_value=3.0),
    ),
    max_size=80,
)


def trace_of(steps):
    events, t = [], 0.0
    for step, kind, endpoint, detector, seq, value in steps:
        t += step
        if kind == "receive":
            events.append(span(t, kind, endpoint, seq=seq, delay=value))
        elif kind == "freshness":
            events.append(span(t, kind, endpoint, detector=detector, seq=seq,
                               timeout=value, deadline=t + value))
        elif kind in ("suspect", "trust"):
            events.append(span(t, kind, endpoint, detector=detector, seq=seq,
                               timeout=value))
        else:
            events.append(span(t, kind, endpoint))
    return events


class TestPostMortemDifferential:
    @given(trace_steps)
    @settings(max_examples=200, deadline=None)
    def test_bisected_receives_equal_the_linear_scan(self, steps):
        """On a time-ordered trace, slicing the receive log by bisection
        finds exactly the receives the whole-log scan found."""
        events = trace_of(steps)
        assert [m.to_dict() for m in post_mortems(events)] == (
            legacy_post_mortems(events)
        )

    def test_bank_trace_equals_thirty_detectors_read_the_old_way(self):
        """The bank's trace (one ``freshness`` span per heartbeat, the
        freshness point on the ``suspect`` span) yields, field for field,
        what the old analyzer made of thirty detectors' per-row spans.
        Heartbeat 2 arrives stale between the arming by heartbeat 3 and
        the expiry, moving every time-out in force; heartbeat 4 arrives
        after every deadline it arms; heartbeats 5 and 6 are lost."""
        arrivals = [(0.2, 0), (1.25, 1), (3.2, 3), (3.3, 2), (6.9, 4),
                    (7.2, 7), (8.25, 8), (9.3, 9), (10.2, 10)]
        scalar = Observed(scalar_uppers, ALL_IDS, arrivals, until=12.9)
        fused = Observed(fused_uppers, ALL_IDS, arrivals, until=12.9)
        expected = legacy_post_mortems(scalar.spans)
        actual = [mortem.to_dict() for mortem in post_mortems(fused.spans)]
        assert actual == expected
        assert len(actual) > 60
        assert all(mortem["deadline"] is not None for mortem in actual)
        assert any(mortem["preventers"] for mortem in actual)
        # The stale heartbeat moved the time-out in force, which the event
        # log reports; the post-mortem names the one the deadline used.
        in_force = {
            (e.detector, e.time): e.data["timeout"]
            for e in fused.event_log if e.kind is EventKind.START_SUSPECT
        }
        moved = [
            m for m in actual
            if in_force[(m["detector"], m["suspect_t"])] != m["prediction"]
        ]
        assert {m["freshness_seq"] for m in moved} == {3}

    @given(beats, crashes, detector_sets, clocks)
    @settings(max_examples=25, deadline=None)
    def test_every_suspicion_armed_by_a_heartbeat_matches(
        self, delays, crash_spans, ids, clock
    ):
        offset, drift = clock
        arrivals = arrivals_of(delays, crash_spans)
        options = dict(until=len(delays) * ETA + 12.0, offset=offset, drift=drift)
        scalar = Observed(scalar_uppers, ids, arrivals, **options)
        fused = Observed(fused_uppers, ids, arrivals, **options)
        expected = legacy_post_mortems(scalar.spans)
        actual = [mortem.to_dict() for mortem in post_mortems(fused.spans)]
        assert len(actual) == len(expected)
        for new, old in zip(actual, expected):
            if old["deadline"] is not None:
                assert new == old
                continue
            # The initial expiry: no heartbeat armed it, and the old
            # analyzer had nothing to say; the suspect span names the
            # ``on_start`` deadline.
            assert old["freshness_seq"] is None and new["freshness_seq"] is None
            assert new["deadline"] == ETA + INITIAL_TIMEOUT
            assert new["prediction"] == INITIAL_TIMEOUT
            for field_name in ("endpoint", "detector", "suspect_t", "trust_t", "kind"):
                assert new[field_name] == old[field_name]


class TestAnalyzeAndCrossCheck:
    def test_analyze_aggregates_everything(self):
        events, _ = TestPostMortems()._mistake_trace()
        analysis = analyze(events, end_time=3.0)
        assert analysis.events_total == len(events)
        assert analysis.kinds["suspect"] == 1
        assert analysis.time_span[0] == 0.0
        assert ("q", "fd") in analysis.qos
        assert len(analysis.mortems) == 1
        document = analysis.to_dict()
        assert document["qos"]["q"]["fd"]["mistakes"] == 1
        json.dumps(document)  # JSON-able end to end

    def test_cross_check_agrees_with_identical_reference(self):
        events, _ = TestPostMortems()._mistake_trace()
        analysis = analyze(events, end_time=3.0)
        reference = {("q", "fd"): analysis.qos[("q", "fd")].qos}
        assert cross_check(analysis, reference) == []

    def test_cross_check_flags_count_and_pa_disagreement(self):
        events, _ = TestPostMortems()._mistake_trace()
        analysis = analyze(events, end_time=3.0)
        other = OnlineQosAccumulator("fd", start_time=0.0)
        other.observe_suspect(1.0)
        other.observe_trust(1.2)
        other.observe_suspect(2.0)
        other.observe_trust(2.8)
        problems = cross_check(
            analysis, {("q", "fd"): other.snapshot(3.0)}
        )
        assert any("mistakes" in p for p in problems)
        assert any("P_A" in p for p in problems)

    def test_cross_check_missing_series(self):
        analysis = analyze([], end_time=1.0)
        busy = OnlineQosAccumulator("fd", start_time=0.0)
        busy.observe_suspect(0.5)
        busy.observe_trust(0.6)
        problems = cross_check(analysis, {("q", "fd"): busy.snapshot(1.0)})
        assert problems == ["q/fd: missing from trace"]

    def test_history_reference_takes_newest_snapshot(self):
        store = WindowedQosStore()
        accumulator = OnlineQosAccumulator("fd")
        accumulator.observe_suspect(1.0)
        accumulator.observe_trust(2.0)
        store.record_snapshot("q", "fd", 3.0, accumulator.snapshot(3.0))
        store.record_snapshot("q", "fd", 6.0, accumulator.snapshot(6.0))
        reference = history_reference(store)
        assert set(reference) == {("q", "fd")}
        assert reference[("q", "fd")].observation_time == pytest.approx(6.0)
        store.close()


class TestCli:
    def _write_trace(self, tmp_path):
        events, _ = TestPostMortems()._mistake_trace()
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        return str(path)

    def test_trace_analyze_text(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert cli_main(["trace-analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "per-hop latency" in out
        assert "emit_to_intake" in out
        assert "QoS replayed from spans" in out
        assert "post-mortems: 1 suspicions (1 mistakes)" in out

    def test_trace_analyze_json(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert cli_main(["trace-analyze", "--input", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["qos"]["q"]["fd"]["mistakes"] == 1
        assert document["hops"]["q"]["emit_to_intake"]["count"] >= 1

    def test_trace_analyze_cross_check_roundtrip(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        db = str(tmp_path / "qos.sqlite")
        store = WindowedQosStore(db)
        mirror = OnlineQosAccumulator("fd", start_time=1.103)
        mirror.observe_suspect(1.103)
        mirror.observe_trust(1.504)
        store.record_snapshot("q", "fd", 1.504, mirror.snapshot(1.504))
        store.close()
        assert cli_main([
            "trace-analyze", "--input", path, "--end", "1.504",
            "--history-db", db,
        ]) == 0
        assert "1 series agree" in capsys.readouterr().out

    def test_cross_check_defaults_end_to_history_newest_time(
        self, tmp_path, capsys
    ):
        """A daemon that outlives the last span leaves open suspicions
        accruing wall time until its shutdown snapshot; without --end
        the replay must close at the store's newest recorded time, not
        at the last span, or every open interval disagrees."""
        events, _ = TestPostMortems()._mistake_trace()
        events.append(span(2.0, "suspect", "q", detector="fd", seq=9))
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        db = str(tmp_path / "qos.sqlite")
        store = WindowedQosStore(db)
        mirror = OnlineQosAccumulator("fd", start_time=1.103)
        mirror.observe_suspect(1.103)
        mirror.observe_trust(1.504)
        mirror.observe_suspect(2.0)
        store.record_snapshot("q", "fd", 5.0, mirror.snapshot(5.0))
        store.close()
        assert cli_main([
            "trace-analyze", "--input", str(path), "--history-db", db,
        ]) == 0
        assert "1 series agree" in capsys.readouterr().out

    def test_trace_analyze_cross_check_disagreement_exits_1(
        self, tmp_path, capsys
    ):
        path = self._write_trace(tmp_path)
        db = str(tmp_path / "qos.sqlite")
        store = WindowedQosStore(db)
        liar = OnlineQosAccumulator("fd", start_time=0.0)
        store.record_snapshot("q", "fd", 3.0, liar.snapshot(3.0))
        store.close()
        assert cli_main([
            "trace-analyze", "--input", path, "--history-db", db,
        ]) == 1
        assert "disagreement" in capsys.readouterr().out

    def test_trace_analyze_missing_input(self, tmp_path, capsys):
        assert cli_main([
            "trace-analyze", "--input", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_postmortem_text_and_json(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert cli_main(["postmortem", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "mistake q/fd" in out
        assert "would have prevented" in out
        assert cli_main(["postmortem", "--input", path, "--json"]) == 0
        [line] = capsys.readouterr().out.strip().splitlines()
        mortem = json.loads(line)
        assert mortem["endpoint"] == "q"
        assert mortem["margin"] == pytest.approx(0.4)

    def test_postmortem_filters_and_limit(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert cli_main([
            "postmortem", "--input", path, "--endpoint", "other",
        ]) == 0
        assert "no suspicions" in capsys.readouterr().out
        assert cli_main([
            "postmortem", "--input", path, "--limit", "1", "--json",
        ]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1
