"""Windowed QoS store: unit behaviour and batch-equivalence property.

The store's contract is that ``query(endpoint, detector, start, end)``
equals batch :func:`repro.nekostat.metrics.extract_qos` over the same
slice of the transition log, re-based so the window start is time zero
(with the pre-window state closed into synthetic boundary events at the
window start — crash first, then suspicion, matching the accumulator's
documented tie-breaking).  The property test mirrors the streaming
equivalence suite in ``tests/test_online_qos.py``.
"""

import asyncio
import math
import sqlite3

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main as cli_main
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import OnlineQosAccumulator, extract_qos
from repro.obs import WindowedQosStore
from repro.service import MonitorDaemon
from tests.test_service import run

pytestmark = pytest.mark.obs

DETECTOR = "fd"
ENDPOINT = "ep"

_EVENT_KINDS = {
    "C": EventKind.CRASH,
    "R": EventKind.RESTORE,
    "S": EventKind.START_SUSPECT,
    "T": EventKind.END_SUSPECT,
}


def _legalize(tokens):
    """Drop tokens violating the two state machines (see test_online_qos)."""
    crashed = False
    suspecting = False
    legal = []
    for token in tokens:
        if token == "C" and not crashed:
            crashed = True
        elif token == "R" and crashed:
            crashed = False
        elif token == "S" and not suspecting:
            suspecting = True
        elif token == "T" and suspecting:
            suspecting = False
        else:
            continue
        legal.append(token)
    return legal


def _record(store, sequence):
    for token, t in sequence:
        if token == "C":
            store.record_crash(ENDPOINT, t)
        elif token == "R":
            store.record_restore(ENDPOINT, t)
        elif token == "S":
            store.record_suspect(ENDPOINT, DETECTOR, t)
        else:
            store.record_trust(ENDPOINT, DETECTOR, t)


def _expected_window_qos(sequence, start, end):
    """Ground truth: batch extract_qos over the re-based window slice.

    The pre-window state becomes synthetic boundary events at relative
    time zero — crash before suspect, the accumulator's tie order.
    """
    crashed = False
    suspecting = False
    for token, t in sequence:
        if t > start:
            break
        if token == "C":
            crashed = True
        elif token == "R":
            crashed = False
        elif token == "S":
            suspecting = True
        elif token == "T":
            suspecting = False
    log = EventLog()
    if crashed:
        log.append(StatEvent(time=0.0, kind=EventKind.CRASH, site=ENDPOINT))
    if suspecting:
        log.append(
            StatEvent(
                time=0.0, kind=EventKind.START_SUSPECT,
                site="monitor", detector=DETECTOR,
            )
        )
    for token, t in sequence:
        if not start < t <= end:
            continue
        kind = _EVENT_KINDS[token]
        if token in ("S", "T"):
            log.append(
                StatEvent(
                    time=t - start, kind=kind, site="monitor", detector=DETECTOR
                )
            )
        else:
            log.append(StatEvent(time=t - start, kind=kind, site=ENDPOINT))
    return extract_qos(log, end_time=end - start, detectors=[DETECTOR])[DETECTOR]


def _close(a, b):
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def assert_window_equivalent(store, sequence, start, end):
    window = store.query(ENDPOINT, DETECTOR, start, end)
    batch = _expected_window_qos(sequence, start, end)
    online = window.qos
    # Window results carry absolute times; the batch slice is re-based.
    assert [s for s in online.td_samples] == pytest.approx(
        batch.td_samples, abs=1e-9
    )
    assert online.undetected_crashes == batch.undetected_crashes
    assert [(m.start - start, m.end - start) for m in online.mistakes] == (
        pytest.approx([(m.start, m.end) for m in batch.mistakes], abs=1e-9)
    )
    assert online.tmr_samples == pytest.approx(batch.tmr_samples, abs=1e-9)
    assert _close(online.observation_time, batch.observation_time)
    assert _close(online.up_time, batch.up_time)
    assert _close(online.suspected_up_time, batch.suspected_up_time)
    assert _close(online.p_a, batch.p_a)
    assert _close(online.t_d_upper, batch.t_d_upper)
    return window


class TestRecording:
    def test_transitions_are_buffered_then_flushed(self):
        store = WindowedQosStore(flush_every=4)
        store.record_suspect(ENDPOINT, DETECTOR, 1.0)
        store.record_trust(ENDPOINT, DETECTOR, 2.0)
        assert store.transitions_total == 2
        assert store.flushes_total == 0
        store.record_crash(ENDPOINT, 3.0)
        store.record_restore(ENDPOINT, 4.0)  # fourth row triggers flush
        assert store.flushes_total == 1
        store.close()

    def test_unknown_kind_rejected(self):
        store = WindowedQosStore()
        with pytest.raises(ValueError):
            store.record_transition(ENDPOINT, DETECTOR, "explode", 1.0)
        store.close()

    def test_closed_store_ignores_records(self):
        store = WindowedQosStore()
        store.close()
        store.record_suspect(ENDPOINT, DETECTOR, 1.0)
        assert store.transitions_total == 0

    def test_prune_drops_old_rows(self):
        store = WindowedQosStore(retention=10.0)
        store.record_suspect(ENDPOINT, DETECTOR, 1.0)
        store.record_trust(ENDPOINT, DETECTOR, 2.0)
        store.record_suspect(ENDPOINT, DETECTOR, 95.0)
        removed = store.prune(100.0)
        assert removed == 2
        assert store.latest_time() == pytest.approx(95.0)
        store.close()

    def test_latest_time_empty(self):
        store = WindowedQosStore()
        assert store.latest_time() is None
        store.close()

    def test_snapshot_round_trip(self):
        store = WindowedQosStore()
        accumulator = OnlineQosAccumulator(DETECTOR)
        accumulator.observe_crash(1.0)
        accumulator.observe_suspect(2.0)
        accumulator.observe_restore(3.0)
        accumulator.observe_trust(4.0)
        qos = accumulator.snapshot(5.0)
        store.record_snapshot(ENDPOINT, DETECTOR, 5.0, qos)
        [(t, restored)] = store.snapshots(ENDPOINT, DETECTOR)
        assert t == pytest.approx(5.0)
        assert restored.td_samples == pytest.approx(qos.td_samples)
        assert restored.undetected_crashes == qos.undetected_crashes
        assert restored.up_time == pytest.approx(qos.up_time)
        assert restored.observation_time == pytest.approx(qos.observation_time)
        store.close()


class TestWindowSemantics:
    """Hand-computed boundary cases for the window closure rules."""

    def test_window_in_quiet_stretch_is_all_up(self):
        store = WindowedQosStore()
        _record(store, [("S", 1.0), ("T", 2.0)])
        window = store.query(ENDPOINT, DETECTOR, 10.0, 20.0)
        assert window.qos.up_time == pytest.approx(10.0)
        assert window.qos.p_a == pytest.approx(1.0)
        assert window.qos.mistakes == []
        store.close()

    def test_crash_before_window_measures_td_from_window_start(self):
        # Crash at 5 precedes the window; suspicion at 6 falls inside:
        # T_D is measured from the window start (the crash as this
        # window saw it), not from the out-of-window true crash.
        store = WindowedQosStore()
        _record(store, [("C", 5.0), ("S", 6.0), ("R", 9.0), ("T", 9.5)])
        sequence = [("C", 5.0), ("S", 6.0), ("R", 9.0), ("T", 9.5)]
        window = assert_window_equivalent(store, sequence, 5.5, 12.0)
        assert window.qos.td_samples == [pytest.approx(0.5)]
        store.close()

    def test_crash_and_suspicion_spanning_start_detect_instantly(self):
        store = WindowedQosStore()
        sequence = [("S", 4.0), ("C", 5.0), ("R", 9.0), ("T", 9.5)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 6.0, 12.0)
        assert window.qos.td_samples == [pytest.approx(0.0)]
        assert window.qos.mistakes == []
        store.close()

    def test_event_exactly_at_start_belongs_to_state(self):
        # t == start rows define the boundary state; the replay is (start, end].
        store = WindowedQosStore()
        sequence = [("C", 5.0), ("R", 7.0)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 5.0, 10.0)
        assert window.qos.undetected_crashes == 1
        store.close()

    def test_window_ending_exactly_on_transition_includes_it(self):
        # Replay covers (start, end]: a trust exactly at the window end
        # closes the mistake inside the window.
        store = WindowedQosStore()
        sequence = [("S", 3.0), ("T", 7.0)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 0.0, 7.0)
        assert len(window.qos.mistakes) == 1
        assert window.qos.mistakes[0].end == pytest.approx(7.0)
        # One tick earlier the suspicion is still open, closed by the
        # window boundary itself.
        boundary = store.query(ENDPOINT, DETECTOR, 0.0, 6.999)
        assert boundary.qos.mistakes[0].end == pytest.approx(6.999)
        store.close()

    def test_window_end_closes_an_open_crash_before_its_transitions(self):
        # The same-instant rule at the end: the crash still open at 7 is
        # closed there first, so the trust at 7 ends a detection (no
        # mistake) and the suspect at 7 is raised while up.
        store = WindowedQosStore()
        sequence = [("S", 3.0), ("C", 5.0), ("T", 7.0), ("S", 7.0)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 0.0, 7.0)
        assert window.qos.td_samples == [0.0]
        assert window.qos.undetected_crashes == 0
        assert [(m.start, m.end) for m in window.qos.mistakes] == [(7.0, 7.0)]
        store.close()

    def test_window_entirely_after_recorded_span(self):
        store = WindowedQosStore()
        sequence = [("S", 1.0), ("T", 2.0)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 50.0, 60.0)
        assert window.qos.mistakes == []
        assert window.qos.p_a == pytest.approx(1.0)
        store.close()

    def test_window_entirely_before_recorded_span(self):
        store = WindowedQosStore()
        sequence = [("S", 100.0), ("T", 101.0)]
        _record(store, sequence)
        window = assert_window_equivalent(store, sequence, 0.0, 10.0)
        assert window.qos.mistakes == []
        store.close()

    def test_window_reaching_past_pruned_history_still_answers(self):
        # Pruning drops the suspect and crash rows; the restore and trust
        # left inside the window say both intervals were open at its start.
        store = WindowedQosStore(retention=3600.0)
        _record(store, [("S", 1.0), ("C", 2.0), ("R", 4999.0), ("T", 5000.0)])
        assert store.prune(5000.0) == 2
        window = store.query(ENDPOINT, DETECTOR, 0.0, 6000.0)
        assert window.qos.td_samples == [0.0]
        assert window.qos.mistakes == [] and window.qos.undetected_crashes == 0
        assert window.qos.up_time == pytest.approx(1001.0)
        store.close()

    def test_degraded_store_with_rows_buffered_still_answers(self):
        """sqlite fails while a batch is buffered: the in-memory store
        starts from the buffered rows, the first of which may close an
        interval whose opening row was lost."""
        store = WindowedQosStore(flush_every=4)
        store.record_suspect(ENDPOINT, DETECTOR, 0.0)
        _record(store, [("C", 0.0), ("R", 0.25), ("C", 0.25), ("R", 0.5)])
        store.inject_sqlite_failures(1)
        window = store.query(ENDPOINT, DETECTOR, 0.0, 1.0)
        assert store.degraded
        assert window.qos.undetected_crashes == 1
        assert window.qos.up_time == pytest.approx(0.5)
        store.close()

    def test_snapshots_time_range_is_inclusive_both_ends(self):
        store = WindowedQosStore()
        accumulator = OnlineQosAccumulator(DETECTOR)
        for t in (1.0, 2.0, 3.0):
            store.record_snapshot(
                ENDPOINT, DETECTOR, t, accumulator.snapshot(t)
            )
        times = [t for t, _ in store.snapshots(
            ENDPOINT, DETECTOR, start=1.0, end=2.0
        )]
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]
        assert len(store.snapshots(ENDPOINT, DETECTOR)) == 3
        store.close()

    def test_invalid_window_rejected(self):
        store = WindowedQosStore()
        with pytest.raises(ValueError):
            store.query(ENDPOINT, DETECTOR, 5.0, 4.0)
        store.close()

    def test_query_many_filters(self):
        store = WindowedQosStore()
        store.record_suspect("a", "d1", 1.0)
        store.record_suspect("a", "d2", 2.0)
        store.record_suspect("b", "d1", 3.0)
        everything = store.query_many(0.0, 10.0)
        assert {(w.endpoint, w.detector) for w in everything} == {
            ("a", "d1"), ("a", "d2"), ("b", "d1"),
        }
        only_a = store.query_many(0.0, 10.0, endpoint="a")
        assert {(w.endpoint, w.detector) for w in only_a} == {
            ("a", "d1"), ("a", "d2"),
        }
        only_d1 = store.query_many(0.0, 10.0, detector="d1")
        assert {w.endpoint for w in only_d1} == {"a", "b"}
        store.close()

    def test_to_dict_payload(self):
        store = WindowedQosStore()
        _record(store, [("S", 1.0), ("T", 2.0)])
        document = store.query(ENDPOINT, DETECTOR, 0.0, 5.0).to_dict()
        assert document["endpoint"] == ENDPOINT
        assert document["detector"] == DETECTOR
        assert document["window_start"] == 0.0
        assert document["window_end"] == 5.0
        assert document["mistakes"] == 1
        assert document["mistake_intervals"] == [[1.0, 2.0]]
        store.close()

    def test_file_store_survives_reopen(self, tmp_path):
        path = str(tmp_path / "qos.sqlite")
        store = WindowedQosStore(path)
        sequence = [("C", 2.0), ("S", 3.0), ("R", 6.0), ("T", 6.5)]
        _record(store, sequence)
        store.close()
        reopened = WindowedQosStore(path)
        window = assert_window_equivalent(reopened, sequence, 0.0, 10.0)
        assert window.qos.td_samples == [pytest.approx(1.0)]
        reopened.close()


TOKEN = st.sampled_from(["S", "T", "C", "R"])
GAP = st.integers(min_value=1, max_value=4)
SCALE = st.sampled_from([0.25, 1.0, 7.3])


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(TOKEN, max_size=40),
    gaps=st.lists(GAP, min_size=40, max_size=40),
    scale=SCALE,
    tail_gap=GAP,
    fractions=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
# A transition exactly at the window's end while the endpoint is down: the
# end closes the crash first (the event model's same-instant rule), so a
# trust there ends a detection and a suspect there is raised while up.
@example(
    tokens=["S", "C", "T", "S"], gaps=[1, 1, 1, 2] + [1] * 36,
    scale=0.25, tail_gap=1, fractions=(0.0, 0.5),
)
@example(
    tokens=["C", "S"], gaps=[1] * 40,
    scale=0.25, tail_gap=1, fractions=(0.5, 0.5),
)
def test_window_query_equals_batch_extraction(
    tokens, gaps, scale, tail_gap, fractions
):
    """The satellite equivalence property.

    For any legal transition interleaving recorded into the store and
    any window inside the recorded span, the windowed query equals batch
    ``extract_qos`` over the re-based log slice.
    """
    legal = _legalize(tokens)
    times = []
    t = 0
    for gap in gaps[: len(legal)]:
        t += gap
        times.append(t * scale)
    sequence = list(zip(legal, times))
    total = (t + tail_gap) * scale
    start, end = sorted(fraction * total for fraction in fractions)
    if end == start:
        # Zero-width windows are degenerate: batch extraction over an
        # empty observation manufactures zero-length crash intervals.
        end = start + 0.5 * scale

    store = WindowedQosStore()
    try:
        _record(store, sequence)
        assert_window_equivalent(store, sequence, start, end)
        # The full recorded span as a window equals the plain stream.
        assert_window_equivalent(store, sequence, 0.0, total)
    finally:
        store.close()


# ----------------------------------------------------------------------
# One endpoint, all its detectors: query_endpoint against query
# ----------------------------------------------------------------------
BANK = ["fd0", "fd1", "fd2"]
#: ``""`` is the endpoint itself (crash/restore), the rest its detectors.
ACTOR = st.sampled_from(["", *BANK])


def _legal_stream(actors, flips, gaps, scale):
    """``(actor, kind, t)`` rows obeying every state machine; a gap of
    zero puts consecutive rows on the same instant.  A restore is never
    on its crash's instant: the replay puts a restore *before* a crash
    of the same instant, so that stream would not be legal."""
    state = dict.fromkeys(["", *BANK], False)
    rows = []
    t = 0
    crashed_at = None
    for actor, flip, gap in zip(actors, flips, gaps):
        if not flip:
            continue
        t += gap
        if not actor:
            if state[actor] and crashed_at == t:
                t += 1
            crashed_at = t
        state[actor] = not state[actor]
        if actor:
            kind = "suspect" if state[actor] else "trust"
        else:
            kind = "crash" if state[actor] else "restore"
        rows.append((actor, kind, t * scale))
    return rows, t * scale


def _store_with(rows, flush_every, failures, read_first=False):
    store = WindowedQosStore(flush_every=flush_every)
    for actor, kind, t in rows:
        store.record_transition(ENDPOINT, actor, kind, t)
    if read_first:
        # Inserts what is buffered and leaves the transaction open, so
        # the failures below strike inside it.
        store.latest_time()
    store.inject_sqlite_failures(failures)
    return store


@settings(max_examples=200, deadline=None)
@given(
    actors=st.lists(ACTOR, max_size=60),
    flips=st.lists(st.booleans(), min_size=60, max_size=60),
    gaps=st.lists(st.integers(min_value=0, max_value=3), min_size=60, max_size=60),
    scale=SCALE,
    fractions=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    flush_every=st.sampled_from([1, 4, 7, 1000]),
    failures=st.sampled_from([0, 0, 1, 2, 3]),
    read_first=st.booleans(),
    asked=st.permutations([*BANK, "ghost"]),
)
def test_endpoint_query_equals_one_query_per_detector(
    actors, flips, gaps, scale, fractions, flush_every, failures, read_first,
    asked,
):
    """``query_endpoint`` answers every detector from two statements;
    each answer must be, field for field, what ``query`` gives for that
    detector alone — with same-instant rows, a window that starts inside
    a suspicion or an outage, rows still buffered when the read comes
    (``flush_every``), a detector without history (``ghost``), and sqlite
    failing under the read, also inside the transaction an earlier read
    left open (the degraded store still answers, and both ways of asking
    see the same degraded store)."""
    rows, total = _legal_stream(actors, flips, gaps, scale)
    start, end = sorted(fraction * (total + scale) for fraction in fractions)
    together = _store_with(rows, flush_every, failures, read_first)
    one_by_one = _store_with(rows, flush_every, failures, read_first)
    try:
        windows = together.query_endpoint(ENDPOINT, asked, start, end)
        singles = [one_by_one.query(ENDPOINT, d, start, end) for d in asked]
        assert [w.detector for w in windows] == list(asked)
        assert windows == singles
        assert [w.to_dict() for w in windows] == [w.to_dict() for w in singles]
        assert together.degraded == one_by_one.degraded == (failures > 0)
        assert together.stats()["pending"] == 0
    finally:
        together.close()
        one_by_one.close()


def test_a_read_inserts_buffered_rows_and_commits_nothing():
    store = WindowedQosStore()
    commits = []
    commit = store._commit
    store._commit = lambda: (commits.append(1), commit())
    store.record_suspect(ENDPOINT, DETECTOR, 1.0)
    store.record_trust(ENDPOINT, DETECTOR, 1.5)
    window = store.query(ENDPOINT, DETECTOR, 0.0, 2.0)
    # The connection reads the rows of its own open transaction.
    assert window.qos.mistakes == [(1.0, 1.5)]
    assert store.stats()["pending"] == 0 and store.flushes_total == 1
    assert commits == [] and store._connection.in_transaction
    store.record_suspect(ENDPOINT, DETECTOR, 3.0)
    store.query_endpoint(ENDPOINT, [DETECTOR], 0.0, 4.0)
    store.endpoints(), store.detectors(ENDPOINT), store.latest_time()
    store.snapshots(ENDPOINT, DETECTOR)
    assert commits == [] and store.flushes_total == 2
    store.flush()
    assert commits == [1] and not store._connection.in_transaction
    store.close()


async def _snapshot_tick_commits(store, count):
    """A running daemon over ``store``: rows a read inserted reach another
    connection on the daemon's own snapshot tick."""
    daemon = MonitorDaemon(
        port=0, http_port=None, history=store, snapshot_interval=0.05,
        own_observability=False,
    )
    await daemon.start()
    try:
        now = daemon.scheduler.now
        store.record_suspect(ENDPOINT, DETECTOR, now)
        store.record_trust(ENDPOINT, DETECTOR, now + 0.5)
        store.query(ENDPOINT, DETECTOR, now - 1.0, now + 1.0)
        assert count() == 0
        for _ in range(500):
            if count():
                break
            await asyncio.sleep(0.02)
        return count()
    finally:
        await daemon.stop()


@pytest.mark.parametrize(
    "committed_by",
    ["flush", pytest.param("snapshot tick", marks=pytest.mark.network), "close"],
)
def test_another_connection_sees_read_rows_once_committed(tmp_path, committed_by):
    path = str(tmp_path / "qos.sqlite")
    store = WindowedQosStore(path)
    reader = sqlite3.connect(path)

    def count():
        return reader.execute("SELECT COUNT(*) FROM transitions").fetchone()[0]

    try:
        if committed_by == "snapshot tick":
            assert run(_snapshot_tick_commits(store, count)) == 2
            return
        store.record_suspect(ENDPOINT, DETECTOR, 1.0)
        store.record_trust(ENDPOINT, DETECTOR, 1.5)
        store.query(ENDPOINT, DETECTOR, 0.0, 2.0)
        assert count() == 0  # inserted into the open transaction only
        if committed_by == "flush":
            store.flush()
        else:
            store.close()
        assert count() == 2
    finally:
        reader.close()
        store.close()


def test_degradation_inside_a_read_transaction_answers_like_a_committed_store(
    tmp_path,
):
    """Twin file stores, one left inside the transaction a read opened and
    one committed, then sqlite fails under both: the same degraded
    answers, before and after new rows."""
    rows = [("", "crash", 1.0), ("fd0", "suspect", 1.5), ("fd1", "suspect", 2.0),
            ("", "restore", 3.0), ("fd0", "trust", 3.5)]
    later = [("fd2", "suspect", 6.5), ("fd2", "trust", 7.0)]
    reading = WindowedQosStore(str(tmp_path / "reading.sqlite"))
    committed = WindowedQosStore(str(tmp_path / "committed.sqlite"))
    stores = (reading, committed)
    try:
        for store in stores:
            for actor, kind, t in rows:
                store.record_transition(ENDPOINT, actor, kind, t)
        assert reading.query_endpoint(ENDPOINT, BANK, 0.0, 5.0) == (
            committed.query_endpoint(ENDPOINT, BANK, 0.0, 5.0)
        )
        committed.flush()
        assert reading._connection.in_transaction
        assert not committed._connection.in_transaction
        for store in stores:
            store.inject_sqlite_failures(1)
        degraded = [s.query_endpoint(ENDPOINT, BANK, 0.0, 5.0) for s in stores]
        assert degraded[0] == degraded[1]
        assert reading.degraded and committed.degraded
        for store in stores:
            for actor, kind, t in later:
                store.record_transition(ENDPOINT, actor, kind, t)
        after = [s.query_endpoint(ENDPOINT, BANK, 4.0, 8.0) for s in stores]
        assert after[0] == after[1]
        assert [len(w.qos.mistakes) for w in after[0]] == [0, 0, 1]
    finally:
        for store in stores:
            store.close()


class TestQosHistoryCli:
    def _populate(self, path):
        store = WindowedQosStore(path)
        _record(store, [("C", 2.0), ("S", 3.0), ("R", 6.0), ("T", 6.5)])
        store.close()

    def test_table_output(self, tmp_path, capsys):
        path = str(tmp_path / "qos.sqlite")
        self._populate(path)
        exit_code = cli_main(["qos-history", "--db", path, "--window", "10"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert ENDPOINT in out and DETECTOR in out
        assert "T_D ms" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "qos.sqlite")
        self._populate(path)
        exit_code = cli_main(
            ["qos-history", "--db", path, "--window", "10", "--json"]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 1
        assert records[0]["endpoint"] == ENDPOINT
        assert records[0]["detection_samples"] == 1

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        exit_code = cli_main(
            ["qos-history", "--db", str(tmp_path / "nope.sqlite")]
        )
        assert exit_code == 2
        assert "no such history database" in capsys.readouterr().err

    def test_empty_db_reports_empty(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        WindowedQosStore(path).close()
        exit_code = cli_main(["qos-history", "--db", path])
        assert exit_code == 0
        assert "empty" in capsys.readouterr().out
