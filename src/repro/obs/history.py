"""Windowed QoS history: sqlite-persisted transitions and snapshots.

The live service's :class:`~repro.nekostat.metrics.OnlineQosAccumulator`
answers "QoS since start"; operators ask "P_A over the last hour".  The
:class:`WindowedQosStore` closes that gap by persisting two things per
``(endpoint, detector)``:

* the **transition stream** — every suspect/trust transition and every
  crash/restore notification, buffered and flushed in batches; and
* periodic **cumulative snapshots** of the accumulator (JSON-encoded
  :class:`~repro.nekostat.metrics.DetectorQos`), for cheap charting of
  since-start trends.

Both tables are ring-pruned: rows older than ``retention`` seconds
(relative to the newest recorded time) are deleted on :meth:`prune`, so
the database stays bounded no matter how long the daemon runs.

Window query semantics
----------------------
:meth:`query` computes the QoS of the half-open window ``(start, end]``
exactly as the batch extractor would see it:

1. the detector/process state *at* ``start`` is reconstructed from the
   last transition at or before ``start`` (a suspicion or crash that is
   still open enters the window as a synthetic boundary event at
   ``start`` — crash first, then suspicion, matching
   :func:`~repro.nekostat.metrics.extract_qos`'s tie-breaking); where no
   row precedes ``start`` but the first row inside the window is a
   ``trust`` or ``restore``, the interval it closes was open at
   ``start``;
2. transitions strictly inside the window are replayed through a fresh
   :class:`~repro.nekostat.metrics.OnlineQosAccumulator` started at
   ``start``;
3. the accumulator is snapshotted at ``end``, closing open intervals
   there.  By the event model's same-instant rule
   (:mod:`repro.nekostat.events`) the end closes a crash still open
   there *before* the detector transitions stamped ``end`` are replayed,
   as ``extract_qos`` closes it at its ``end_time``.

Because the accumulator is proven equal to ``extract_qos`` on arbitrary
legal interleavings (``tests/test_online_qos.py``), a window query
equals batch extraction over the window's log slice re-based to the
window start — the property ``tests/test_qos_history.py`` asserts.

Queries older than the retention horizon see a truncated transition
stream and are answered best-effort (the rule above keeps the replay
legal), as are windows of a store degraded to memory; keep
``retention`` at least as large as the longest window you intend to ask
about.

sqlite3 is stdlib, runs in-process, and ``":memory:"`` gives the daemon
a zero-configuration default; pass a filesystem path to keep history
across restarts and to let ``repro qos-history`` query it offline.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.nekostat.events import SAME_INSTANT_RANK, EventKind
from repro.nekostat.metrics import (
    DetectorQos,
    MistakeInterval,
    OnlineQosAccumulator,
    query_accuracy,
)

#: Transition kinds accepted by :meth:`WindowedQosStore.record_transition`.
TRANSITION_KINDS = ("suspect", "trust", "crash", "restore")

#: Same-instant replay order, the event model's
#: :data:`~repro.nekostat.events.SAME_INSTANT_RANK`: restore before crash
#: before detector transitions.  Suspect and trust share a rank so the
#: stable sort preserves their arrival order.
_KIND_RANK = {
    "restore": SAME_INSTANT_RANK[EventKind.RESTORE],
    "crash": SAME_INSTANT_RANK[EventKind.CRASH],
    "suspect": SAME_INSTANT_RANK[EventKind.START_SUSPECT],
    "trust": SAME_INSTANT_RANK[EventKind.END_SUSPECT],
}

_DETECTOR_RANK = _KIND_RANK["suspect"]

#: Replay order of ``(t, rank, kind)`` rows: by time, then by rank.
_TIME_AND_RANK = itemgetter(0, 1)

#: The state an interval-closing row implies was open before it.
_OPENED_BEFORE = {"trust": "suspect", "restore": "crash"}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS transitions (
    endpoint TEXT NOT NULL,
    detector TEXT NOT NULL,
    kind TEXT NOT NULL,
    t REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_transitions
    ON transitions (endpoint, detector, t);
CREATE TABLE IF NOT EXISTS snapshots (
    endpoint TEXT NOT NULL,
    detector TEXT NOT NULL,
    t REAL NOT NULL,
    qos TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_snapshots
    ON snapshots (endpoint, detector, t);
"""


@dataclass(frozen=True)
class QosWindow:
    """A window query result: the window bounds plus the extracted QoS."""

    endpoint: str
    detector: str
    start: float
    end: float
    qos: DetectorQos

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the ``/qos`` endpoint's payload entry)."""
        document = _qos_to_dict(self.qos)
        document.update(
            {
                "endpoint": self.endpoint,
                "detector": self.detector,
                "window_start": self.start,
                "window_end": self.end,
            }
        )
        return document


def _qos_to_dict(qos: DetectorQos) -> Dict[str, Any]:
    """Flatten a :class:`DetectorQos` into JSON-able scalars and samples."""
    t_d = qos.t_d
    t_m = qos.t_m
    t_mr = qos.t_mr
    return {
        "detection_time_mean": t_d.mean if t_d else None,
        "detection_time_max": qos.t_d_upper,
        "detection_samples": len(qos.td_samples),
        "undetected_crashes": qos.undetected_crashes,
        "mistake_duration_mean": t_m.mean if t_m else None,
        "mistake_recurrence_mean": t_mr.mean if t_mr else None,
        "mistakes": len(qos.mistakes),
        "query_accuracy_probability": query_accuracy(t_m, t_mr),
        "empirical_p_a": qos.empirical_p_a,
        "observation_time": qos.observation_time,
        "up_time": qos.up_time,
        "suspected_up_time": qos.suspected_up_time,
        "td_samples": list(qos.td_samples),
        "tmr_samples": list(qos.tmr_samples),
        "mistake_intervals": [[m.start, m.end] for m in qos.mistakes],
    }


def _qos_from_dict(detector: str, document: Dict[str, Any]) -> DetectorQos:
    """Rebuild a :class:`DetectorQos` from :func:`_qos_to_dict` output."""
    return DetectorQos(
        detector=detector,
        td_samples=[float(v) for v in document.get("td_samples", [])],
        undetected_crashes=int(document.get("undetected_crashes", 0)),
        mistakes=[
            MistakeInterval(start=float(s), end=float(e))
            for s, e in document.get("mistake_intervals", [])
        ],
        tmr_samples=[float(v) for v in document.get("tmr_samples", [])],
        observation_time=float(document.get("observation_time", 0.0)),
        up_time=float(document.get("up_time", 0.0)),
        suspected_up_time=float(document.get("suspected_up_time", 0.0)),
    )


class WindowedQosStore:
    """Ring-pruned sqlite store of transitions and periodic snapshots.

    Parameters
    ----------
    path:
        sqlite database path, or ``":memory:"`` (default) for an
        in-process ephemeral store.
    retention:
        Seconds of history kept by :meth:`prune` (measured back from
        the newest recorded time).
    flush_every:
        Buffered transition rows are committed once this many are
        pending.  A query inserts what is buffered into the open
        transaction and reads it there without committing; commits happen
        only here, in :meth:`flush`, :meth:`prune` and :meth:`close`.
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        retention: float = 3600.0,
        flush_every: int = 256,
    ) -> None:
        if retention <= 0:
            raise ValueError(f"retention must be > 0, got {retention!r}")
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = path
        self.retention = float(retention)
        self.flush_every = int(flush_every)
        self._connection = sqlite3.connect(path)
        # fdlint: disable=async-blocking (one-time schema DDL at store construction, before the daemon serves)
        self._connection.executescript(_SCHEMA)
        self._pending: List[Tuple[str, str, str, float]] = []
        self._last_time = float("-inf")
        self._closed = False
        # Graceful degradation: a failing backing database (disk full,
        # file deleted, corruption) swaps to a fresh in-memory store so
        # the daemon keeps serving (recent) windows.  The flag is
        # surfaced in /qos and as fd_service_degraded.
        self.degraded = False
        self.degradations_total = 0
        self._inject_sql_failures = 0
        # Self-measurement (exposed as fd_obs_* meta-metrics).
        self.transitions_total = 0
        self.snapshots_total = 0
        self.flushes_total = 0
        self.pruned_rows_total = 0

    # ------------------------------------------------------------------
    # The sqlite choke points
    # ------------------------------------------------------------------
    # All SQL flows through the two helpers below so the store has
    # exactly two blocking call sites, each with a measured bound
    # (BENCH_obs.json: batched inserts ~400k rows/s, window queries
    # ~50 ms per 25k replayed rows, ~1.1 ms for the thirty detectors of
    # an endpoint with a few mistakes each)
    # instead of a dozen scattered ones.  An executor offload would add
    # cross-thread hand-off for work that is already microseconds.

    # fdlint: disable=async-blocking (bounded choke point: ~400k rows/s inserts, ~50ms worst-case window query (history.window_query_ms), ~1.1ms per endpoint read (history.endpoint_query_ms); measured in BENCH_obs.json)
    def _sql(self, statement: str, parameters=(), *, many: bool = False):
        """Execute one statement (the store's only query/DML site).

        A :class:`sqlite3.Error` degrades the store to a fresh in-memory
        database and retries once; only a failure of the retry escapes.
        """
        try:
            if self._inject_sql_failures > 0:
                self._inject_sql_failures -= 1
                raise sqlite3.OperationalError("injected sqlite failure")
            if many:
                return self._connection.executemany(statement, parameters)
            return self._connection.execute(statement, parameters)
        except sqlite3.Error:
            self._degrade()
            if many:
                return self._connection.executemany(statement, parameters)
            return self._connection.execute(statement, parameters)

    # fdlint: disable=async-blocking (commits only at flush_every=256 rows, flush(), prune() on the snapshot tick and close(), never on a read; ~0.4 ms fsync on a local file, measured in docs/performance.md section 8)
    def _commit(self) -> None:
        """Commit the current transaction (the only commit site)."""
        try:
            if self._inject_sql_failures > 0:
                self._inject_sql_failures -= 1
                raise sqlite3.OperationalError("injected sqlite failure")
            self._connection.commit()
        except sqlite3.Error:
            self._degrade()
            self._connection.commit()

    # fdlint: disable=async-blocking (one-time in-memory schema rebuild on a degradation event, not steady-state I/O)
    def _degrade(self) -> None:
        """Fall back to a fresh in-memory database (history is lost,
        service continues).  Counted and flagged, never silent."""
        self.degraded = True
        self.degradations_total += 1
        try:
            self._connection.close()
        except sqlite3.Error:
            # The dead connection refusing to close is part of the same
            # degradation event already counted above.
            pass
        self._connection = sqlite3.connect(":memory:")
        self._connection.executescript(_SCHEMA)

    def inject_sqlite_failures(self, count: int = 1) -> None:
        """Arm ``count`` artificial sqlite failures (chaos/test hook)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        self._inject_sql_failures += int(count)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_transition(
        self, endpoint: str, detector: str, kind: str, t: float
    ) -> None:
        """Buffer one transition row.

        ``kind`` is one of :data:`TRANSITION_KINDS`; crash/restore rows
        conventionally carry ``detector=""`` (endpoint scope — they
        apply to every detector watching the endpoint).
        """
        if self._closed:
            return
        if kind not in _KIND_RANK:
            raise ValueError(
                f"unknown transition kind {kind!r}; expected one of "
                f"{TRANSITION_KINDS}"
            )
        self._pending.append((endpoint, detector, kind, float(t)))
        self.transitions_total += 1
        if t > self._last_time:
            self._last_time = float(t)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def record_suspect(self, endpoint: str, detector: str, t: float) -> None:
        """The detector started suspecting ``endpoint`` at ``t``."""
        self.record_transition(endpoint, detector, "suspect", t)

    def record_trust(self, endpoint: str, detector: str, t: float) -> None:
        """The detector stopped suspecting ``endpoint`` at ``t``."""
        self.record_transition(endpoint, detector, "trust", t)

    def record_crash(self, endpoint: str, t: float) -> None:
        """``endpoint`` crashed at ``t`` (applies to all its detectors)."""
        self.record_transition(endpoint, "", "crash", t)

    def record_restore(self, endpoint: str, t: float) -> None:
        """``endpoint`` was restored at ``t``."""
        self.record_transition(endpoint, "", "restore", t)

    def record_snapshot(
        self, endpoint: str, detector: str, t: float, qos: DetectorQos
    ) -> None:
        """Persist one cumulative accumulator snapshot."""
        if self._closed:
            return
        self._sql(
            "INSERT INTO snapshots (endpoint, detector, t, qos) "
            "VALUES (?, ?, ?, ?)",
            (endpoint, detector, float(t), json.dumps(_qos_to_dict(qos))),
        )
        self.snapshots_total += 1
        if t > self._last_time:
            self._last_time = float(t)

    def flush(self) -> None:
        """Insert buffered transition rows and commit."""
        self._insert_pending()
        self._commit()

    def _insert_pending(self) -> None:
        """What a read needs: buffered rows in the table.  Inserted into
        the open transaction, which this connection already sees; the
        commit (an fsync on a file) waits for :meth:`flush`."""
        if self._pending:
            self._sql(
                "INSERT INTO transitions (endpoint, detector, kind, t) "
                "VALUES (?, ?, ?, ?)",
                self._pending,
                many=True,
            )
            self._pending.clear()
            self.flushes_total += 1

    def prune(self, now: Optional[float] = None) -> int:
        """Delete rows older than the retention horizon; returns count.

        The horizon is ``(now or newest recorded time) - retention``.
        """
        self.flush()
        reference = now if now is not None else self._last_time
        if reference == float("-inf"):
            return 0
        horizon = reference - self.retention
        removed = 0
        for table in ("transitions", "snapshots"):
            cursor = self._sql(
                f"DELETE FROM {table} WHERE t < ?", (horizon,)
            )
            removed += cursor.rowcount
        self._commit()
        self.pruned_rows_total += removed
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def endpoints(self) -> List[str]:
        """Distinct endpoints with any recorded history, sorted."""
        self._insert_pending()
        rows = self._sql(
            "SELECT DISTINCT endpoint FROM transitions "
            "UNION SELECT DISTINCT endpoint FROM snapshots"
        ).fetchall()
        return sorted(row[0] for row in rows)

    def latest_time(self) -> Optional[float]:
        """Newest recorded time across both tables (``None`` when empty).

        Lets an offline reader (``repro qos-history``) anchor a trailing
        window without knowing the recording scheduler's clock.
        """
        self._insert_pending()
        row = self._sql(
            "SELECT MAX(t) FROM ("
            "SELECT t FROM transitions UNION ALL SELECT t FROM snapshots)"
        ).fetchone()
        return None if row is None or row[0] is None else float(row[0])

    def detectors(self, endpoint: str) -> List[str]:
        """Distinct detector ids recorded for ``endpoint``, sorted."""
        self._insert_pending()
        rows = self._sql(
            "SELECT DISTINCT detector FROM transitions "
            "WHERE endpoint = ? AND detector != '' "
            "UNION SELECT DISTINCT detector FROM snapshots "
            "WHERE endpoint = ? AND detector != ''",
            (endpoint, endpoint),
        ).fetchall()
        return sorted(row[0] for row in rows)

    def query(
        self, endpoint: str, detector: str, start: float, end: float
    ) -> QosWindow:
        """QoS of ``(start, end]`` for one ``(endpoint, detector)``.

        See the module docstring for the exact semantics (boundary
        closure at ``start``, replay, snapshot at ``end``).
        """
        return self.query_endpoint(endpoint, [detector], start, end)[0]

    def query_endpoint(
        self, endpoint: str, detectors: Sequence[str], start: float, end: float
    ) -> List[QosWindow]:
        """QoS of ``(start, end]`` for each of ``detectors`` watching
        ``endpoint``, in the order given.

        Two statements however many detectors: the state of the endpoint
        and of every detector at ``start``, and every row inside the
        window — the endpoint's crash/restore rows and the detectors'
        transitions — in ``(t, rowid)`` order.
        """
        if end < start:
            raise ValueError(
                f"window end {end!r} precedes window start {start!r}"
            )
        self._insert_pending()
        # ``''`` is the endpoint's own scope (crash/restore rows).
        scopes = list(dict.fromkeys(["", *detectors]))
        marks = ",".join(["?"] * len(scopes))
        values = ",".join(["(?)"] * len(scopes))
        state = dict(
            self._sql(
                f"WITH scope(detector) AS (VALUES {values}) "
                "SELECT detector, (SELECT kind FROM transitions "
                "WHERE endpoint = ? AND detector = scope.detector AND t <= ? "
                "ORDER BY t DESC, rowid DESC LIMIT 1) FROM scope",
                (*scopes, endpoint, start),
            )
        )
        inside: Dict[str, List[Tuple[float, int, str]]] = {
            scope: [] for scope in scopes
        }
        for scope, kind, t in self._sql(
            "SELECT detector, kind, t FROM transitions "
            f"WHERE endpoint = ? AND detector IN ({marks}) "
            "AND t > ? AND t <= ? ORDER BY t, rowid",
            (endpoint, *scopes, start, end),
        ):
            inside[scope].append((t, _KIND_RANK[kind], kind))
        # No row at or before the start (history pruned past retention, or
        # lost to a degradation): a scope whose first row inside the window
        # closes an interval was in that interval at the start.
        for scope, rows in inside.items():
            if rows and state.get(scope) is None:
                state[scope] = _OPENED_BEFORE.get(rows[0][2])
        outages = inside.pop("")
        crashed = state.get("") == "crash"
        windows = []
        for detector in detectors:
            accumulator = OnlineQosAccumulator(detector, start_time=start)
            if crashed:
                accumulator.observe_crash(start)
            if state.get(detector) == "suspect":
                accumulator.observe_suspect(start)
            replay = inside.get(detector, [])
            if outages:
                # Both lists are in (t, rowid) order and share no rank, so
                # the stable sort by (t, rank) is the same-instant rule.
                replay = sorted(outages + replay, key=_TIME_AND_RANK)
            for t, rank, kind in replay:
                if t >= end and rank == _DETECTOR_RANK and accumulator.crashed:
                    # Same-instant rule: the window's end (no row is past
                    # it) closes the crash before the detector transitions
                    # stamped with it.
                    accumulator.observe_restore(end)
                if kind == "suspect":
                    accumulator.observe_suspect(t)
                elif kind == "trust":
                    accumulator.observe_trust(t)
                elif kind == "crash":
                    accumulator.observe_crash(t)
                else:
                    accumulator.observe_restore(t)
            windows.append(
                QosWindow(
                    endpoint=endpoint,
                    detector=detector,
                    start=start,
                    end=end,
                    qos=accumulator.snapshot(end),
                )
            )
        return windows

    def query_many(
        self,
        start: float,
        end: float,
        *,
        endpoint: Optional[str] = None,
        detector: Optional[str] = None,
    ) -> List[QosWindow]:
        """Window queries over every recorded (endpoint, detector) pair,
        optionally filtered to one endpoint and/or one detector id."""
        windows: List[QosWindow] = []
        names = [endpoint] if endpoint is not None else self.endpoints()
        for name in names:
            detector_ids = (
                [detector] if detector is not None else self.detectors(name)
            )
            windows.extend(self.query_endpoint(name, detector_ids, start, end))
        return windows

    def snapshots(
        self,
        endpoint: str,
        detector: str,
        *,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> List[Tuple[float, DetectorQos]]:
        """Persisted cumulative snapshots in ``[start, end]``, by time."""
        self._insert_pending()
        rows = self._sql(
            "SELECT t, qos FROM snapshots "
            "WHERE endpoint = ? AND detector = ? AND t >= ? AND t <= ? "
            "ORDER BY t, rowid",
            (endpoint, detector, start, end),
        ).fetchall()
        return [
            (t, _qos_from_dict(detector, json.loads(payload)))
            for t, payload in rows
        ]

    def stats(self) -> Dict[str, Any]:
        """The store's self-measurement (meta-metrics payload)."""
        return {
            "transitions_total": self.transitions_total,
            "snapshots_total": self.snapshots_total,
            "flushes_total": self.flushes_total,
            "pruned_rows_total": self.pruned_rows_total,
            "pending": len(self._pending),
            "retention_seconds": self.retention,
            "path": self.path,
            "degraded": self.degraded,
            "degradations_total": self.degradations_total,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Flush and close the database; further recording no-ops."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"WindowedQosStore(path={self.path!r}, {state}, "
            f"transitions={self.transitions_total})"
        )


__all__ = ["QosWindow", "TRANSITION_KINDS", "WindowedQosStore"]
