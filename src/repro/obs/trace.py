"""Structured heartbeat tracing: span events, JSONL rotation, ring tail.

A trace follows one heartbeat across the whole pipeline:

==============  ======================================================
``kind``        emitted by / meaning
==============  ======================================================
``send``        :class:`~repro.net.udp.UdpNetwork` put the heartbeat on
                the wire
``receive``     :class:`~repro.service.daemon.MonitorDaemon` decoded
                and routed the datagram (``delay`` = one-way delay)
``fanout``      :class:`~repro.fd.multiplexer.MultiPlexer` forwarded
                the arrival to the detector bank
``freshness``   a fresh heartbeat armed the detector's timer: the
                forecast (``timeout`` = delta = prediction + safety
                margin) and the freshness point (``deadline`` = tau).  A
                :class:`~repro.fd.bank.DetectorBank` writes one per
                heartbeat, for the row its one timer is armed on (the
                earliest deadline); a lone
                :class:`~repro.fd.detector.PushFailureDetector` its own
``suspect``     the detector started suspecting (``seq`` = highest
                heartbeat sequence seen at the transition): the
                freshness point that expired (``deadline``) and the
                delta it was armed with (``timeout``)
``trust``       the detector stopped suspecting (a fresh heartbeat;
                ``timeout`` = the delta now in force)
``crash``       crash control datagram (or inferred crash) observed
``restore``     restore control datagram (or inferred restore) observed
==============  ======================================================

Beyond the heartbeat journey, subsystems reuse the same recorder:
``send-error`` (a daemon outbound send failed; ``detector`` carries the
datagram kind), ``kv-view``/``kv-promote``/``kv-demote`` (live KV
failover, :mod:`repro.kv.live`), and ``calibration-drift`` (the
:class:`~repro.obs.drift.DriftMonitor` flipped an endpoint's verdict;
``delay`` = window mean, ``timeout`` = baseline mean, ``deadline`` = KS
distance, ``seq`` = 1 drifted / 0 recovered).

The recorder is engineered for a hot path that almost never runs it:
emission sites guard on ``tracer is not None``, so the *disabled*
default costs one pointer comparison.  When enabled, every event lands
in a bounded in-memory ring (the ``/trace`` HTTP tail) and — when a
``path`` is configured — as one JSON line in an append-only file with
size-based rotation (``path`` → ``path.1`` → ``path.2`` …).

A traced heartbeat costs three spans (``receive``, ``fanout``, one
``freshness``) plus one per transition: 4–5 µs each with the JSONL sink
on a 2-CPU x86 box, most of it the shortest-round-trip spelling of each
float (≈ 0.5 µs per float there, and ``repr``, ``%r`` and ``json.dumps``
all pay it; ``docs/performance.md`` §11).
:meth:`TraceRecorder.emit_batch` takes several spans sharing ``t``,
``kind``, ``endpoint`` and ``seq`` and pays one clock pair, one
``write``, one rotation check and one eviction count for all of them;
:meth:`emit` is its one-row case.  Lines are formatted directly — byte
for byte what ``json.dumps(TraceEvent(...).to_dict(),
separators=(",", ":"))`` spells — so the JSONL stays readable by
anything that reads JSON.

The recorder also measures itself: events/bytes written, ring
evictions, failed writes, and the cumulative wall-clock overhead of
emission, exposed as meta-metrics by the service exporter so the cost
of observing never has to be guessed.  A failing sink (disk full, the
directory rotated away) never reaches the heartbeat path: the recorder
counts the error, drops to ring-only and keeps serving ``/trace``.

Single-threaded by design: the live service emits from one asyncio
event loop.  (The discrete-event simulator is single-threaded too.)
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One span of a batch: ``(detector, delay, timeout, deadline)``.
SpanRow = Tuple[str, Optional[float], Optional[float], Optional[float]]

#: Distinct names whose JSON spelling is remembered; endpoint names come
#: off the wire, so the memo is emptied rather than allowed to grow.
_QUOTED_NAMES_MAX = 4096

_INF = math.inf


@dataclass(slots=True)
class TraceEvent:
    """One span event on a heartbeat's journey (see module table)."""

    t: float
    kind: str
    endpoint: str
    detector: str = ""
    seq: int = -1
    delay: Optional[float] = None
    timeout: Optional[float] = None
    deadline: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON-able form: optional fields omitted when unset."""
        record: Dict[str, Any] = {
            "t": self.t,
            "kind": self.kind,
            "endpoint": self.endpoint,
        }
        if self.detector:
            record["detector"] = self.detector
        if self.seq >= 0:
            record["seq"] = self.seq
        if self.delay is not None and not math.isnan(self.delay):
            record["delay"] = self.delay
        if self.timeout is not None and not math.isnan(self.timeout):
            record["timeout"] = self.timeout
        if self.deadline is not None and not math.isnan(self.deadline):
            record["deadline"] = self.deadline
        return record


class TraceRecorder:
    """Low-overhead sink for :class:`TraceEvent` spans.

    Parameters
    ----------
    path:
        JSONL output file; ``None`` keeps events in memory only (the
        ring still serves the ``/trace`` tail).
    ring_capacity:
        Number of most-recent events retained in memory.
    max_bytes:
        Rotate the JSONL file when it grows past this size.
    backups:
        Rotated generations kept (``path.1`` … ``path.<backups>``).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        ring_capacity: int = 4096,
        max_bytes: int = 16 * 1024 * 1024,
        backups: int = 2,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
        if max_bytes < 4096:
            raise ValueError(f"max_bytes must be >= 4096, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = path
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        #: ``TraceEvent`` fields as plain tuples, in field order.
        self._ring: "deque[Tuple[Any, ...]]" = deque(maxlen=ring_capacity)
        self._quoted: Dict[str, str] = {}
        self._file: Optional[io.TextIOWrapper] = None
        self._file_bytes = 0
        if path is not None:
            # fdlint: disable=async-blocking (opens the JSONL sink once at construction, before the daemon serves)
            self._file = open(path, "a", encoding="utf-8")
            self._file_bytes = self._file.tell()
        self._closed = False
        # Self-measurement (exposed as fd_obs_* meta-metrics).
        self.events_total = 0
        self.bytes_total = 0
        self.evicted_total = 0
        self.rotations_total = 0
        self.write_errors_total = 0
        self.overhead_seconds = 0.0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        t: float,
        kind: str,
        endpoint: str,
        *,
        detector: str = "",
        seq: int = -1,
        delay: Optional[float] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Record one span event (no-op after :meth:`close`)."""
        self.emit_batch(
            t, kind, endpoint, ((detector, delay, timeout, deadline),), seq=seq
        )

    def emit_batch(
        self,
        t: float,
        kind: str,
        endpoint: str,
        rows: Sequence[SpanRow],
        *,
        seq: int = -1,
    ) -> None:
        """Record one span per ``(detector, delay, timeout, deadline)``
        row, all sharing ``t``, ``kind``, ``endpoint`` and ``seq``, in
        row order (no-op after :meth:`close`).

        Ring, file and counters end up exactly as after one :meth:`emit`
        per row, except that the size-based rotation is checked once,
        after the batch.
        """
        if self._closed:
            return
        # fdlint: disable=clock-discipline (observer self-measurement: emission overhead is wall-clock by definition, exported as the fd_obs overhead meta-metric)
        started = perf_counter()
        ring = self._ring
        file = self._file
        # A loop, not a comprehension: most batches are one row (every
        # :meth:`emit`), and a comprehension is a call of its own.
        spans: List[Tuple[Any, ...]] = []
        for detector, delay, timeout, deadline in rows:
            spans.append((t, kind, endpoint, detector, seq, delay, timeout, deadline))
        if file is not None:
            # The formatter is written out in this one loop on purpose: a
            # helper call per field would cost more than the formatting.
            # Finite floats are spelled by ``float.__repr__`` (what the
            # JSON encoder uses); every other value, and every name on its
            # first sight, by ``json.dumps`` itself.
            dumps = json.dumps
            isnan = math.isnan
            number = float.__repr__
            quoted = self._quoted
            if len(quoted) > _QUOTED_NAMES_MAX:
                quoted.clear()
            head = (
                '{"t":'
                + (number(t) if type(t) is float and -_INF < t < _INF else dumps(t))
                + ',"kind":'
                + (quoted.get(kind) or quoted.setdefault(kind, dumps(kind)))
                + ',"endpoint":'
                + (quoted.get(endpoint) or quoted.setdefault(endpoint, dumps(endpoint)))
            )
            if seq >= 0:
                sequence = ',"seq":' + (str(seq) if type(seq) is int else dumps(seq))
            else:
                sequence = ""
            pieces: List[str] = []
            piece = pieces.append
            for detector, delay, timeout, deadline in rows:
                piece(head)
                if detector:
                    piece(',"detector":')
                    piece(
                        quoted.get(detector)
                        or quoted.setdefault(detector, dumps(detector))
                    )
                piece(sequence)
                if delay is not None:
                    if type(delay) is float and -_INF < delay < _INF:
                        piece(',"delay":')
                        piece(number(delay))
                    elif not isnan(delay):
                        piece(',"delay":')
                        piece(dumps(delay))
                if timeout is not None:
                    if type(timeout) is float and -_INF < timeout < _INF:
                        piece(',"timeout":')
                        piece(number(timeout))
                    elif not isnan(timeout):
                        piece(',"timeout":')
                        piece(dumps(timeout))
                if deadline is not None:
                    if type(deadline) is float and -_INF < deadline < _INF:
                        piece(',"deadline":')
                        piece(number(deadline))
                    elif not isnan(deadline):
                        piece(',"deadline":')
                        piece(dumps(deadline))
                piece("}\n")
            text = "".join(pieces)
            try:
                # fdlint: disable=async-blocking (bounded: one buffered write per batch of JSONL lines; ~2.5us for a lone span, formatting included, measured in BENCH_obs.json trace.jsonl_ns_per_event; a traced heartbeat writes three spans plus one per transition)
                file.write(text)
                # json.dumps escapes everything outside ASCII: one
                # character is one byte.
                self.bytes_total += len(text)
                self._file_bytes += len(text)
                if self._file_bytes >= self.max_bytes:
                    self._rotate()
            except OSError:
                # A sick sink must not kill the datagram handler that is
                # emitting: count it and go on ring-only.
                self.write_errors_total += 1
                self._file = None
                try:
                    file.close()
                except OSError:
                    pass  # the same failure, already counted
        overflow = len(ring) + len(spans) - ring.maxlen
        if overflow > 0:
            self.evicted_total += overflow
        ring.extend(spans)
        self.events_total += len(spans)
        # fdlint: disable=clock-discipline (observer self-measurement, see the matching pragma at the start of emit_batch)
        self.overhead_seconds += perf_counter() - started

    # fdlint: disable=async-blocking (rotation runs once per max_bytes (~220k events at defaults) and is bounded by three renames plus one open)
    def _rotate(self) -> None:
        assert self._file is not None and self.path is not None
        self._file.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                source = f"{self.path}.{index}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._file_bytes = 0
        self.rotations_total += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def tail(
        self,
        limit: int = 100,
        *,
        endpoint: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """The most recent ``limit`` events, oldest first, as dicts.

        ``endpoint`` / ``kind`` filter *before* the limit is applied,
        so a scoped tail reaches as deep into the ring as it can — a
        post-mortem on one endpoint never has to download the whole
        ring to find its spans.
        """
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        spans = [
            span
            for span in self._ring
            if (endpoint is None or span[2] == endpoint)
            and (kind is None or span[1] == kind)
        ]
        if limit < len(spans):
            spans = spans[len(spans) - limit:]
        return [TraceEvent(*span).to_dict() for span in spans]

    def stats(self) -> Dict[str, Any]:
        """The recorder's self-measurement (meta-metrics payload)."""
        return {
            "events_total": self.events_total,
            "bytes_total": self.bytes_total,
            "evicted_total": self.evicted_total,
            "rotations_total": self.rotations_total,
            "write_errors_total": self.write_errors_total,
            "overhead_seconds": self.overhead_seconds,
            "ring_size": len(self._ring),
            "ring_capacity": self._ring.maxlen,
            "path": self.path,
        }

    def flush(self) -> None:
        """Push buffered JSONL lines to the OS."""
        if self._file is not None:
            # fdlint: disable=async-blocking (operator-facing flush; called at close/shutdown, off the heartbeat hot path)
            self._file.flush()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Flush and close the JSONL file; further emits no-op."""
        if self._closed:
            return
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"TraceRecorder(path={self.path!r}, {state}, "
            f"events={self.events_total})"
        )


__all__ = ["SpanRow", "TraceEvent", "TraceRecorder"]
