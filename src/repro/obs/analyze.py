"""Trace-driven analysis: the paper's post-hoc method, over recorded spans.

The paper's whole methodology is offline analysis of recorded heartbeat
traces — per-hop delay distributions (Table 4) and detector mistake
accounting (Figures 4–8).  This module replays a recorded
``fd-trace.jsonl`` (the :class:`~repro.obs.trace.TraceRecorder` output,
rotated backups included) into exactly that analysis:

* **per-hop latency breakdowns** — for every heartbeat joined by
  ``(endpoint, seq)``: emit→intake (the one-way network delay),
  intake→fanout (daemon routing), fanout→decision (detector freshness
  consumption), and the end-to-end emit→decision total, summarised as
  p50/p95/p99 per endpoint;
* **detector-decision post-mortems** — for every suspect/trust span
  pair: the freshness point that expired (``deadline``), the strategy's
  prediction (``timeout``), how late the resolving heartbeat missed the
  deadline (``margin``), and the in-flight heartbeats that would have
  prevented the mistake had they arrived inside the freshness window;
* **mistake timelines / QoS from spans alone** — the suspect/trust/
  crash/restore spans replayed through fresh
  :class:`~repro.nekostat.metrics.OnlineQosAccumulator` instances,
  reproducing the live daemon's online QoS numbers without ever seeing
  the daemon's state (cross-checkable against a
  :class:`~repro.obs.history.WindowedQosStore` snapshot trail).

Everything here is an offline CLI/analysis path (``repro trace-analyze``
and ``repro postmortem``) — file I/O is deliberate and bounded by the
trace size, off any event loop.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nekostat.metrics import DetectorQos, OnlineQosAccumulator

#: Span kinds that drive the QoS replay (detector verdicts + liveness).
_QOS_KINDS = frozenset({"suspect", "trust", "crash", "restore"})

#: Hop names in pipeline order (the keys of every breakdown dict).
HOPS = ("emit_to_intake", "intake_to_fanout", "fanout_to_decision", "total")


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def rotated_paths(path: str) -> List[str]:
    """All on-disk generations of ``path``, oldest first.

    The recorder rotates ``path`` → ``path.1`` → ``path.2`` …, so the
    chronological read order is the highest-numbered backup down to the
    live file.  Missing generations are skipped (rotation may not have
    happened yet).
    """
    generations: List[str] = []
    index = 1
    while os.path.exists(f"{path}.{index}"):
        generations.append(f"{path}.{index}")
        index += 1
    generations.reverse()
    if os.path.exists(path):
        generations.append(path)
    return generations


def read_trace_file(path: str) -> List[Dict[str, Any]]:
    """Read one JSONL trace including its rotated backups, oldest first.

    A trailing partial line (a crash mid-write) is tolerated and
    skipped; everything else must be valid JSON.
    """
    paths = rotated_paths(path)
    if not paths:
        raise FileNotFoundError(f"no such trace file: {path}")
    events: List[Dict[str, Any]] = []
    for generation in paths:
        with open(generation, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    # Torn tail of an interrupted writer: drop it.
                    continue
    return events


def load_events(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load and merge one or more trace files into one event stream.

    A single file keeps its write order (the causal order of the
    single-threaded emitter).  Multiple files — e.g. a daemon's
    ``fd-trace.jsonl`` plus a remote emitter's ``hb-trace.jsonl`` — are
    merged by a stable sort on ``t``, which preserves each file's
    internal order at equal timestamps.
    """
    if not paths:
        raise ValueError("at least one trace path is required")
    if len(paths) == 1:
        return read_trace_file(paths[0])
    merged: List[Dict[str, Any]] = []
    for path in paths:
        merged.extend(read_trace_file(path))
    merged.sort(key=lambda event: event.get("t", 0.0))
    return merged


# ----------------------------------------------------------------------
# Per-hop latency breakdowns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HopStats:
    """Summary of one hop's latency samples (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def _summarise(samples: List[float]) -> Optional[HopStats]:
    if not samples:
        return None
    arr = np.asarray(samples, dtype=float)
    p50, p95, p99 = np.percentile(arr, (50.0, 95.0, 99.0))
    return HopStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        maximum=float(arr.max()),
    )


def hop_breakdown(
    events: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Optional[HopStats]]]:
    """Per-endpoint per-hop latency summaries, joined by ``(endpoint, seq)``.

    The emit time comes from the ``send`` span when present; otherwise
    it is recovered from the ``receive`` span's recorded one-way
    ``delay`` (``emit = receive.t - delay``), so daemon-only traces
    still yield the network hop.  ``fanout→decision`` and ``total`` are
    sampled once per heartbeat, at its first ``freshness`` span: a
    detector bank writes one, and the per-detector spans of older traces
    all share the bank's ``t``.
    """
    # (endpoint, seq) -> [send_t, receive_t, receive_delay, fanout_t,
    # decided_t]
    journeys: Dict[Tuple[str, int], List[Optional[float]]] = {}
    samples: Dict[str, Dict[str, List[float]]] = {}

    def journey(endpoint: str, seq: int) -> List[Optional[float]]:
        return journeys.setdefault((endpoint, seq), [None, None, None, None, None])

    def bucket(endpoint: str, hop: str) -> List[float]:
        return samples.setdefault(endpoint, {}).setdefault(hop, [])

    for event in events:
        kind = event.get("kind")
        seq = event.get("seq")
        endpoint = event.get("endpoint", "")
        if seq is None or not endpoint:
            continue
        if kind == "send":
            journey(endpoint, seq)[0] = event["t"]
        elif kind == "receive":
            slots = journey(endpoint, seq)
            slots[1] = event["t"]
            slots[2] = event.get("delay")
        elif kind == "fanout":
            journey(endpoint, seq)[3] = event["t"]
        elif kind == "freshness":
            slots = journeys.get((endpoint, seq))
            if slots is not None and slots[3] is not None and slots[4] is None:
                slots[4] = event["t"]
                bucket(endpoint, "fanout_to_decision").append(
                    event["t"] - slots[3]
                )
                emit_t = _emit_time(slots)
                if emit_t is not None:
                    bucket(endpoint, "total").append(event["t"] - emit_t)

    for (endpoint, _seq), slots in journeys.items():
        receive_t, fanout_t = slots[1], slots[3]
        emit_t = _emit_time(slots)
        if receive_t is not None and emit_t is not None:
            bucket(endpoint, "emit_to_intake").append(receive_t - emit_t)
        if receive_t is not None and fanout_t is not None:
            bucket(endpoint, "intake_to_fanout").append(fanout_t - receive_t)

    return {
        endpoint: {hop: _summarise(hops.get(hop, [])) for hop in HOPS}
        for endpoint, hops in sorted(samples.items())
    }


def _emit_time(slots: List[Optional[float]]) -> Optional[float]:
    send_t, receive_t, receive_delay = slots[:3]
    if send_t is not None:
        return send_t
    if receive_t is not None and receive_delay is not None:
        return receive_t - receive_delay
    return None


# ----------------------------------------------------------------------
# QoS from spans alone
# ----------------------------------------------------------------------
@dataclass
class SpanQos:
    """The QoS replay result for one ``(endpoint, detector)`` series."""

    endpoint: str
    detector: str
    qos: DetectorQos
    suspecting_at_end: bool
    inconsistencies: int = 0


def qos_from_spans(
    events: Iterable[Dict[str, Any]],
    *,
    end_time: Optional[float] = None,
    detectors: Optional[Sequence[str]] = None,
) -> Dict[Tuple[str, str], SpanQos]:
    """Replay detector transitions through fresh online accumulators.

    ``crash``/``restore`` spans carry no detector label and fan out to
    every detector series already seen (and seed series seen later —
    a second pass handles detectors whose first transition follows the
    first crash).  Events must be in causal (file) order; an event that
    violates the accumulator's ordering contract — possible when
    analysing a hand-merged or truncated trace — is counted as an
    inconsistency rather than aborting the analysis.
    """
    wanted = set(detectors) if detectors is not None else None
    ordered = [e for e in events if e.get("kind") in _QOS_KINDS]

    # First pass: discover each endpoint's detector set and first span
    # time, so liveness events can fan out to series created later.
    first_seen: Dict[str, float] = {}
    pairs: Dict[str, List[str]] = {}
    for event in ordered:
        endpoint = event.get("endpoint", "")
        if not endpoint:
            continue
        first_seen.setdefault(endpoint, event["t"])
        detector = event.get("detector", "")
        if detector and detector not in pairs.setdefault(endpoint, []):
            if wanted is None or detector in wanted:
                pairs[endpoint].append(detector)

    accumulators: Dict[Tuple[str, str], OnlineQosAccumulator] = {}
    suspecting: Dict[Tuple[str, str], bool] = {}
    errors: Dict[Tuple[str, str], int] = {}
    for endpoint, ids in pairs.items():
        for detector in ids:
            key = (endpoint, detector)
            accumulators[key] = OnlineQosAccumulator(
                detector, start_time=first_seen[endpoint]
            )
            suspecting[key] = False
            errors[key] = 0

    last_t = 0.0
    for event in ordered:
        endpoint = event.get("endpoint", "")
        kind = event["kind"]
        t = event["t"]
        last_t = max(last_t, t)
        if kind in ("crash", "restore"):
            targets = [
                key for key in accumulators if key[0] == endpoint
            ]
        else:
            detector = event.get("detector", "")
            key = (endpoint, detector)
            if key not in accumulators:
                continue
            targets = [key]
        for key in targets:
            accumulator = accumulators[key]
            try:
                if kind == "suspect":
                    accumulator.observe_suspect(t)
                    suspecting[key] = True
                elif kind == "trust":
                    accumulator.observe_trust(t)
                    suspecting[key] = False
                elif kind == "crash":
                    accumulator.observe_crash(t)
                else:
                    accumulator.observe_restore(t)
            except ValueError:
                errors[key] += 1

    close_at = end_time if end_time is not None else last_t
    result: Dict[Tuple[str, str], SpanQos] = {}
    for key, accumulator in accumulators.items():
        endpoint, detector = key
        try:
            qos = accumulator.snapshot(max(close_at, accumulator.last_time))
        except ValueError:
            qos = accumulator.snapshot()
        result[key] = SpanQos(
            endpoint=endpoint,
            detector=detector,
            qos=qos,
            suspecting_at_end=suspecting[key],
            inconsistencies=errors[key],
        )
    return result


# ----------------------------------------------------------------------
# Post-mortems
# ----------------------------------------------------------------------
@dataclass
class PostMortem:
    """Why one suspicion happened, reconstructed from spans.

    ``margin`` is how late the resolving heartbeat crossed the expired
    freshness point (``resolve_receive_t - deadline``); ``preventers``
    are the heartbeats received during the suspicion whose earlier
    arrival — before ``deadline`` — would have avoided it entirely.
    """

    endpoint: str
    detector: str
    suspect_t: float
    trust_t: Optional[float]
    duration: Optional[float]
    kind: str  # "mistake" (endpoint was up) or "detection" (crashed)
    freshness_seq: Optional[int]
    prediction: Optional[float]  # strategy timeout (delta) at arming
    deadline: Optional[float]  # the expired freshness point (tau)
    margin: Optional[float]
    preventers: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "detector": self.detector,
            "suspect_t": self.suspect_t,
            "trust_t": self.trust_t,
            "duration": self.duration,
            "kind": self.kind,
            "freshness_seq": self.freshness_seq,
            "prediction": self.prediction,
            "deadline": self.deadline,
            "margin": self.margin,
            "preventers": self.preventers,
        }


def post_mortems(
    events: Iterable[Dict[str, Any]],
    *,
    endpoint: Optional[str] = None,
    detector: Optional[str] = None,
) -> List[PostMortem]:
    """One :class:`PostMortem` per suspect span, in trace order.

    A ``suspect`` span carries the freshness point that expired
    (``deadline``), the time-out it was armed with (``timeout``) and the
    arming heartbeat (``seq``).  A trace written before suspect spans
    carried them has one ``freshness`` span per detector and heartbeat
    instead, and a suspect span without ``deadline`` reads its detector's
    last one.  Receives are looked up by time, so events must be in time
    order, as :func:`load_events` returns them.
    """
    # Per endpoint: receive times and spans, for the resolving heartbeats.
    receives: Dict[str, Tuple[List[float], List[Dict[str, Any]]]] = {}
    # Last freshness span per (endpoint, detector), for older traces.
    freshness: Dict[Tuple[str, str], Dict[str, Any]] = {}
    crashed: Dict[str, bool] = {}
    open_mortems: Dict[Tuple[str, str], PostMortem] = {}
    mortems: List[PostMortem] = []

    for event in events:
        kind = event.get("kind")
        name = event.get("endpoint", "")
        if kind == "receive":
            times, spans = receives.setdefault(name, ([], []))
            times.append(event["t"])
            spans.append(event)
        elif kind == "freshness":
            freshness[(name, event.get("detector", ""))] = event
        elif kind == "crash":
            crashed[name] = True
        elif kind == "restore":
            crashed[name] = False
        elif kind == "suspect":
            det = event.get("detector", "")
            if endpoint is not None and name != endpoint:
                continue
            if detector is not None and det != detector:
                continue
            armed = event if "deadline" in event else freshness.get((name, det))
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
            det = event.get("detector", "")
            mortem = open_mortems.pop((name, det), None)
            if mortem is None:
                continue
            mortem.trust_t = event["t"]
            mortem.duration = event["t"] - mortem.suspect_t
            times, spans = receives.get(name, ([], []))
            _attach_resolution(
                mortem,
                spans[
                    bisect_right(times, mortem.suspect_t):
                    bisect_right(times, mortem.trust_t)
                ],
            )
    return mortems


def _attach_resolution(
    mortem: PostMortem, receive_log: Sequence[Dict[str, Any]]
) -> None:
    """Fill ``margin`` and ``preventers`` from the receives that arrived
    during the suspicion (``suspect_t < t <= trust_t``), in order."""
    deadline = mortem.deadline
    for event in receive_log:
        t = event["t"]
        entry: Dict[str, Any] = {
            "seq": event.get("seq"),
            "receive_t": t,
            "delay": event.get("delay"),
        }
        if deadline is not None:
            late_by = t - deadline
            entry["late_by"] = late_by
            delay = event.get("delay")
            if delay is not None and delay > late_by:
                # Had this heartbeat's network delay been late_by
                # shorter it would have beaten the freshness point.
                entry["preventing_delay"] = delay - late_by
            if mortem.margin is None:
                mortem.margin = late_by
        mortem.preventers.append(entry)


# ----------------------------------------------------------------------
# Whole-trace analysis + cross-checking
# ----------------------------------------------------------------------
@dataclass
class TraceAnalysis:
    """Everything ``repro trace-analyze`` computes from one trace."""

    events_total: int
    kinds: Dict[str, int]
    time_span: Tuple[float, float]
    hops: Dict[str, Dict[str, Optional[HopStats]]]
    qos: Dict[Tuple[str, str], SpanQos]
    mortems: List[PostMortem]

    def to_dict(self) -> Dict[str, Any]:
        endpoints: Dict[str, Any] = {}
        for (endpoint, detector), span_qos in sorted(self.qos.items()):
            qos = span_qos.qos
            t_d = qos.t_d
            t_m = qos.t_m
            t_mr = qos.t_mr
            endpoints.setdefault(endpoint, {})[detector] = {
                "mistakes": len(qos.mistakes),
                "t_d_mean": t_d.mean if t_d else None,
                "t_d_max": qos.t_d_upper,
                "t_m_mean": t_m.mean if t_m else None,
                "t_mr_mean": t_mr.mean if t_mr else None,
                "p_a": qos.p_a,
                "undetected_crashes": qos.undetected_crashes,
                "suspecting_at_end": span_qos.suspecting_at_end,
                "inconsistencies": span_qos.inconsistencies,
            }
        return {
            "events_total": self.events_total,
            "kinds": dict(sorted(self.kinds.items())),
            "time_span": list(self.time_span),
            "hops": {
                endpoint: {
                    hop: stats.to_dict() if stats is not None else None
                    for hop, stats in hops.items()
                }
                for endpoint, hops in self.hops.items()
            },
            "qos": endpoints,
            "post_mortems": [mortem.to_dict() for mortem in self.mortems],
        }


def analyze(
    events: Sequence[Dict[str, Any]],
    *,
    end_time: Optional[float] = None,
    detectors: Optional[Sequence[str]] = None,
) -> TraceAnalysis:
    """Run every analysis over one loaded event stream."""
    kinds: Dict[str, int] = {}
    t_min = math.inf
    t_max = -math.inf
    for event in events:
        kinds[event.get("kind", "?")] = kinds.get(event.get("kind", "?"), 0) + 1
        t = event.get("t")
        if t is not None:
            t_min = min(t_min, t)
            t_max = max(t_max, t)
    if not events:
        t_min = t_max = 0.0
    return TraceAnalysis(
        events_total=len(events),
        kinds=kinds,
        time_span=(t_min, t_max),
        hops=hop_breakdown(events),
        qos=qos_from_spans(events, end_time=end_time, detectors=detectors),
        mortems=post_mortems(events),
    )


def cross_check(
    analysis: TraceAnalysis,
    reference: Dict[Tuple[str, str], DetectorQos],
    *,
    p_a_tolerance: float = 1e-3,
) -> List[str]:
    """Compare span-derived QoS against a reference (e.g. the live
    accumulators, or the newest :class:`WindowedQosStore` snapshots).

    Returns human-readable disagreement lines; empty means the trace
    reproduces the reference.  Mistake and detection counts must match
    exactly; ``P_A`` within ``p_a_tolerance`` (span and accumulator
    timestamps are sampled microseconds apart on a real event loop).
    """
    problems: List[str] = []
    for key, expected in sorted(reference.items()):
        endpoint, detector = key
        span_qos = analysis.qos.get(key)
        if span_qos is None:
            if expected.mistakes or expected.td_samples:
                problems.append(f"{endpoint}/{detector}: missing from trace")
            continue
        actual = span_qos.qos
        if len(actual.mistakes) != len(expected.mistakes):
            problems.append(
                f"{endpoint}/{detector}: mistakes {len(actual.mistakes)} "
                f"!= reference {len(expected.mistakes)}"
            )
        if len(actual.td_samples) != len(expected.td_samples):
            problems.append(
                f"{endpoint}/{detector}: T_D samples {len(actual.td_samples)} "
                f"!= reference {len(expected.td_samples)}"
            )
        if abs(actual.p_a - expected.p_a) > p_a_tolerance:
            problems.append(
                f"{endpoint}/{detector}: P_A {actual.p_a:.6f} vs "
                f"reference {expected.p_a:.6f}"
            )
    return problems


def history_reference(
    store: Any,
) -> Dict[Tuple[str, str], DetectorQos]:
    """The newest persisted snapshot per series of a
    :class:`~repro.obs.history.WindowedQosStore` (cross-check input)."""
    reference: Dict[Tuple[str, str], DetectorQos] = {}
    for endpoint in store.endpoints():
        for detector in store.detectors(endpoint):
            rows = store.snapshots(endpoint, detector)
            if rows:
                reference[(endpoint, detector)] = rows[-1][1]
    return reference


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:9.3f}"


def format_analysis(analysis: TraceAnalysis) -> str:
    """The ``repro trace-analyze`` text report."""
    t0, t1 = analysis.time_span
    lines = [
        f"trace: {analysis.events_total} events over {t1 - t0:.3f}s "
        f"({', '.join(f'{k}={v}' for k, v in sorted(analysis.kinds.items()))})",
        "",
        "per-hop latency (ms):",
        f"  {'endpoint':<14} {'hop':<18} {'count':>7} {'p50':>9} "
        f"{'p95':>9} {'p99':>9} {'max':>9}",
    ]
    for endpoint, hops in analysis.hops.items():
        for hop in HOPS:
            stats = hops.get(hop)
            if stats is None:
                continue
            lines.append(
                f"  {endpoint:<14} {hop:<18} {stats.count:>7} "
                f"{_ms(stats.p50)} {_ms(stats.p95)} {_ms(stats.p99)} "
                f"{_ms(stats.maximum)}"
            )
    lines += [
        "",
        "QoS replayed from spans:",
        f"  {'endpoint':<14} {'detector':<16} {'mist':>5} {'T_D ms':>9} "
        f"{'T_M ms':>9} {'P_A':>9}",
    ]
    for (endpoint, detector), span_qos in sorted(analysis.qos.items()):
        qos = span_qos.qos
        t_d = qos.t_d
        t_m = qos.t_m
        lines.append(
            f"  {endpoint:<14} {detector:<16} {len(qos.mistakes):>5} "
            f"{_ms(t_d.mean if t_d else None)} "
            f"{_ms(t_m.mean if t_m else None)} {qos.p_a:9.6f}"
        )
    mistakes = [m for m in analysis.mortems if m.kind == "mistake"]
    lines.append("")
    lines.append(
        f"post-mortems: {len(analysis.mortems)} suspicions "
        f"({len(mistakes)} mistakes)"
    )
    return "\n".join(lines)


def format_post_mortems(mortems: Sequence[PostMortem]) -> str:
    """The ``repro postmortem`` text report."""
    if not mortems:
        return "no suspicions in trace"
    lines: List[str] = []
    for index, mortem in enumerate(mortems):
        duration = (
            f"{mortem.duration * 1e3:.1f}ms"
            if mortem.duration is not None
            else "unresolved"
        )
        lines.append(
            f"[{index}] {mortem.kind} {mortem.endpoint}/{mortem.detector} "
            f"at t={mortem.suspect_t:.6f} ({duration})"
        )
        if mortem.deadline is not None:
            prediction = (
                f"{mortem.prediction * 1e3:.1f}ms"
                if mortem.prediction is not None
                else "?"
            )
            lines.append(
                f"    freshness point {mortem.deadline:.6f} expired "
                f"(prediction {prediction}, last seq "
                f"{mortem.freshness_seq})"
            )
        if mortem.margin is not None:
            lines.append(
                f"    resolving heartbeat missed the deadline by "
                f"{mortem.margin * 1e3:.1f}ms"
            )
        for entry in mortem.preventers[:3]:
            if entry.get("preventing_delay") is not None:
                lines.append(
                    f"    seq {entry['seq']} (delay "
                    f"{entry['delay'] * 1e3:.1f}ms) would have prevented "
                    f"it under {entry['preventing_delay'] * 1e3:.1f}ms"
                )
    return "\n".join(lines)


__all__ = [
    "HOPS",
    "HopStats",
    "PostMortem",
    "SpanQos",
    "TraceAnalysis",
    "analyze",
    "cross_check",
    "format_analysis",
    "format_post_mortems",
    "history_reference",
    "hop_breakdown",
    "load_events",
    "post_mortems",
    "qos_from_spans",
    "read_trace_file",
    "rotated_paths",
]
