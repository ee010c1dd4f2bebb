"""QoS metric extraction: from events to T_D, T_M, T_MR, P_A.

Definitions follow Chen, Toueg & Aguilera (DSN 2000), as used by the paper
(its Figure 1):

* **T_D, detection time** — for each crash, the interval from the crash to
  the start of the *permanent* suspicion: the suspicion that persists until
  the process is restored.  A suspicion raised during the crash but
  corrected before restoration (a stale in-flight heartbeat arrived) is not
  permanent.  If the detector was already suspecting when the crash
  happened and that suspicion persisted, the detection was effectively
  immediate and ``T_D = 0``.
* **T_M, mistake duration** — the length of each *mistake*: a maximal
  suspicion interval that starts while the monitored process is up and is
  not the permanent detection of a crash.
* **T_MR, mistake recurrence time** — the interval between the starts of
  successive mistakes.
* **T_D^U** — the largest observed detection time.
* **P_A, query accuracy probability** — ``(T_MR − T_M) / T_MR`` on the
  mean values; equals the probability that the detector's output is
  correct at a random instant while the process is up.

All computation is done on the event log alone.
:func:`qos_from_suspicion_arrays` is the one batch extractor (event log,
trace replay and span replay all call it); :class:`OnlineQosAccumulator`
streams the same metrics for the live daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.nekostat.stats import SummaryStats, summarize

_EPS = 1e-9


class MistakeInterval(NamedTuple):
    """One mistake: an erroneous suspicion and its correction.

    A tuple, so a run's thousands of mistakes are built by one C-level
    ``map`` over the interval arrays and pooled by unpacking.
    """

    start: float
    end: float

    @property
    def duration(self) -> float:
        """The mistake duration ``T_M`` contribution, seconds."""
        return self.end - self.start


def query_accuracy(
    t_m: Optional[SummaryStats], t_mr: Optional[SummaryStats]
) -> float:
    """``P_A = (T_MR − T_M) / T_MR`` on the means of the two summaries.

    1.0 when either is ``None`` (no mistake), 0.0 when the mean
    recurrence is not positive, never below 0.0.  Callers that already
    hold the summaries pass them instead of summarising the samples again.
    """
    if t_m is None or t_mr is None:
        return 1.0
    if t_mr.mean <= 0:
        return 0.0
    return max(0.0, (t_mr.mean - t_m.mean) / t_mr.mean)


@dataclass
class DetectorQos:
    """The QoS samples extracted for one failure-detector combination."""

    detector: str
    td_samples: List[float] = field(default_factory=list)
    undetected_crashes: int = 0
    mistakes: List[MistakeInterval] = field(default_factory=list)
    tmr_samples: List[float] = field(default_factory=list)
    observation_time: float = 0.0
    up_time: float = 0.0
    suspected_up_time: float = 0.0

    # ------------------------------------------------------------------
    # Derived metrics (seconds)
    # ------------------------------------------------------------------
    @property
    def t_d(self) -> Optional[SummaryStats]:
        """Summary of detection times, or ``None`` if no crash detected."""
        if not self.td_samples:
            return None
        return summarize(self.td_samples)

    @property
    def t_d_upper(self) -> Optional[float]:
        """``T_D^U``: the maximum observed detection time."""
        if not self.td_samples:
            return None
        return max(self.td_samples)

    @property
    def t_m(self) -> Optional[SummaryStats]:
        """Summary of mistake durations, or ``None`` if mistake-free."""
        if not self.mistakes:
            return None
        return summarize([end - start for start, end in self.mistakes])

    @property
    def t_mr(self) -> Optional[SummaryStats]:
        """Summary of mistake recurrence times.

        Needs at least two mistakes; with exactly one, the recurrence time
        is estimated as the whole up-time (a single mistake in the run
        means recurrences are at least that long).
        """
        if self.tmr_samples:
            return summarize(self.tmr_samples)
        if self.mistakes and self.up_time > 0:
            return summarize([self.up_time])
        return None

    @property
    def p_a(self) -> float:
        """Query accuracy probability from mean ``T_MR`` and ``T_M``
        (:func:`query_accuracy`); a mistake-free run yields 1.0."""
        return query_accuracy(self.t_m, self.t_mr)

    @property
    def empirical_p_a(self) -> float:
        """Fraction of up-time during which the detector trusted the
        process — a direct estimate of availability, reported alongside
        the paper's ratio-of-means ``P_A``."""
        if self.up_time <= 0:
            return 1.0
        return max(0.0, 1.0 - self.suspected_up_time / self.up_time)

    @property
    def mistake_rate(self) -> float:
        """Mistakes per second of up-time."""
        if self.up_time <= 0:
            return 0.0
        return len(self.mistakes) / self.up_time


def _suspicion_intervals_by_detector(
    events: Iterable[StatEvent], detectors: Sequence[str], end_time: float
) -> Dict[str, List[Tuple[float, float]]]:
    """Maximal [start, end) suspicion intervals of each detector, from one
    pass over the log; an id that never appears keeps an empty list."""
    intervals: Dict[str, List[Tuple[float, float]]] = {
        detector: [] for detector in detectors
    }
    open_starts: Dict[str, float] = {}
    for event in events:
        detector = event.detector
        found = intervals.get(detector)  # type: ignore[arg-type]
        if found is None:
            continue
        if event.kind is EventKind.START_SUSPECT:
            if detector in open_starts:
                raise ValueError(
                    f"detector {detector!r}: StartSuspect while already suspecting "
                    f"at t={event.time:.6f}"
                )
            open_starts[detector] = event.time
        elif event.kind is EventKind.END_SUSPECT:
            if detector not in open_starts:
                raise ValueError(
                    f"detector {detector!r}: EndSuspect without StartSuspect "
                    f"at t={event.time:.6f}"
                )
            found.append((open_starts.pop(detector), event.time))
    for detector, open_start in open_starts.items():
        intervals[detector].append((open_start, max(open_start, end_time)))
    return intervals


def extract_qos(
    log: EventLog,
    *,
    end_time: Optional[float] = None,
    detectors: Optional[Sequence[str]] = None,
    start_time: float = 0.0,
) -> Dict[str, DetectorQos]:
    """Per-detector QoS from an event log: the log's parse into
    suspicion and crash intervals, then :func:`qos_from_suspicion_arrays`
    once per detector.

    ``end_time`` (default: the last event's time) closes open intervals;
    ``detectors`` restricts the ids (default: all that appear);
    ``start_time`` is where observation and up time start counting (0.0
    for a simulated run, the loop time it was built at for a real-time
    one).
    """
    if end_time is None:
        end_time = log[-1].time if len(log) else 0.0
    crashes = np.array(log.crash_intervals(end_time=end_time), float).reshape(-1, 2)
    detector_ids = list(detectors) if detectors is not None else log.detectors()
    intervals_of = _suspicion_intervals_by_detector(log, detector_ids, end_time)
    results: Dict[str, DetectorQos] = {}
    for detector in detector_ids:
        intervals = np.array(intervals_of[detector], dtype=float).reshape(-1, 2)
        results[detector] = qos_from_suspicion_arrays(
            detector, intervals[:, 0], intervals[:, 1], end_time=end_time,
            start_time=start_time, crash_starts=crashes[:, 0],
            crash_ends=crashes[:, 1],
        )
    return results


def qos_from_suspicion_arrays(
    detector: str,
    starts: "np.ndarray",
    ends: "np.ndarray",
    *,
    end_time: float,
    start_time: float = 0.0,
    crash_starts: Sequence[float] = (),
    crash_ends: Sequence[float] = (),
) -> DetectorQos:
    """The one batch extractor (event log, trace replay, span replay):
    a detector's QoS from its suspicion intervals and the crash
    intervals, each disjoint and in time order (open ones closed at
    ``end_time``), observed over ``[start_time, end_time)``.

    A crash is detected by the last suspicion that starts before
    ``crash_end − ε`` and ends at or after it and the crash start; the
    other suspicions that start outside every ``[crash_start − ε,
    crash_end − ε)`` are mistakes.  Each (suspicion, up-window) overlap
    keeps the builtins' tie rules, is floored at 0.0 and is summed in
    order (``np.cumsum``, not pairwise ``np.sum``); the crashed time is
    the builtin ``sum``.  So every sample is bit for bit the
    per-interval loops' (``tests/test_metrics.py``).  No crash, no
    masks.  Samples stay in arrays until ``tolist()`` (FDL007).
    """
    s = np.asarray(starts, dtype=float)
    e = np.asarray(ends, dtype=float)
    cs = np.asarray(crash_starts, dtype=float)
    ce = np.asarray(crash_ends, dtype=float)
    for name, a, b in (("suspicion", s, e), ("crash", cs, ce)):
        if a.shape != b.shape or a.ndim != 1 or (
            a.size and (np.any(b < a) or np.any(a[1:] < b[:-1]))
        ):
            raise ValueError(f"{name} intervals must be disjoint, in time order")
    observation_time = float(end_time) - float(start_time)
    qos = DetectorQos(detector=detector, observation_time=observation_time)
    if cs.size:
        crashed_time = sum((ce - cs).tolist())
        cut = ce - _EPS
        last = np.searchsorted(s, cut) - 1  # each crash's candidate
        detected = last >= 0
        if s.size:
            tail = e[np.where(detected, last, 0)]
            detected &= (tail >= cs) & (tail >= cut)
        permanent = np.zeros(s.size, dtype=bool)
        permanent[last[detected]] = True
        td = s[last[detected]] - cs[detected]
        qos.td_samples = np.where(td > 0.0, td, 0.0).tolist()
        qos.undetected_crashes = int(cs.size - np.count_nonzero(detected))
        up = s < np.append(cs - _EPS, np.inf)[np.searchsorted(cut, s, side="right")]
        ms, me = s[up & ~permanent], e[up & ~permanent]
        # Up windows, the crashes' complement, then every (suspicion,
        # window) pair that can overlap, in suspicion then window order.
        cursor = np.maximum.accumulate(np.append(float(start_time), ce))
        opens = cs > cursor[:-1]
        ws = cursor[:-1][opens]
        we = np.where(end_time < cs, end_time, cs)[opens]
        if cursor[-1] < end_time:
            ws, we = np.append(ws, cursor[-1]), np.append(we, end_time)
        lo = np.searchsorted(we, s, side="right")
        counts = np.maximum(np.searchsorted(ws, e), lo) - lo
        rows = np.repeat(np.arange(s.size), counts)
        cols = np.arange(rows.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        ps, pe, pws, pwe = s[rows], e[rows], ws[cols], we[cols]
    else:
        crashed_time = 0.0
        # One window; a suspicion outside it overlaps by a floored +0.0,
        # which leaves the sum unchanged.
        ms, me = s, e
        ps, pe, pws, pwe = s, e, start_time, end_time
    qos.up_time = max(0.0, observation_time - crashed_time)
    # ``tuple.__new__`` builds each mistake in C (``_make`` runs Python).
    qos.mistakes = list(
        map(tuple.__new__, [MistakeInterval] * ms.size, zip(ms.tolist(), me.tolist()))
    )
    qos.tmr_samples = np.diff(ms).tolist()
    overlap = np.where(pwe < pe, pwe, pe) - np.where(pws > ps, pws, ps)
    if overlap.size:
        qos.suspected_up_time = float(
            np.cumsum(np.where(overlap > 0.0, overlap, 0.0))[-1]
        )
    return qos


class OnlineQosAccumulator:
    """Streaming QoS: the same metrics as :func:`extract_qos`, updated on
    every transition instead of from a finished log.

    Only the live daemon uses it (registry, exporter, history snapshots,
    ``/qos``): ``/qos`` replays a few transitions per series, sixty
    series per read, inside the ``live_fleet`` benchmark's timed loop,
    where the array sweep costs ≈ 80 µs a series against ≈ 4 µs here.

    A long-running monitoring service cannot afford to keep (or re-scan)
    an unbounded event log, so this accumulator consumes the four
    transition kinds as they happen —

    * :meth:`observe_suspect` / :meth:`observe_trust` from the detector
      (e.g. via the ``on_transition_factory`` hooks of a
      :class:`~repro.fd.detector.PushFailureDetector`);
    * :meth:`observe_crash` / :meth:`observe_restore` from whichever
      oracle knows the monitored process's true state (the live crash
      injector, an orchestrator, a liveness probe);

    — and :meth:`snapshot` materialises a :class:`DetectorQos` at any
    instant, closing open intervals exactly the way the batch extractor
    closes them at ``end_time``.  Feeding the same transition sequence to
    both paths yields identical samples (the property tests assert this).

    Events must arrive in non-decreasing time order.  At equal
    timestamps, feed ``restore`` before ``crash`` before the detector
    transitions (:data:`~repro.nekostat.events.SAME_INSTANT_RANK`) — the
    order the batch extractor's interval semantics
    imply (a suspicion starting at the restore instant counts as raised
    while up; one starting at the crash instant counts as raised during
    the crash).

    The only intentional divergence from the batch path is the
    ``1e-9``-wide epsilon window at a restore instant: a suspicion whose
    end falls *within* epsilon before the restore is credited as a
    detection by the batch scan but not by the online one (the trust
    transition has already been consumed).  No physical run can observe
    the difference.
    """

    def __init__(self, detector: str, *, start_time: float = 0.0) -> None:
        self.detector = detector
        self.start_time = float(start_time)
        self._last_time = float(start_time)
        # Monitored-process state.
        self._crashed = False
        self._crash_start = 0.0
        self._crashed_total = 0.0
        # Detector state.
        self._suspecting = False
        self._suspicion_start = 0.0
        self._suspicion_up = False  # raised while the process was up?
        self._suspicion_permanent = False  # already credited as a detection?
        # Accumulated samples.
        self._td_samples: List[float] = []
        self._undetected = 0
        self._mistakes: List[MistakeInterval] = []
        self._tmr_samples: List[float] = []
        self._last_mistake_start: Optional[float] = None
        self._suspected_up_time = 0.0
        # Monotonically increasing transition counter (for exporters).
        self.transitions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def suspecting(self) -> bool:
        """Whether the detector is currently suspecting."""
        return self._suspecting

    @property
    def crashed(self) -> bool:
        """Whether the monitored process is currently (known) crashed."""
        return self._crashed

    # ------------------------------------------------------------------
    # Transition intake
    # ------------------------------------------------------------------
    def _advance(self, t: float) -> None:
        if t < self._last_time:
            raise ValueError(
                f"detector {self.detector!r}: transition at t={t:.9f} after "
                f"t={self._last_time:.9f}; transitions must be time-ordered"
            )
        if self._suspecting and not self._crashed:
            self._suspected_up_time += t - self._last_time
        self._last_time = t

    def observe_suspect(self, t: float) -> None:
        """The detector started suspecting at time ``t``."""
        self._advance(t)
        if self._suspecting:
            raise ValueError(
                f"detector {self.detector!r}: suspect while already suspecting"
            )
        self._suspecting = True
        self._suspicion_start = t
        self._suspicion_up = not self._crashed
        self._suspicion_permanent = False
        self.transitions += 1

    def observe_trust(self, t: float) -> None:
        """The detector stopped suspecting at time ``t``."""
        self._advance(t)
        if not self._suspecting:
            raise ValueError(
                f"detector {self.detector!r}: trust while not suspecting"
            )
        if not self._suspicion_permanent and self._suspicion_up:
            self._record_mistake(self._suspicion_start, t)
        self._suspecting = False
        self.transitions += 1

    def observe_transition(self, suspecting: bool, t: float) -> None:
        """Detector-hook adapter: dispatch on the transition direction."""
        if suspecting:
            self.observe_suspect(t)
        else:
            self.observe_trust(t)

    def observe_crash(self, t: float) -> None:
        """The monitored process crashed at time ``t``."""
        self._advance(t)
        if self._crashed:
            raise ValueError(
                f"detector {self.detector!r}: crash while already crashed"
            )
        self._crashed = True
        self._crash_start = t

    def observe_restore(self, t: float) -> None:
        """The monitored process was restored at time ``t``.

        This is the instant the crash's detection verdict is known: the
        *permanent* suspicion (the one still standing now) yields a
        ``T_D`` sample; no standing suspicion means the crash went
        undetected.
        """
        self._advance(t)
        if not self._crashed:
            raise ValueError(
                f"detector {self.detector!r}: restore while not crashed"
            )
        if self._suspecting and self._suspicion_start < t - _EPS:
            self._td_samples.append(
                max(0.0, self._suspicion_start - self._crash_start)
            )
            self._suspicion_permanent = True
        else:
            self._undetected += 1
        self._crashed_total += t - self._crash_start
        self._crashed = False

    def _record_mistake(self, start: float, end: float) -> None:
        self._mistakes.append(MistakeInterval(start=start, end=end))
        if self._last_mistake_start is not None:
            self._tmr_samples.append(start - self._last_mistake_start)
        self._last_mistake_start = start

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> DetectorQos:
        """The QoS so far, as if the run had ended at ``now``.

        Open intervals are closed at ``now`` without mutating the
        accumulator, mirroring the batch extractor's ``end_time``
        handling: an open crash is judged (detection or undetected), an
        open non-permanent suspicion raised while up becomes a mistake.
        """
        if now is None:
            now = self._last_time
        if now < self._last_time:
            raise ValueError(
                f"snapshot at t={now:.9f} before last transition "
                f"t={self._last_time:.9f}"
            )
        qos = DetectorQos(
            detector=self.detector,
            td_samples=list(self._td_samples),
            undetected_crashes=self._undetected,
            mistakes=list(self._mistakes),
            tmr_samples=list(self._tmr_samples),
        )
        suspected_up = self._suspected_up_time
        crashed_total = self._crashed_total
        permanent = self._suspicion_permanent
        if self._suspecting and not self._crashed:
            suspected_up += now - self._last_time
        if self._crashed:
            crash_end = max(self._crash_start, now)
            if self._suspecting and self._suspicion_start < crash_end - _EPS:
                qos.td_samples.append(
                    max(0.0, self._suspicion_start - self._crash_start)
                )
                permanent = True
            else:
                qos.undetected_crashes += 1
            crashed_total += crash_end - self._crash_start
        if self._suspecting and not permanent and self._suspicion_up:
            start = self._suspicion_start
            qos.mistakes.append(
                MistakeInterval(start=start, end=max(start, now))
            )
            if self._last_mistake_start is not None:
                qos.tmr_samples.append(start - self._last_mistake_start)
        observation = max(0.0, now - self.start_time)
        qos.observation_time = observation
        qos.up_time = max(0.0, observation - crashed_total)
        qos.suspected_up_time = suspected_up
        return qos


__all__ = [
    "DetectorQos",
    "MistakeInterval",
    "OnlineQosAccumulator",
    "extract_qos",
    "qos_from_suspicion_arrays",
    "query_accuracy",
]
