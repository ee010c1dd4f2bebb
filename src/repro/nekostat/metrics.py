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
    """Compute per-detector QoS from an event log.

    Parameters
    ----------
    log:
        The event log of a completed run.
    end_time:
        The virtual time the run ended at; open suspicion/crash intervals
        are closed there.  Defaults to the last event's time.
    detectors:
        Restrict to these detector ids (default: all that appear).
    start_time:
        The time the run began at: observation and up time count from
        there.  A simulated run starts at 0.0; a run on a real-time
        scheduler starts at the loop time it was built at.
    """
    if end_time is None:
        end_time = log[-1].time if len(log) else 0.0
    crashes = log.crash_intervals(end_time=end_time)
    crashed_time = sum(end - start for start, end in crashes)
    up_windows = _up_windows(crashes, end_time, start_time)
    observation_time = end_time - start_time
    detector_ids = list(detectors) if detectors is not None else log.detectors()
    intervals_of = _suspicion_intervals_by_detector(log, detector_ids, end_time)
    crash_count = len(crashes)
    window_count = len(up_windows)
    make_mistake = MistakeInterval._make

    results: Dict[str, DetectorQos] = {}
    for detector in detector_ids:
        qos = DetectorQos(
            detector=detector,
            observation_time=observation_time,
            up_time=max(0.0, observation_time - crashed_time),
        )
        intervals = intervals_of[detector]
        permanent: set = set()

        # --- detection times -------------------------------------------
        # Crashes and intervals are both time-ordered, so the intervals
        # that ended before one crash ended before every later one: the
        # search resumes where the previous crash's began.
        first = 0
        for crash_start, crash_end in crashes:
            detection: Optional[Tuple[float, float]] = None
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

        # --- mistakes ----------------------------------------------------
        # A suspicion raised while the process was up, i.e. outside every
        # [crash, restore) window; the same sweep over two sorted lists.
        mistakes = qos.mistakes
        crash_index = 0
        for index, interval in enumerate(intervals):
            if index in permanent:
                continue
            s = interval[0]
            while crash_index < crash_count and crashes[crash_index][1] - _EPS <= s:
                crash_index += 1
            if crash_index == crash_count or s < crashes[crash_index][0] - _EPS:
                mistakes.append(make_mistake(interval))

        # --- recurrence --------------------------------------------------
        starts = [mistake[0] for mistake in mistakes]
        qos.tmr_samples = [b - a for a, b in zip(starts, starts[1:])]

        # --- availability ------------------------------------------------
        # Two-pointer sweep over the two sorted interval lists: O(n + m)
        # rather than O(n * m) — on a 100 000-cycle run with thousands of
        # mistakes and hundreds of crash windows the difference is the
        # bulk of the extraction time.  Each overlap is
        # ``max(0.0, min(e, we) - max(s, ws))`` written out with the
        # builtins' tie rules (the first operand wins a tie), added in
        # interval order.
        suspected_up = 0.0
        window_index = 0
        for s, e in intervals:
            while window_index < window_count and up_windows[window_index][1] <= s:
                window_index += 1
            k = window_index
            while k < window_count:
                ws, we = up_windows[k]
                if not ws < e:
                    break
                overlap = (we if we < e else e) - (ws if ws > s else s)
                suspected_up += overlap if overlap > 0.0 else 0.0
                k += 1
        qos.suspected_up_time = suspected_up

        results[detector] = qos
    return results


def _up_windows(
    crashes: Sequence[Tuple[float, float]], end_time: float, start_time: float = 0.0
) -> List[Tuple[float, float]]:
    """The complement of the crash intervals within [start_time, end_time)."""
    windows: List[Tuple[float, float]] = []
    cursor = start_time
    for crash_start, crash_end in crashes:
        if crash_start > cursor:
            windows.append((cursor, min(crash_start, end_time)))
        cursor = max(cursor, crash_end)
    if cursor < end_time:
        windows.append((cursor, end_time))
    return windows


def qos_from_suspicion_arrays(
    detector: str,
    suspicion_starts: "np.ndarray",
    suspicion_ends: "np.ndarray",
    *,
    end_time: float,
) -> DetectorQos:
    """Batch QoS extraction for a crash-free run, as array operations.

    The trace-replay fast path (:mod:`repro.fd.replay`) produces the
    suspicion intervals of a whole run as two aligned arrays; this
    packages them into the :class:`DetectorQos` that :func:`extract_qos`
    would derive from the event log of the equivalent crash-free run.
    With no crashes every suspicion is a mistake, recurrence times are
    the first difference of the starts, and the suspected-while-up time
    is one vector sum — O(n) NumPy, no per-interval bookkeeping.  The
    sample math stays in arrays until the final ``tolist()`` (lint rule
    FDL007 forbids per-element ``float()`` narrowing on this path).
    """
    starts = np.asarray(suspicion_starts, dtype=float)
    ends = np.asarray(suspicion_ends, dtype=float)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValueError("suspicion starts/ends must be matching 1-D arrays")
    if starts.size and (
        bool(np.any(ends < starts)) or bool(np.any(np.diff(starts) < 0))
    ):
        raise ValueError("suspicion intervals must be ordered with end >= start")
    qos = DetectorQos(
        detector=detector,
        observation_time=float(end_time),
        up_time=float(end_time),
    )
    qos.mistakes = list(
        map(MistakeInterval._make, zip(starts.tolist(), ends.tolist()))
    )
    qos.tmr_samples = np.diff(starts).tolist()
    qos.suspected_up_time = float(np.sum(ends - starts))
    return qos


class OnlineQosAccumulator:
    """Streaming QoS: the same metrics as :func:`extract_qos`, updated on
    every transition instead of from a finished log.

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

    @property
    def last_time(self) -> float:
        """The time of the most recent observed transition."""
        return self._last_time

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
