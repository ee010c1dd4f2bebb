"""The scalar push detector: the reference the detector layer is proved against.

One detector, one :class:`~repro.fd.timeout.TimeoutStrategy`, one timer —
the paper's Section 2.3 detector written out literally.  The monitored
process ``q`` sends heartbeat ``m_i`` at ``sigma_i = i*eta`` (its local
time, carried in the message).  The detector ``p`` maintains *freshness
points* ``tau_i = sigma_i + delta_i`` with ``delta_i = pred_i + sm_i``
from its strategy, and **suspects** ``q`` at any time ``t`` in
``[tau_i, tau_{i+1})`` at which it has not received a heartbeat with
sequence number ``k >= i``.

Operationally:

* on a *fresh* heartbeat (sequence above anything seen), trust ``q``
  (ending any suspicion), feed the measured delay to the strategy, and arm
  the expiry timer at the next freshness point
  ``tau_{i+1} = sigma_i + eta + delta``;
* when the timer expires with no fresher heartbeat seen, start suspecting;
* suspicion ends only when a fresh heartbeat arrives (nothing else can
  refute it);
* *stale* heartbeats (late or reordered) never affect trust, but their
  delays are still genuine observations and are fed to the strategy
  (the paper's ``obs`` list holds every received heartbeat).

:class:`~repro.fd.detector.PushFailureDetector` runs any number of rows as
one layer; ``tests/test_detector_bank.py`` holds it equal to one of these
per row behind a MultiPlexer.  :func:`replay_detector_scalar` is the same
algebra over a recorded trace, the reference of the vectorized replay, and
:func:`replay_strategy_scalar` the per-observation sequences of one
strategy, the reference of the block forms.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids fd -> obs import
    from repro.obs.trace import TraceRecorder

from repro.fd.combinations import make_margin, make_predictor
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.sim.process import Timer


class ReferenceDetector(Layer):
    """A heartbeat-consuming failure detector with a pluggable time-out.

    Parameters
    ----------
    strategy:
        The predictor + safety-margin combination computing ``delta``.
    monitored:
        Address of the monitored process (heartbeats from other sources
        are passed up unchanged).
    eta:
        The heartbeat sending period, in seconds (known to the detector,
        as in the paper).
    event_log:
        Where ``START_SUSPECT``/``END_SUSPECT`` events are recorded.
    detector_id:
        Identifier used in events; defaults to the strategy name.
    initial_timeout:
        Time-out applied before the first heartbeat is received (the
        strategy has no observations yet).  Measured from start plus one
        sending period.
    on_transition:
        Optional callback ``on_transition(suspecting)`` fired on every
        suspect/trust transition — how upper layers (consensus, group
        membership) consume the detector as a live oracle rather than
        through the offline event log.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`.  When set, the
        detector emits ``freshness`` span events (forecast delta and
        armed freshness point) for every fresh heartbeat and
        ``suspect``/``trust`` events on every transition, each carrying
        the highest heartbeat sequence number seen; a ``suspect`` span
        also carries the freshness point that expired (``deadline``) and
        the delta it was armed with (``timeout``).  ``None`` (the
        default) costs one pointer comparison per site.
    """

    def __init__(
        self,
        strategy: TimeoutStrategy,
        monitored: str,
        eta: float,
        event_log: EventLog,
        *,
        detector_id: str = "",
        initial_timeout: float = 10.0,
        on_transition: Optional["Callable[[bool], None]"] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        super().__init__(name=detector_id or strategy.name)
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
        if initial_timeout < 0:
            raise ValueError(f"initial_timeout must be >= 0, got {initial_timeout!r}")
        self.strategy = strategy
        self.monitored = monitored
        self.eta = float(eta)
        self.detector_id = detector_id or strategy.name
        self._event_log = event_log
        self._initial_timeout = float(initial_timeout)
        self._on_transition = on_transition
        self._tracer = tracer
        self._max_seq = -1
        self._suspecting = False
        self._timer: Optional[Timer] = None
        # The pending expiry: its delta and freshness point.
        self._armed_timeout = self._initial_timeout
        self._armed_deadline = 0.0
        # Counters (diagnostics; metrics come from the event log).
        self.heartbeats_seen = 0
        self.stale_heartbeats = 0
        self.suspicions_raised = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def suspecting(self) -> bool:
        """Whether the detector currently suspects the monitored process."""
        return self._suspecting

    @property
    def highest_sequence(self) -> int:
        """The highest heartbeat sequence number received (−1 if none)."""
        return self._max_seq

    def current_timeout(self) -> float:
        """The ``delta = pred + sm`` currently in force, in seconds."""
        return self.strategy.timeout()

    def stop(self) -> None:
        """Cancel the pending expiry so the detector goes quiescent.

        Used by the live monitoring service on endpoint removal and
        daemon shutdown; the detector keeps its state and can be
        re-armed by the next fresh heartbeat if traffic resumes.
        """
        if self._timer is not None:
            self._timer.cancel()

    # ------------------------------------------------------------------
    # Layer lifecycle
    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        self._timer = self.process.timer(self._expired, name=f"fd:{self.detector_id}", priority=1)

    def on_start(self) -> None:
        # Before any heartbeat: expect the first one within one period
        # plus the configured initial time-out.
        assert self._timer is not None
        self._timer.arm(self.eta + self._initial_timeout)
        if self._tracer is not None:  # only a suspect span reads it
            self._armed_timeout = self._initial_timeout
            self._armed_deadline = self.process.sim.now + (
                self.eta + self._initial_timeout
            )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Datagram) -> None:
        if message.kind != "heartbeat" or message.source != self.monitored:
            self.deliver_up(message)
            return
        if message.seq is None or message.timestamp is None:
            raise ValueError(f"heartbeat without seq/timestamp: {message!r}")
        self.heartbeats_seen += 1
        arrival_local = self.process.local_time()
        delay = arrival_local - message.timestamp
        fresh = message.seq > self._max_seq
        if fresh:
            self._max_seq = message.seq
            self.strategy.observe(delay)
            if self._suspecting:
                self._suspecting = False
                self._emit(EventKind.END_SUSPECT)
                if self._tracer is not None:
                    self._trace_transition("trust")
                if self._on_transition is not None:
                    self._on_transition(False)
            self._arm_next_freshness_point(message.timestamp)
        else:
            self.stale_heartbeats += 1
            self.strategy.observe(delay)
        self.deliver_up(message)

    def _arm_next_freshness_point(self, send_timestamp_local: float) -> None:
        """Arm the expiry at ``tau_{i+1} = sigma_i + eta + delta``.

        ``sigma_i`` is the sender's local timestamp; the freshness point is
        converted through this process's clock, which is exact under the
        paper's synchronised-clock assumption and carries the residual
        offset otherwise — faithfully reproducing the real system.
        """
        assert self._timer is not None
        delta = self.strategy.timeout()
        tau_local = send_timestamp_local + self.eta + delta
        tau_global = self.process.clock.global_from_local(tau_local)
        self._timer.arm_at(max(self.process.sim.now, tau_global))
        self._armed_timeout = delta
        self._armed_deadline = tau_global
        if self._tracer is not None:
            self._tracer.emit(
                self.process.sim.now,
                "freshness",
                self.monitored,
                detector=self.detector_id,
                seq=self._max_seq,
                timeout=delta,
                deadline=tau_global,
            )

    def _expired(self) -> None:
        if self._suspecting:
            return  # already suspecting; arrival is the only way out
        self._suspecting = True
        self.suspicions_raised += 1
        self._emit(EventKind.START_SUSPECT)
        if self._tracer is not None:
            self._trace_transition("suspect")
        if self._on_transition is not None:
            self._on_transition(True)

    def _trace_transition(self, kind: str) -> None:
        assert self._tracer is not None
        if kind == "suspect":
            timeout, deadline = self._armed_timeout, self._armed_deadline
        else:
            timeout, deadline = self.strategy.timeout(), None
        self._tracer.emit(
            self.process.sim.now,
            kind,
            self.monitored,
            detector=self.detector_id,
            seq=self._max_seq,
            timeout=timeout,
            deadline=deadline,
        )

    def _emit(self, kind: EventKind) -> None:
        self._event_log.append(
            StatEvent(
                time=self.process.sim.now,
                kind=kind,
                site=self.process.address,
                detector=self.detector_id,
                local_time=self.process.local_time(),
                data={"timeout": self.strategy.timeout()},
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "suspecting" if self._suspecting else "trusting"
        return f"ReferenceDetector({self.detector_id!r}, {state}, seq={self._max_seq})"


def replay_strategy_scalar(
    predictor_name: str,
    margin_name: str,
    observations: Sequence[float],
) -> Tuple[List[float], List[float], List[float]]:
    """The per-observation class path of one combination.

    Returns ``(predictions, margins, timeouts)`` lists: entry ``k`` is
    what the :class:`~repro.fd.timeout.TimeoutStrategy` reports after
    observation ``k``.  Works for every combination, including ARIMA.
    """
    strategy = TimeoutStrategy(
        make_predictor(predictor_name), make_margin(margin_name)
    )
    predictions: List[float] = []
    margins: List[float] = []
    timeouts: List[float] = []
    for value in observations:
        strategy.observe(float(value))
        predictions.append(strategy.prediction())
        margins.append(strategy.margin.current())
        timeouts.append(strategy.timeout())
    return predictions, margins, timeouts


def replay_detector_scalar(
    predictor_name: str,
    margin_name: str,
    send_times: Sequence[float],
    delays: Sequence[float],
    *,
    eta: float,
    lost: Optional[Sequence[bool]] = None,
    initial_timeout: Optional[float] = None,
    end_time: Optional[float] = None,
) -> Tuple[List[float], List[Tuple[float, float]]]:
    """The detector algebra above, over a recorded trace, as one loop.

    Returns ``(freshness_points, suspicion_intervals)`` of one
    combination under the conventions of
    :func:`repro.fd.replay.trace_view`.  Pure python — no numpy — and
    valid for every combination including ARIMA;
    ``tests/test_replay.py`` pits
    :func:`~repro.fd.replay.replay_detector_matrix` against it.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta!r}")
    if initial_timeout is None:
        initial_timeout = 10.0 * eta
    count = len(send_times)
    if len(delays) != count:
        raise ValueError("send_times and delays must have matching length")
    lost_list = list(lost) if lost is not None else [False] * count
    arrivals = [
        (send_times[i] + delays[i], i, send_times[i])
        for i in range(count)
        if not lost_list[i]
    ]
    if not arrivals:
        raise ValueError("every heartbeat was lost; nothing to replay")
    arrivals.sort(key=lambda item: item[0])  # stable: ties keep send order
    if end_time is None:
        end_time = arrivals[-1][0]

    strategy = TimeoutStrategy(
        make_predictor(predictor_name), make_margin(margin_name)
    )
    deadline = eta + float(initial_timeout)
    max_seq = -1
    suspecting = False
    freshness_points: List[float] = []
    intervals: List[Tuple[float, float]] = []
    open_start = 0.0
    for arrival, seq, sigma in arrivals:
        if arrival > end_time:
            break
        if not suspecting and deadline < arrival and deadline <= end_time:
            suspecting = True
            open_start = deadline
        if seq > max_seq:
            max_seq = seq
            strategy.observe(arrival - sigma)
            if suspecting:
                intervals.append((open_start, arrival))
                suspecting = False
            deadline = max(arrival, sigma + eta + strategy.timeout())
            freshness_points.append(deadline)
        else:
            strategy.observe(arrival - sigma)
    if suspecting:
        intervals.append((open_start, float(end_time)))
    elif deadline <= end_time:
        intervals.append((deadline, float(end_time)))
    return freshness_points, intervals


__all__ = ["ReferenceDetector", "replay_detector_scalar", "replay_strategy_scalar"]
