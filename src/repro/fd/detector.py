"""The push-style failure detector layer (paper Section 2.3).

The monitored process ``q`` sends heartbeat ``m_i`` at ``sigma_i = i*eta``
(its local time, carried in the message).  The detector ``p`` maintains
*freshness points* ``tau_i = sigma_i + delta_i`` with ``delta_i = pred_i +
sm_i`` from its :class:`~repro.fd.timeout.TimeoutStrategy`, and **suspects**
``q`` at any time ``t`` in ``[tau_i, tau_{i+1})`` at which it has not
received a heartbeat with sequence number ``k >= i``.

Operationally:

* on a *fresh* heartbeat (sequence above anything seen), trust ``q``
  (ending any suspicion), feed the measured delay to the strategy, and arm
  the expiry timer at the next freshness point
  ``tau_{i+1} = sigma_i + eta + delta``;
* when the timer expires with no fresher heartbeat seen, start suspecting;
* suspicion ends only when a fresh heartbeat arrives (nothing else can
  refute it);
* *stale* heartbeats (late or reordered) never affect trust, but their
  delays are still genuine observations and by default are fed to the
  strategy (the paper's ``obs`` list holds every received heartbeat).

The detector emits ``START_SUSPECT``/``END_SUSPECT`` events into the
experiment's event log; all QoS metrics are derived from those events.

This is the single-detector layer, for any
:class:`~repro.fd.timeout.TimeoutStrategy` (baselines, tuning sweeps,
per-peer detectors).  The paper's predictor × margin matrix runs as one
:class:`~repro.fd.bank.DetectorBank`, which behaves as one of these per
row.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids fd -> obs import
    from repro.obs.trace import TraceRecorder

from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.sim.process import Timer


class PushFailureDetector(Layer):
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
    observe_stale:
        Whether delays of stale (reordered/late) heartbeats feed the
        strategy.  Default ``True``.
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
        observe_stale: bool = True,
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
        self._observe_stale = bool(observe_stale)
        self._on_transition = on_transition
        self._tracer = tracer
        self._max_seq = -1
        self._last_fresh_timestamp: Optional[float] = None
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

    def update_eta(self, new_eta: float) -> None:
        """Adopt a renegotiated sending period (see
        :mod:`repro.fd.adaptive_interval`).

        The pending deadline is re-armed from the last fresh heartbeat's
        timestamp with the new period, so a *growing* period does not
        leave a stale (too early) freshness point behind.  A shrinking
        period is always safe either way.
        """
        if new_eta <= 0:
            raise ValueError(f"new_eta must be > 0, got {new_eta!r}")
        self.eta = float(new_eta)
        if not self._suspecting and self._last_fresh_timestamp is not None:
            self._arm_next_freshness_point(self._last_fresh_timestamp)

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
            self._last_fresh_timestamp = message.timestamp
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
            if self._observe_stale:
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
        return f"PushFailureDetector({self.detector_id!r}, {state}, seq={self._max_seq})"


__all__ = ["PushFailureDetector"]
