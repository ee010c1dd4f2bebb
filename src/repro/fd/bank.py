"""The fused detector bank: every (predictor, margin) row of one endpoint.

The paper's MultiPlexer exists so that all 30 combinations "perceive
identical network conditions".  The matrix has far fewer *states* than
rows: five predictors, one ``SM_CI`` state (γ scales it at use time) and
one ``SM_JAC`` deviation per predictor (φ scales it at use time); the 30
time-outs are affine in those.  :class:`DetectorBank` therefore holds the
states once, computes the delay and the freshness test once per
heartbeat, derives every row's time-out and deadline, and keeps **one**
:class:`~repro.sim.process.Timer` on the earliest deadline — the
guarantee holds by construction rather than by fan-out.

A heartbeat is one step over plain state.  Beside each
:class:`~repro.fd.predictors.Predictor` the bank keeps two numbers in
lists — the prediction in force and the unit Jacobson deviation — and
updates them with the operations of ``TimeoutStrategy.observe`` and
``JacobsonMargin.update``, in their order; the delay is checked finite
once, before any state moves.  The 30 freshness points go through the
clock in one :meth:`~repro.clocks.clock.Clock.global_from_local_offsets`
call, which reads the clock's offset then, as thirty
``global_from_local`` calls would.

Its observable behaviour is that of one
:class:`~repro.fd.detector.PushFailureDetector` per row behind a
MultiPlexer, transition for transition and float for float (proved by
``tests/test_detector_bank.py``): the same ``START_SUSPECT`` /
``END_SUSPECT`` events, ``suspect``/``trust`` spans and ``on_transition``
calls, in bank order.  Its trace follows its one timer: a fresh heartbeat
writes **one** ``freshness`` span, the line of the row the timer is then
armed on, where thirty detectors would write thirty.  A row's own
freshness point is read only when it expires, so the ``suspect`` span
carries it (``deadline``, and the ``timeout`` it was armed with).  Two
rules keep the transitions equal with a single timer:

* **Ties.**  Rows whose deadlines are equal become suspect in bank order,
  each in its own timer expiry (re-armed at the same instant), exactly as
  thirty timers armed in bank order would fire.
* **Overdue rows.**  On a real-time scheduler the clock has moved on when
  the timer fires; every further row whose deadline is strictly before
  ``now`` becomes suspect inside the same expiry instead of waiting for a
  re-armed timer (which would let the next datagram in between).  A
  deadline equal to ``now`` — the simulator's tie — is re-armed.

:func:`make_detector_bank` is the one place the matrix is built; the
batch runner, the live service and the KV controller all get this layer.
``PushFailureDetector`` remains the single-detector layer for arbitrary
:class:`~repro.fd.timeout.TimeoutStrategy` objects.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    ItemsView,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids fd -> obs import
    from repro.obs.trace import TraceRecorder

from repro.fd.combinations import (
    GAMMA_VALUES,
    JACOBSON_ALPHA,
    PHI_VALUES,
    combination_ids,
    make_predictor,
    parse_combination_id,
)
from repro.fd.predictors import Predictor
from repro.fd.safety import INITIAL_MARGIN, ConfidenceIntervalMargin
from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.sim.process import Timer

#: Signature of the per-detector transition-hook factory: given a detector
#: id, return the ``on_transition(suspecting)`` callback for that detector
#: (or ``None`` for no hook).
TransitionHookFactory = Callable[[str], Optional[Callable[[bool], None]]]

#: Deadline of a row with no pending expiry (suspecting, or stopped).
_NEVER = math.inf


class DetectorView:
    """Read-only view of one row of a :class:`DetectorBank`.

    Exposes what callers read off a single detector — verdict, counters,
    the time-out in force — without owning any state.
    """

    __slots__ = ("_bank", "_row", "detector_id")

    def __init__(self, bank: "DetectorBank", row: int, detector_id: str) -> None:
        self._bank = bank
        self._row = row
        self.detector_id = detector_id

    @property
    def suspecting(self) -> bool:
        """Whether this row currently suspects the monitored process."""
        return self._bank._suspecting[self._row]

    @property
    def suspicions_raised(self) -> int:
        """How many times this row started suspecting."""
        return self._bank._suspicions[self._row]

    @property
    def heartbeats_seen(self) -> int:
        """Heartbeats received from the monitored process (bank-wide)."""
        return self._bank.heartbeats_seen

    @property
    def stale_heartbeats(self) -> int:
        """Late or reordered heartbeats among them (bank-wide)."""
        return self._bank.stale_heartbeats

    @property
    def highest_sequence(self) -> int:
        """The highest heartbeat sequence number received (−1 if none)."""
        return self._bank.highest_sequence

    def prediction(self) -> float:
        """The row's current delay forecast ``pred``, in seconds."""
        bank = self._bank
        return bank._in_force[bank._rows[self._row][0]]

    def current_timeout(self) -> float:
        """The ``delta = pred + sm`` currently in force, in seconds."""
        return self._bank._timeouts[self._row]

    def stop(self) -> None:
        """Drop this row's pending expiry; the next fresh heartbeat
        re-arms it."""
        self._bank._stop_row(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "suspecting" if self.suspecting else "trusting"
        return f"DetectorView({self.detector_id!r}, {state})"


class DetectorBank(Layer):
    """All detector combinations watching one endpoint, as one layer.

    Indexing (``bank[detector_id]``, ``.items()``, iteration, ``len``)
    yields one :class:`DetectorView` per row, in bank order.

    Parameters
    ----------
    monitored:
        Address of the monitored process (other traffic passes up).
    eta:
        The heartbeat sending period, seconds.
    event_log:
        Where ``START_SUSPECT``/``END_SUSPECT`` events are recorded.
    detector_ids:
        Combination ids (``"Arima+CI_low"`` …), any subset in any order;
        the order is the bank order.  May be empty.
    initial_timeout:
        Time-out applied before the first heartbeat, measured from start
        plus one sending period.
    on_transition_factory:
        Optional hook factory; its return value for a detector id is
        called as ``on_transition(suspecting)`` on that row's transitions.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`: one
        ``freshness`` span per fresh heartbeat (the row the timer is
        armed on), ``suspect`` / ``trust`` spans on transitions.
    """

    def __init__(
        self,
        monitored: str,
        eta: float,
        event_log: EventLog,
        detector_ids: Sequence[str],
        *,
        initial_timeout: float = 10.0,
        on_transition_factory: Optional[TransitionHookFactory] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        super().__init__(name=f"DetectorBank[{monitored}]")
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
        if initial_timeout < 0:
            raise ValueError(f"initial_timeout must be >= 0, got {initial_timeout!r}")
        self.monitored = monitored
        self.eta = float(eta)
        self.initial_timeout = float(initial_timeout)
        self._event_log = event_log
        self._tracer = tracer
        # Shared states, per predictor: the predictor, the prediction in
        # force (what the next delay's error is measured against) and the
        # unit-scale Jacobson deviation (``None`` until the first error);
        # and one confidence-interval state for all CI rows.
        self._predictors: List[Predictor] = []
        self._in_force: List[float] = []
        self._mdev: List[Optional[float]] = []
        self._ci: Optional[ConfidenceIntervalMargin] = None
        #: Per row: ``(index of its predictor, CI family?, gamma or phi)``.
        self._rows: List[Tuple[int, bool, float]] = []
        self._views: Dict[str, DetectorView] = {}
        self._hooks: List[Optional[Callable[[bool], None]]] = []
        slots: Dict[str, int] = {}
        for detector_id in detector_ids:
            if detector_id in self._views:
                continue  # a repeated id is the same row
            predictor_name, margin_name = parse_combination_id(detector_id)
            if predictor_name not in slots:
                slots[predictor_name] = len(self._predictors)
                predictor = make_predictor(predictor_name)
                self._predictors.append(predictor)
                self._in_force.append(predictor.predict())
                self._mdev.append(None)
            confidence_interval = margin_name in GAMMA_VALUES
            if confidence_interval and self._ci is None:
                self._ci = ConfidenceIntervalMargin(1.0)
            scale = (GAMMA_VALUES if confidence_interval else PHI_VALUES)[margin_name]
            self._views[detector_id] = DetectorView(self, len(self._rows), detector_id)
            self._rows.append((slots[predictor_name], confidence_interval, scale))
            self._hooks.append(
                on_transition_factory(detector_id)
                if on_transition_factory is not None
                else None
            )
        rows = len(self._rows)
        self._ids: List[str] = list(self._views)
        self._suspecting: List[bool] = [False] * rows
        self._suspicions: List[int] = [0] * rows
        #: Absolute (scheduler-time) expiry per row; ``_NEVER`` if none.
        self._deadlines: List[float] = [_NEVER] * rows
        #: Per row: ``delta = pred + sm`` in force (refreshed on every
        #: observation, so an expiry reports the value current then).
        self._timeouts: List[float] = self._derive_timeouts()
        # What the pending deadlines were armed with, so an expiry can
        # name its freshness point: per row, the time-out and the global
        # freshness point (before clamping to the arming instant).  Both
        # lists are replaced, never mutated.
        self._armed_timeouts: List[float] = []
        self._armed_taus: List[float] = []
        self._timer: Optional[Timer] = None
        self._max_seq = -1
        # Counters (diagnostics; metrics come from the event log).
        self.heartbeats_seen = 0
        self.stale_heartbeats = 0

    # ------------------------------------------------------------------
    # Per-detector views
    # ------------------------------------------------------------------
    def __getitem__(self, detector_id: str) -> DetectorView:
        return self._views[detector_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, detector_id: object) -> bool:
        return detector_id in self._views

    def get(self, detector_id: str) -> Optional[DetectorView]:
        """The view of ``detector_id``, or ``None`` if the bank lacks it."""
        return self._views.get(detector_id)

    def items(self) -> ItemsView[str, DetectorView]:
        """``(detector id, view)`` pairs in bank order."""
        return self._views.items()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def highest_sequence(self) -> int:
        """The highest heartbeat sequence number received (−1 if none)."""
        return self._max_seq

    def _derive_timeouts(self) -> List[float]:
        """Every row's time-out from the shared states.

        ``pred`` is the row's predictor's forecast in force; ``sm`` scales
        the shared margin state by the row's γ or φ (multiplied left to
        right, as :meth:`SafetyMargin.current` does).  Clamped below at
        zero like :meth:`TimeoutStrategy.timeout`.
        """
        spread = self._ci.spread() if self._ci is not None else None
        if spread is not None:
            sigma, inflation_root = spread
        in_force = self._in_force
        mdev = self._mdev
        timeouts = []
        for slot, confidence_interval, scale in self._rows:
            if confidence_interval:
                if spread is None:
                    margin = INITIAL_MARGIN
                else:
                    margin = scale * sigma * inflation_root
            else:
                deviation = mdev[slot]
                margin = INITIAL_MARGIN if deviation is None else scale * deviation
            delta = in_force[slot] + margin
            timeouts.append(delta if delta > 0.0 else 0.0)
        return timeouts

    def stop(self) -> None:
        """Cancel every pending expiry so the bank goes quiescent.

        Used by the live monitoring service on endpoint removal and
        daemon shutdown; the bank keeps its state and is re-armed by the
        next fresh heartbeat if traffic resumes.
        """
        self._deadlines[:] = [_NEVER] * len(self._rows)
        if self._timer is not None:
            self._timer.cancel()

    def _stop_row(self, row: int) -> None:
        self._deadlines[row] = _NEVER
        self._arm()

    # ------------------------------------------------------------------
    # Layer lifecycle
    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        process = self.process
        self._timer = process.timer(
            self._expired, name=f"fd-bank:{self.monitored}", priority=1
        )
        # What every transition record reads, bound once.
        self._sim = process.sim
        self._site = process.address
        clock = process.clock
        self._local_from_global = clock.local_from_global
        self._global_from_local_offsets = clock.global_from_local_offsets

    def on_start(self) -> None:
        # Before any heartbeat: expect the first one within one period
        # plus the configured initial time-out, on every row.
        rows = len(self._rows)
        deadline = self._sim.now + (self.eta + self.initial_timeout)
        self._deadlines[:] = [deadline] * rows
        self._armed_timeouts = [self.initial_timeout] * rows
        self._armed_taus = [deadline] * rows
        self._arm()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Datagram) -> None:
        if message.kind != "heartbeat" or message.source != self.monitored:
            self.deliver_up(message)
            return
        if message.seq is None or message.timestamp is None:
            raise ValueError(f"heartbeat without seq/timestamp: {message!r}")
        now = self._sim.now
        delay = self._local_from_global(now) - message.timestamp
        if not math.isfinite(delay):
            raise ValueError(f"observed delay must be finite, got {delay!r}")
        self.heartbeats_seen += 1
        self._observe(delay)  # stale heartbeats too: every delay is observed
        if message.seq > self._max_seq:
            self._max_seq = message.seq
            self._trust_and_rearm(now, message.timestamp)
        else:
            self.stale_heartbeats += 1
        self.deliver_up(message)

    def _observe(self, delay: float) -> None:
        """Every shared state sees the (finite) delay once.

        Per predictor, in the order of :meth:`TimeoutStrategy.observe`:
        the Jacobson deviation takes the error of the prediction in force
        (:meth:`JacobsonMargin.update` with ``alpha = JACOBSON_ALPHA``),
        then the predictor absorbs the delay and the fresh forecast its
        ``observe`` returns comes into force.  Then ``SM_CI``, which
        ignores the prediction.
        """
        in_force = self._in_force
        mdev = self._mdev
        for slot, predictor in enumerate(self._predictors):
            prediction = in_force[slot]
            if not math.isfinite(prediction):
                raise ValueError("observation and prediction must be finite")
            error = abs(delay - prediction)
            deviation = mdev[slot]
            mdev[slot] = (
                error
                if deviation is None
                else deviation + JACOBSON_ALPHA * (error - deviation)
            )
            in_force[slot] = predictor.observe(delay)
        if self._ci is not None:
            self._ci.update(delay, 0.0)
        self._timeouts = self._derive_timeouts()

    def _trust_and_rearm(self, now: float, send_timestamp_local: float) -> None:
        """End every suspicion and move each row's deadline to its next
        freshness point ``tau_{i+1} = sigma_i + eta + delta``.

        ``sigma_i`` is the sender's local timestamp; the freshness points
        are converted through this process's clock in one batch, which is
        exact under the paper's synchronised-clock assumption and carries
        the residual offset otherwise.

        Traced, the ``trust`` spans come in bank order, then one
        ``freshness`` span: the line a lone detector would write for the
        row the timer is now armed on (the earliest deadline, bank order
        on ties).  The arming snapshot (this ``_timeouts`` list and the
        freshness points) is kept for the ``suspect`` spans.
        """
        next_send_local = send_timestamp_local + self.eta
        suspecting = self._suspecting
        deadlines = self._deadlines
        timeouts = self._timeouts
        taus = self._global_from_local_offsets(next_send_local, timeouts)
        self._armed_timeouts = timeouts
        self._armed_taus = taus
        if True in suspecting:
            for row, tau_global in enumerate(taus):
                if suspecting[row]:
                    suspecting[row] = False
                    self._transition(now, row, EventKind.END_SUSPECT, timeouts[row])
                deadlines[row] = tau_global if tau_global > now else now
        else:
            deadlines[:] = [tau if tau > now else now for tau in taus]
        self._arm()
        if self._tracer is not None and deadlines:
            row = deadlines.index(min(deadlines))
            tau_global = deadlines[row]
            if tau_global <= now:  # clamped to now: tau itself is earlier
                tau_global = taus[row]
            self._tracer.emit(
                now,
                "freshness",
                self.monitored,
                detector=self._ids[row],
                seq=self._max_seq,
                timeout=timeouts[row],
                deadline=tau_global,
            )

    def _arm(self) -> None:
        """Put the one timer on the earliest pending deadline, if any."""
        assert self._timer is not None
        earliest = min(self._deadlines, default=_NEVER)
        if earliest < _NEVER:
            self._timer.arm_at(earliest)
        else:
            self._timer.cancel()

    def _expired(self) -> None:
        deadlines = self._deadlines
        sim = self._sim
        now = sim.now
        # The earliest row is due.  Further rows follow inside this expiry
        # only while strictly overdue (real-time schedulers: ``now`` is
        # read again after each transition); a deadline equal to ``now``
        # gets its own expiry, as its own timer would.
        while True:
            row = deadlines.index(min(deadlines))  # ties: bank order
            deadlines[row] = _NEVER
            self._suspecting[row] = True
            self._suspicions[row] += 1
            self._transition(now, row, EventKind.START_SUSPECT, self._timeouts[row])
            earliest = min(deadlines)
            now = sim.now
            if earliest >= now:
                break
        if earliest < _NEVER:
            assert self._timer is not None
            self._timer.arm_at(earliest)

    def _transition(
        self, now: float, row: int, kind: EventKind, timeout: float
    ) -> None:
        """Record one suspect/trust transition of ``row`` at ``now``: event,
        span, hook.

        ``timeout`` is the time-out in force, which the event carries.  A
        ``suspect`` span carries instead the freshness point that expired
        (``deadline``) and the time-out it was armed with, from the arming
        snapshot — the values armed, even if the clock was stepped since.
        """
        detector_id = self._ids[row]
        # Positional, in StatEvent's field order (seq is None).
        self._event_log.append(
            StatEvent(
                now,
                kind,
                self._site,
                detector_id,
                None,
                self._local_from_global(now),
                {"timeout": timeout},
            )
        )
        suspecting = kind is EventKind.START_SUSPECT
        if self._tracer is not None:
            deadline = None
            if suspecting:
                timeout = self._armed_timeouts[row]
                deadline = self._armed_taus[row]
            self._tracer.emit(
                now,
                "suspect" if suspecting else "trust",
                self.monitored,
                detector=detector_id,
                seq=self._max_seq,
                timeout=timeout,
                deadline=deadline,
            )
        hook = self._hooks[row]
        if hook is not None:
            hook(suspecting)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DetectorBank({self.monitored!r}, rows={len(self._rows)}, "
            f"suspecting={sum(self._suspecting)}, seq={self._max_seq})"
        )


def make_detector_bank(
    monitored: str,
    eta: float,
    event_log: EventLog,
    detector_ids: Optional[Sequence[str]] = None,
    *,
    initial_timeout: float = 10.0,
    on_transition_factory: Optional[TransitionHookFactory] = None,
    tracer: Optional["TraceRecorder"] = None,
) -> DetectorBank:
    """Build the fused bank for ``detector_ids`` (default: all thirty).

    See :class:`DetectorBank` for the parameters.  The result is one
    layer to place above a :class:`~repro.fd.multiplexer.MultiPlexer`,
    and a mapping from detector id to its :class:`DetectorView`.
    """
    return DetectorBank(
        monitored,
        eta,
        event_log,
        combination_ids() if detector_ids is None else detector_ids,
        initial_timeout=initial_timeout,
        on_transition_factory=on_transition_factory,
        tracer=tracer,
    )


__all__ = [
    "DetectorBank",
    "DetectorView",
    "TransitionHookFactory",
    "make_detector_bank",
]
