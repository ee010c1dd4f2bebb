"""The push-style failure detector layer (paper Section 2.3).

The monitored process ``q`` sends heartbeat ``m_i`` at ``sigma_i = i*eta``
(its local time, carried in the message).  A detector keeps *freshness
points* ``tau_i = sigma_i + delta_i`` with ``delta_i = pred_i + sm_i`` and
**suspects** ``q`` at any time in ``[tau_i, tau_{i+1})`` at which it has
not received a heartbeat with sequence number ``k >= i``: a fresh
heartbeat (sequence above anything seen) ends every suspicion and moves
the deadline to ``tau_{i+1} = sigma_i + eta + delta``; an expiry starts a
suspicion; a stale heartbeat (late or reordered) never affects trust, but
its delay is observed all the same (the paper's ``obs`` list holds every
received heartbeat).  ``START_SUSPECT``/``END_SUSPECT`` events go to the
experiment's event log; every QoS metric is derived from them.

:class:`PushFailureDetector` runs every detector watching one endpoint as
one layer.  A **row** is one detector, and is either

* a table id such as ``"Last+JAC_med"``, one of the paper's
  predictor × margin combinations; or
* a ``(label, strategy)`` pair: any
  :class:`~repro.fd.timeout.TimeoutStrategy` (a constant time-out, NFD-E,
  Bertier, a registered predictor or margin), whose state is its own —
  the layer calls its ``observe(delay)`` once per heartbeat and reads its
  ``timeout()`` for the row's time-out.

The table has far fewer *states* than rows: five predictors, one
``SM_CI`` state (γ scales it at use time) and one ``SM_JAC`` deviation
per predictor (φ scales it at use time); the 30 time-outs are affine in
those.  The layer holds those states once — beside each
:class:`~repro.fd.predictors.Predictor`, the prediction in force and the
unit Jacobson deviation, updated with the operations of
``TimeoutStrategy.observe`` and ``JacobsonMargin.update`` in their order.
The delay and the freshness test are computed once per heartbeat, the
delay is checked finite before any state moves, every row's freshness
point goes through the clock in one
:meth:`~repro.clocks.clock.Clock.global_from_local_offsets` call, and
**one** :class:`~repro.sim.process.Timer` waits on the earliest deadline.
The paper's MultiPlexer exists so that all combinations "perceive
identical network conditions"; here that holds by construction.

Its observable behaviour is that of one scalar detector per row behind a
MultiPlexer, transition for transition and float for float (proved by
``tests/test_detector_bank.py``): the same events, ``suspect``/``trust``
spans and ``on_transition`` calls, in row order.  Its trace follows its
one timer: a fresh heartbeat writes **one** ``freshness`` span, the line
of the row the timer is then armed on.  A row's own freshness point is
read only when it expires, so the ``suspect`` span carries it
(``deadline``, and the ``timeout`` it was armed with).  Two rules keep
the transitions equal with a single timer:

* **Ties.**  Rows whose deadlines are equal become suspect in row order,
  each in its own timer expiry (re-armed at the same instant), exactly as
  one timer per row, armed in row order, would fire.
* **Overdue rows.**  On a real-time scheduler the clock has moved on when
  the timer fires; every further row whose deadline is strictly before
  ``now`` becomes suspect inside the same expiry instead of waiting for a
  re-armed timer (which would let the next datagram in between).  A
  deadline equal to ``now`` — the simulator's tie — is re-armed.

The batch runner, the live service, the KV controller, the consensus
harness and the η sweep all use this layer.
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
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids fd -> obs import
    from repro.obs.trace import TraceRecorder

from repro.fd.combinations import (
    MARGINS,
    combination_ids,
    make_predictor,
    parse_combination_id,
)
from repro.fd.predictors import Predictor
from repro.fd.safety import INITIAL_MARGIN, JACOBSON_ALPHA, ConfidenceIntervalMargin
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.sim.process import Timer

#: Signature of the per-detector transition-hook factory: given a detector
#: id, return the ``on_transition(suspecting)`` callback for that detector
#: (or ``None`` for no hook).
TransitionHookFactory = Callable[[str], Optional[Callable[[bool], None]]]

#: One row of the layer: a table id, or a ``(label, strategy)`` pair.
Row = Union[str, Tuple[str, TimeoutStrategy]]

#: Deadline of a row with no pending expiry (suspecting, or stopped).
_NEVER = math.inf


class DetectorView:
    """Read-only view of one row of a :class:`PushFailureDetector`.

    Exposes what callers read off a single detector — verdict, counters,
    the time-out in force — without owning any state.
    """

    __slots__ = ("_layer", "_row", "detector_id")

    def __init__(self, layer: "PushFailureDetector", row: int, detector_id: str) -> None:
        self._layer = layer
        self._row = row
        self.detector_id = detector_id

    @property
    def suspecting(self) -> bool:
        """Whether this row currently suspects the monitored process."""
        return self._layer._suspecting[self._row]

    @property
    def suspicions_raised(self) -> int:
        """How many times this row started suspecting."""
        return self._layer._suspicions[self._row]

    @property
    def heartbeats_seen(self) -> int:
        """Heartbeats received from the monitored process (layer-wide)."""
        return self._layer.heartbeats_seen

    @property
    def stale_heartbeats(self) -> int:
        """Late or reordered heartbeats among them (layer-wide)."""
        return self._layer.stale_heartbeats

    @property
    def highest_sequence(self) -> int:
        """The highest heartbeat sequence number received (−1 if none)."""
        return self._layer.highest_sequence

    def prediction(self) -> float:
        """The row's current delay forecast ``pred``, in seconds."""
        layer = self._layer
        slot, confidence_interval, _scale = layer._rows[self._row]
        if confidence_interval is None:
            return layer._strategies[slot].prediction()
        return layer._in_force[slot]

    def current_timeout(self) -> float:
        """The ``delta = pred + sm`` currently in force, in seconds."""
        return self._layer._timeouts[self._row]

    def stop(self) -> None:
        """Drop this row's pending expiry; the next fresh heartbeat
        re-arms it."""
        self._layer._stop_row(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "suspecting" if self.suspecting else "trusting"
        return f"DetectorView({self.detector_id!r}, {state})"


class PushFailureDetector(Layer):
    """Every detector watching one endpoint, as one layer.

    Indexing (``layer[detector_id]``, ``.items()``, iteration, ``len``)
    yields one :class:`DetectorView` per row, in row order.

    Parameters
    ----------
    monitored:
        Address of the monitored process (other traffic passes up).
    eta:
        The heartbeat sending period, seconds.
    event_log:
        Where ``START_SUSPECT``/``END_SUSPECT`` events are recorded.
    detectors:
        The rows, in row order: table ids (``"Arima+CI_low"`` …) and
        ``(label, strategy)`` pairs, mixed freely.  A repeated table id is
        the same row; a repeated label is an error.  ``None`` (the
        default) is the thirty table ids; ``[]`` is no row at all.
    initial_timeout:
        Time-out applied before the first heartbeat, measured from start
        plus one sending period.
    on_transition_factory:
        Optional hook factory; its return value for a row's id or label
        is called as ``on_transition(suspecting)`` on that row's
        transitions — how upper layers (consensus, membership, the KV
        controller) consume the detector as a live oracle.
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
        detectors: Optional[Sequence[Row]] = None,
        *,
        initial_timeout: float = 10.0,
        on_transition_factory: Optional[TransitionHookFactory] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        super().__init__(name=f"PushFailureDetector[{monitored}]")
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
        #: The ``(label, strategy)`` rows' strategies, in row order.
        self._strategies: List[TimeoutStrategy] = []
        #: Per row: ``(index of its predictor, CI family?, gamma or phi)``
        #: for a table id; ``(index of its strategy, None, 0.0)`` for a
        #: ``(label, strategy)`` row.
        self._rows: List[Tuple[int, Optional[bool], float]] = []
        self._views: Dict[str, DetectorView] = {}
        self._hooks: List[Optional[Callable[[bool], None]]] = []
        slots: Dict[str, int] = {}
        for row in combination_ids() if detectors is None else detectors:
            if isinstance(row, str):
                detector_id = row
                if detector_id in self._views:
                    continue  # a repeated id is the same row
                predictor_name, margin_name = parse_combination_id(detector_id)
                if predictor_name not in slots:
                    slots[predictor_name] = len(self._predictors)
                    predictor = make_predictor(predictor_name)
                    self._predictors.append(predictor)
                    self._in_force.append(predictor.predict())
                    self._mdev.append(None)
                margin_class, scale = MARGINS[margin_name]
                confidence_interval = margin_class is ConfidenceIntervalMargin
                if confidence_interval and self._ci is None:
                    self._ci = ConfidenceIntervalMargin(1.0)
                self._rows.append((slots[predictor_name], confidence_interval, scale))
            else:
                detector_id, strategy = row
                if detector_id in self._views:
                    raise ValueError(f"repeated row label {detector_id!r}")
                self._rows.append((len(self._strategies), None, 0.0))
                self._strategies.append(strategy)
            self._views[detector_id] = DetectorView(self, len(self._views), detector_id)
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
        """The view of ``detector_id``, or ``None`` if the layer lacks it."""
        return self._views.get(detector_id)

    def items(self) -> ItemsView[str, DetectorView]:
        """``(detector id, view)`` pairs in row order."""
        return self._views.items()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def highest_sequence(self) -> int:
        """The highest heartbeat sequence number received (−1 if none)."""
        return self._max_seq

    def _derive_timeouts(self) -> List[float]:
        """Every row's time-out.

        For a table row ``pred`` is its predictor's forecast in force;
        ``sm`` scales the shared margin state by the row's γ or φ
        (multiplied left to right, as :meth:`SafetyMargin.current` does).
        Clamped below at zero like :meth:`TimeoutStrategy.timeout`, which
        is what a ``(label, strategy)`` row reads.
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
            elif confidence_interval is None:
                timeouts.append(self._strategies[slot].timeout())
                continue
            else:
                deviation = mdev[slot]
                margin = INITIAL_MARGIN if deviation is None else scale * deviation
            delta = in_force[slot] + margin
            timeouts.append(delta if delta > 0.0 else 0.0)
        return timeouts

    def stop(self) -> None:
        """Cancel every pending expiry so the layer goes quiescent.

        Used by the live monitoring service on endpoint removal and
        daemon shutdown; the layer keeps its state and is re-armed by the
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
            self._expired, name=f"fd:{self.monitored}", priority=1
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
        """Every state sees the (finite) delay once.

        Per predictor, in the order of :meth:`TimeoutStrategy.observe`:
        the Jacobson deviation takes the error of the prediction in force
        (:meth:`JacobsonMargin.update` with ``alpha = JACOBSON_ALPHA``),
        then the predictor absorbs the delay and the fresh forecast its
        ``observe`` returns comes into force.  Then ``SM_CI``, which
        ignores the prediction, and each ``(label, strategy)`` row's
        strategy.
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
        for strategy in self._strategies:
            strategy.observe(delay)
        self._timeouts = self._derive_timeouts()

    def _trust_and_rearm(self, now: float, send_timestamp_local: float) -> None:
        """End every suspicion and move each row's deadline to its next
        freshness point ``tau_{i+1} = sigma_i + eta + delta``.

        ``sigma_i`` is the sender's local timestamp; the freshness points
        are converted through this process's clock in one batch, which is
        exact under the paper's synchronised-clock assumption and carries
        the residual offset otherwise.

        Traced, the ``trust`` spans come in row order, then one
        ``freshness`` span: the line a lone detector would write for the
        row the timer is now armed on (the earliest deadline, row order
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
            row = deadlines.index(min(deadlines))  # ties: row order
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
            f"PushFailureDetector({self.monitored!r}, rows={len(self._rows)}, "
            f"suspecting={sum(self._suspecting)}, seq={self._max_seq})"
        )


__all__ = [
    "DetectorView",
    "PushFailureDetector",
    "Row",
    "TransitionHookFactory",
]
