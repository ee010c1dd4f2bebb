"""Typed distributed events.

Every quantity the paper reports is derived from six event kinds (its
Figure 3): heartbeat ``SENT``/``RECEIVED``, detector ``START_SUSPECT``/
``END_SUSPECT``, and injected ``CRASH``/``RESTORE``.

An event records the *global* simulation time (the paper's synchronised-
clock assumption makes local ≈ global; when clock error is enabled, the
emitting site additionally records its local reading in ``local_time`` so
the synchronisation error is measurable).

Same-instant rule
-----------------
Transitions stamped with the same instant take effect in the order of
:data:`SAME_INSTANT_RANK`: a restore, then a crash, then the detectors'
suspect/trust transitions.  The end of an observation (a run's
``end_time``, a window's end) closes a crash still open there as a
restore at that instant, so it too precedes the detector transitions
stamped with it: a suspicion standing when the closing crash ends is a
detection, and one raised exactly at the end is raised while up.
:func:`~repro.nekostat.metrics.extract_qos` and
:class:`~repro.obs.history.WindowedQosStore` follow it;
:class:`~repro.nekostat.metrics.OnlineQosAccumulator` expects its
transitions fed in this order.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, NamedTuple, Optional


class EventKind(enum.Enum):
    """The event vocabulary of the experimental architecture."""

    SENT = "sent"
    RECEIVED = "received"
    START_SUSPECT = "start_suspect"
    END_SUSPECT = "end_suspect"
    CRASH = "crash"
    RESTORE = "restore"


#: Replay order of the state-changing kinds at one instant (lower first);
#: see the module docstring.
SAME_INSTANT_RANK = {
    EventKind.RESTORE: 0,
    EventKind.CRASH: 1,
    EventKind.START_SUSPECT: 2,
    EventKind.END_SUSPECT: 2,
}


class _StatEventFields(NamedTuple):
    time: float
    kind: EventKind
    site: str
    detector: Optional[str] = None
    seq: Optional[int] = None
    local_time: Optional[float] = None
    data: Optional[Dict[str, Any]] = None


class StatEvent(_StatEventFields):
    """One distributed event, an immutable tuple record.

    Built by keyword like a record or positionally in field order (the
    detector bank's hot path).  Each event gets its own ``data`` dict when
    none is given.  Use ``event._replace(...)`` to derive a changed copy.

    Attributes
    ----------
    time:
        Global (simulator) time of the event, seconds.
    kind:
        The :class:`EventKind`.
    site:
        Address of the process where the event happened.
    detector:
        Identifier of the failure-detector combination that emitted a
        ``START_SUSPECT``/``END_SUSPECT``; ``None`` for other kinds.
    seq:
        Heartbeat sequence number for ``SENT``/``RECEIVED``.
    local_time:
        The emitting site's local clock reading, if it differs from
        global time.
    data:
        Free-form extras (e.g. the time-out value in force).
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        kind: EventKind,
        site: str,
        detector: Optional[str] = None,
        seq: Optional[int] = None,
        local_time: Optional[float] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> "StatEvent":
        if detector is None and kind in (EventKind.START_SUSPECT, EventKind.END_SUSPECT):
            raise ValueError(f"{kind.value} events must carry a detector id")
        if seq is None and kind in (EventKind.SENT, EventKind.RECEIVED):
            raise ValueError(f"{kind.value} events must carry a sequence number")
        return tuple.__new__(
            cls,
            (time, kind, site, detector, seq, local_time, {} if data is None else data),
        )

    @classmethod
    def _make(cls, iterable: Any) -> "StatEvent":
        # Through __new__, so ``_replace`` validates like construction.
        return cls(*iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"t={self.time:.6f}", self.kind.value, self.site]
        if self.detector is not None:
            parts.append(f"fd={self.detector}")
        if self.seq is not None:
            parts.append(f"seq={self.seq}")
        return f"StatEvent({', '.join(parts)})"


__all__ = ["EventKind", "SAME_INSTANT_RANK", "StatEvent"]
