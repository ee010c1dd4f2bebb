"""The MultiPlexer layer (paper Section 4).

When the monitor receives a message from the network, the MultiPlexer
immediately forwards it to *all* the components at the upper level,
guaranteeing that every consumer perceives identical network conditions.
This fan-out is what makes the comparison fair: one arrival sequence, many
simultaneous consumers.

The paper's thirty combinations are one upper here: the
:class:`~repro.fd.detector.PushFailureDetector` layer gives its rows
identical conditions by construction (one delay, one freshness test per
heartbeat).  The MultiPlexer stays in every monitor stack for what sits
beside that layer —
baseline and tuning detectors (``extra_monitor_layers``), the ``fanout``
span and ``RECEIVED`` events.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids fd -> obs import
    from repro.obs.trace import TraceRecorder

from repro.neko.layer import Handler, Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram


class MultiPlexer(Layer):
    """Fans every delivered message out to a set of upper layers.

    The upper layers are full citizens of the process: they are attached
    to it when the MultiPlexer is, their ``on_start`` hooks run, and they
    are wired when it is — their ``send_down`` is the MultiPlexer's
    effective ``send``, towards the network.
    """

    def __init__(
        self,
        uppers: Sequence[Layer],
        event_log: Optional[EventLog] = None,
        *,
        record_received_events: bool = False,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        super().__init__(name="MultiPlexer")
        self._uppers: List[Layer] = list(uppers)
        self._event_log = event_log
        self._record_received_events = bool(record_received_events)
        self._tracer = tracer
        self._upper_delivers: List[Handler] = [upper.deliver for upper in self._uppers]
        self.messages_fanned_out = 0

    @property
    def uppers(self) -> List[Layer]:
        """The layers fed by this MultiPlexer."""
        return list(self._uppers)

    def on_attach(self) -> None:
        for upper in self._uppers:
            upper._attach(self.process)

    def _wire(self, send_down: Handler, deliver_up: Optional[Handler]) -> None:
        super()._wire(send_down, deliver_up)
        for upper in self._uppers:
            upper._wire(self.send, None)
        self._upper_delivers = [upper.deliver for upper in self._uppers]

    def on_start(self) -> None:
        for upper in self._uppers:
            upper.on_start()

    def deliver(self, message: Datagram) -> None:
        if self._event_log is not None and self._record_received_events and (
            message.seq is not None
        ):
            self._event_log.append(
                StatEvent(
                    time=self.process.sim.now,
                    kind=EventKind.RECEIVED,
                    site=self.process.address,
                    seq=message.seq,
                    local_time=self.process.local_time(),
                )
            )
        if self._tracer is not None and message.seq is not None:
            self._tracer.emit(
                self.process.sim.now,
                "fanout",
                message.source,
                seq=message.seq,
            )
        self.messages_fanned_out += 1
        for deliver in self._upper_delivers:
            deliver(message)
        self.deliver_up(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiPlexer(uppers={len(self._uppers)})"


__all__ = ["MultiPlexer"]
