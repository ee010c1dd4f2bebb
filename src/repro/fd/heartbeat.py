"""The heartbeater layer: the monitored process's periodic sender.

Process ``q`` has cyclic behaviour: every ``eta`` time units it sends a
heartbeat carrying its cycle number ``i`` and its local send time
``sigma_i``.  The cycle count is driven by virtual time, so it keeps
advancing across injected crash periods (the SimCrash layer below simply
drops the messages while "crashed", exactly as in the paper's
architecture).
"""

from __future__ import annotations

from typing import Optional

from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.sim.process import PeriodicTimer


class Heartbeater(Layer):
    """Sends heartbeat datagrams to the monitor every ``eta`` seconds.

    ``start`` is the absolute time of heartbeat 0 (default: when the
    system starts); a fleet staggers its members' phases with it.
    """

    def __init__(
        self,
        monitor: str,
        eta: float,
        event_log: Optional[EventLog] = None,
        *,
        record_sent_events: bool = False,
        start: Optional[float] = None,
    ) -> None:
        super().__init__(name="Heartbeater")
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
        self.monitor = monitor
        self.eta = float(eta)
        self._start = start
        self._event_log = event_log
        self._record_sent_events = bool(record_sent_events)
        self._timer: Optional[PeriodicTimer] = None
        self.sent = 0
        self.last_send_time: Optional[float] = None

    def on_start(self) -> None:
        self._timer = self.process.periodic_timer(
            self.eta, self._beat, start=self._start, name="heartbeat"
        )
        self._timer.start()

    def stop(self) -> None:
        """Stop sending heartbeats (end of experiment)."""
        if self._timer is not None:
            self._timer.stop()

    def _beat(self, seq: int) -> None:
        timestamp = self.process.local_time()
        self.last_send_time = self.process.sim.now
        message = Datagram(
            source=self.process.address,
            destination=self.monitor,
            kind="heartbeat",
            seq=seq,
            timestamp=timestamp,
        )
        self.sent += 1
        if self._event_log is not None and self._record_sent_events:
            self._event_log.append(
                StatEvent(
                    time=self.process.sim.now,
                    kind=EventKind.SENT,
                    site=self.process.address,
                    seq=seq,
                    local_time=timestamp,
                )
            )
        self.send_down(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heartbeater(monitor={self.monitor!r}, eta={self.eta!r}, sent={self.sent})"


__all__ = ["Heartbeater"]
