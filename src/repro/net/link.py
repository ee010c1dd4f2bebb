"""The simulated fair-lossy link.

A :class:`FairLossyLink` is a unidirectional channel: ``send(datagram)``
samples the loss and delay models and, if the datagram survives, schedules
its delivery to the receiver callback on the simulator.  The link

* can **drop** (per the loss model),
* can **reorder** (a later datagram with a smaller sampled delay overtakes
  an earlier one — exactly the UDP behaviour the paper assumes), unless
  FIFO delivery is explicitly requested,
* never corrupts, duplicates or forges datagrams.

These are the "fair lossy link" semantics of the paper's Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

from repro.net.delay import DelayModel
from repro.net.loss import LossModel, NoLoss
from repro.net.message import Datagram
from repro.sim.engine import Simulator


@dataclass
class LinkStats:
    """Counters and samples accumulated by a link.

    ``delays`` holds the sampled one-way delay of every *delivered*
    datagram, in send order — the raw material for the paper's Table 4
    characterisation.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    reordered: int = 0
    delays: List[float] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        """Observed fraction of sent datagrams that were dropped."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent


class FairLossyLink:
    """A unidirectional fair-lossy link over the simulation engine.

    Parameters
    ----------
    sim:
        The simulation engine used to schedule deliveries.
    delay_model, loss_model:
        The stochastic behaviour of the link.
    receiver:
        Callback invoked as ``receiver(datagram)`` at delivery time.  It can
        also be attached later with :meth:`connect`.
    fifo:
        If ``True``, a datagram is never delivered before one sent earlier:
        the effective delivery time is clamped to the latest delivery time
        scheduled so far.  Defaults to ``False`` (UDP-like reordering).
    record_delays:
        Whether to append each delivered datagram's delay to
        ``stats.delays``.  On multi-hour runs with millions of heartbeats
        this can be disabled to save memory.
    """

    def __init__(
        self,
        sim: Simulator,
        delay_model: DelayModel,
        loss_model: Optional[LossModel] = None,
        *,
        receiver: Optional[Callable[[Datagram], None]] = None,
        fifo: bool = False,
        record_delays: bool = True,
    ) -> None:
        self._sim = sim
        self._delay_model = delay_model
        self._loss_model = loss_model if loss_model is not None else NoLoss()
        self._receiver = receiver
        self._fifo = bool(fifo)
        self._record_delays = bool(record_delays)
        self._last_scheduled_delivery = -float("inf")
        self._send_index = 0
        self._max_delivered_index = -1
        self.stats = LinkStats()

    @property
    def sim(self) -> Simulator:
        """The simulation engine this link schedules on."""
        return self._sim

    def connect(self, receiver: Callable[[Datagram], None]) -> None:
        """Attach (or replace) the delivery callback."""
        self._receiver = receiver

    def send(self, datagram: Datagram) -> Optional[float]:
        """Send a datagram.

        Returns the sampled one-way delay if the datagram will be
        delivered, or ``None`` if the loss model dropped it.  The returned
        delay is the *effective* one (after FIFO clamping, if enabled).
        """
        if self._receiver is None:
            raise RuntimeError("link has no receiver; call connect() first")
        now = self._sim.now
        self.stats.sent += 1
        send_index = self._send_index
        self._send_index += 1
        if self._loss_model.drops(now):
            self.stats.dropped += 1
            return None
        delay = self._delay_model.sample(now)
        if delay < 0:
            raise ValueError(f"delay model produced negative delay {delay!r}")
        delivery_time = now + delay
        if self._fifo and delivery_time < self._last_scheduled_delivery:
            delivery_time = self._last_scheduled_delivery
            delay = delivery_time - now
        self._last_scheduled_delivery = max(self._last_scheduled_delivery, delivery_time)
        self._sim.schedule_at(
            delivery_time, partial(self._deliver, datagram, delay, send_index), name="deliver"
        )
        return delay

    def _deliver(self, datagram: Datagram, delay: float, send_index: int) -> None:
        self.stats.delivered += 1
        if send_index < self._max_delivered_index:
            # A datagram sent later has already been delivered: this one
            # was overtaken in flight.
            self.stats.reordered += 1
        self._max_delivered_index = max(self._max_delivered_index, send_index)
        if self._record_delays:
            self.stats.delays.append(delay)
        assert self._receiver is not None
        self._receiver(datagram)

    def reset_models(self) -> None:
        """Reset the delay and loss model state (not the statistics)."""
        self._delay_model.reset()
        self._loss_model.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FairLossyLink(sent={self.stats.sent}, delivered={self.stats.delivered}, "
            f"dropped={self.stats.dropped}, fifo={self._fifo})"
        )


__all__ = ["FairLossyLink", "LinkStats"]
