"""The Neko process: an addressable protocol stack with a local clock."""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.clocks.clock import Clock, PerfectClock
from repro.neko.layer import ProtocolStack
from repro.net.message import Datagram
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTimer, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.neko.system import NekoSystem


class NekoProcess:
    """One process of the distributed system.

    A process owns a :class:`~repro.neko.layer.ProtocolStack`, a local
    :class:`~repro.clocks.clock.Clock`, and its network address.  Layers
    reach the simulation engine and the clock through their process, which
    is how the same layer code runs on a simulated or a real network (in
    real executions the "simulator" is a thin event-loop shim — see
    :class:`repro.service.runtime.AsyncioScheduler`).
    """

    def __init__(
        self,
        system: "NekoSystem",
        address: str,
        stack: ProtocolStack,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        if not address:
            raise ValueError("process address must be non-empty")
        #: The system this process belongs to.
        self.system = system
        #: The network address (name) of this process.
        self.address = address
        #: The scheduling engine (virtual time in simulations).
        self.sim: Simulator = system.sim
        #: This process's local clock.
        self.clock: Clock = clock if clock is not None else PerfectClock(self.sim)
        #: The protocol stack.
        self.stack = stack
        self._network_send = system.network.send
        stack.attach(self, self._send_to_network)
        self._deliver = stack.bottom.deliver

    def local_time(self) -> float:
        """The current local clock reading, in seconds."""
        return self.clock.now()

    # ------------------------------------------------------------------
    # Timers (conveniences for layers)
    # ------------------------------------------------------------------
    def timer(
        self,
        callback: Callable[[], None],
        name: str = "timer",
        *,
        priority: int = 0,
    ) -> Timer:
        """Create a one-shot re-armable timer on this process's engine.

        ``priority`` breaks ties with other events at the same instant;
        time-out expiries pass ``priority=1`` so that a message delivered
        at exactly the freshness point still counts as received in time
        (the paper's interval is closed at ``tau``).
        """
        return Timer(
            self.sim, callback, name=f"{self.address}:{name}", priority=priority
        )

    def periodic_timer(
        self,
        period: float,
        callback: Callable[[int], None],
        *,
        start: Optional[float] = None,
        name: str = "periodic",
    ) -> PeriodicTimer:
        """Create a periodic timer on this process's engine."""
        return PeriodicTimer(
            self.sim, period, callback, start=start, name=f"{self.address}:{name}"
        )

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------
    def _send_to_network(self, message: Datagram) -> None:
        self._network_send(message)

    def receive_from_network(self, message: Datagram) -> None:
        """Called by the network backend when a datagram arrives here."""
        self._deliver(message)

    def start(self) -> None:
        """Start the protocol stack (bottom-up ``on_start`` hooks)."""
        self.stack.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NekoProcess({self.address!r}, {self.stack!r})"


__all__ = ["NekoProcess"]
