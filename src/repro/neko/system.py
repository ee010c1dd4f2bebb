"""The Neko system: processes wired onto a network backend.

The backend abstraction is what delivers Neko's "same code, simulated or
real network" promise: :class:`SimulatedNetwork` routes datagrams over
:class:`~repro.net.link.FairLossyLink` instances on the discrete-event
engine, while :class:`repro.net.udp.UdpNetwork` routes them over a real
UDP socket on an asyncio event loop.  Application layers cannot tell the
difference.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple

from repro.clocks.clock import Clock
from repro.neko.layer import ProtocolStack
from repro.neko.process import NekoProcess
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.link import FairLossyLink
from repro.net.loss import LossModel
from repro.net.message import Datagram
from repro.net.wan import WanProfile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class NetworkBackend(abc.ABC):
    """Routes datagrams between registered process addresses."""

    @abc.abstractmethod
    def register(self, address: str, receiver: Callable[[Datagram], None]) -> None:
        """Register a delivery callback for ``address``."""

    @abc.abstractmethod
    def send(self, message: Datagram) -> None:
        """Route ``message`` towards its destination."""


class SimulatedNetwork(NetworkBackend):
    """A mesh of fair-lossy links over the simulation engine.

    Links are configured per ordered (source, destination) pair with
    :meth:`set_link` or :meth:`set_link_profile`.  A pair with no
    configured link gets one the first time a datagram needs it (or
    :meth:`link` asks for it): built from the network-wide ``profile``
    on ``streams`` with ``link_kwargs`` when one is given, otherwise a
    zero-delay lossless default, which keeps unit tests terse.  Streams
    are named by direction and no model draws at construction, so a link
    built on first use is the link an eager all-pairs mesh would hold.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: Optional[WanProfile] = None,
        streams: Optional[RandomStreams] = None,
        **link_kwargs,
    ) -> None:
        if (profile is None) != (streams is None):
            raise ValueError("profile and streams must be given together")
        self._sim = sim
        self._profile = profile
        self._streams = streams
        self._link_kwargs = link_kwargs
        self._receivers: Dict[str, Callable[[Datagram], None]] = {}
        self._links: Dict[Tuple[str, str], FairLossyLink] = {}
        self._outbound_filter: Optional[
            Callable[[FairLossyLink, Datagram], None]
        ] = None

    def register(self, address: str, receiver: Callable[[Datagram], None]) -> None:
        if address in self._receivers:
            raise ValueError(f"address {address!r} already registered")
        self._receivers[address] = receiver

    def set_link(
        self,
        source: str,
        destination: str,
        delay_model: DelayModel,
        loss_model: Optional[LossModel] = None,
        *,
        fifo: bool = False,
        record_delays: bool = True,
    ) -> FairLossyLink:
        """Install (and return) the link used for source→destination."""
        link = FairLossyLink(
            self._sim,
            delay_model,
            loss_model,
            fifo=fifo,
            record_delays=record_delays,
        )
        link.connect(self._deliver)
        self._links[(source, destination)] = link
        return link

    def set_link_profile(
        self,
        source: str,
        destination: str,
        profile: WanProfile,
        streams: RandomStreams,
        **link_kwargs,
    ) -> FairLossyLink:
        """Install a link built from a :class:`WanProfile`.

        The random streams are named by direction, so the forward and
        reverse paths of a bidirectional connection are independent.
        """
        direction = f"{source}->{destination}"
        return self.set_link(
            source,
            destination,
            profile.build_delay_model(streams, direction),
            profile.build_loss_model(streams, direction),
            **link_kwargs,
        )

    def link(self, source: str, destination: str) -> FairLossyLink:
        """Return the link for the ordered pair, building it from the
        network's profile if it has none yet; raises if there is no
        profile to build from."""
        link = self._links.get((source, destination))
        if link is not None:
            return link
        if self._profile is None:
            raise LookupError(f"no link configured for {source!r} -> {destination!r}")
        return self._build_link(source, destination)

    def _build_link(self, source: str, destination: str) -> FairLossyLink:
        """The link a pair gets on first use."""
        if self._profile is None:
            return self.set_link(source, destination, ConstantDelay(0.0))
        assert self._streams is not None
        return self.set_link_profile(
            source, destination, self._profile, self._streams, **self._link_kwargs
        )

    def set_outbound_filter(
        self,
        filter_fn: Optional[Callable[[FairLossyLink, Datagram], None]],
    ) -> None:
        """Install an interceptor that replaces ``link.send`` for routing.

        The filter receives the resolved link and the outbound datagram
        and takes over transmission — the hook :mod:`repro.chaos` uses to
        inject faults in front of every simulated link.  Pass ``None``
        to restore direct delivery.
        """
        self._outbound_filter = filter_fn

    def send(self, message: Datagram) -> None:
        link = self._links.get((message.source, message.destination))
        if link is None:
            link = self._build_link(message.source, message.destination)
        if self._outbound_filter is not None:
            self._outbound_filter(link, message)
        else:
            link.send(message)

    def _deliver(self, message: Datagram) -> None:
        receiver = self._receivers.get(message.destination)
        if receiver is not None:
            receiver(message)
        # Datagrams for unknown destinations vanish: fair-lossy semantics
        # allow it and it matches UDP (no ICMP feedback modelled).


class NekoSystem:
    """Creates processes, wires them to a network backend and runs them.

    Typical simulated use::

        sim = Simulator()
        system = NekoSystem(sim)
        system.network.set_link("p", "q", delay_model, loss_model)
        p = system.create_process("p", ProtocolStack([...]))
        q = system.create_process("q", ProtocolStack([...]))
        system.start()
        sim.run(until=3600.0)

    On a real network ``sim`` is the network's
    :class:`~repro.service.runtime.AsyncioScheduler` and time passes by
    itself: ``NekoSystem(network.scheduler, network)``, then
    :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Optional[NetworkBackend] = None,
    ) -> None:
        self._sim = sim
        self._network = network if network is not None else SimulatedNetwork(sim)
        self._processes: Dict[str, NekoProcess] = {}
        self._started = False

    @property
    def sim(self) -> Simulator:
        """The scheduling engine shared by all processes."""
        return self._sim

    @property
    def network(self) -> NetworkBackend:
        """The network backend routing datagrams between processes."""
        return self._network

    @property
    def processes(self) -> Dict[str, NekoProcess]:
        """All processes by address."""
        return dict(self._processes)

    def create_process(
        self,
        address: str,
        stack: ProtocolStack,
        *,
        clock: Optional[Clock] = None,
    ) -> NekoProcess:
        """Create a process, register it with the network, return it;
        started at once if the system already is."""
        if address in self._processes:
            raise ValueError(f"process address {address!r} already in use")
        process = NekoProcess(self, address, stack, clock=clock)
        self._network.register(address, process.receive_from_network)
        self._processes[address] = process
        if self._started:
            process.start()
        return process

    def start(self) -> None:
        """Start every process's stack (idempotent)."""
        if self._started:
            return
        self._started = True
        for process in self._processes.values():
            process.start()

    def run(self, until: float) -> None:
        """Start (if needed) and run the simulation to virtual time ``until``."""
        self.start()
        self._sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NekoSystem(processes={sorted(self._processes)})"


__all__ = ["NekoSystem", "NetworkBackend", "SimulatedNetwork"]
