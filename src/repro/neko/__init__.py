"""A Python re-implementation of the Neko protocol framework.

Neko (Urbán, Défago & Schiper, ICOIN 2001) lets a distributed algorithm be
written once as a stack of *layers* and executed unchanged on either a
simulated network or a real one.  This package reproduces that contract:

* :class:`~repro.neko.layer.Layer` — the unit of protocol composition, with
  ``send`` flowing down and ``deliver`` flowing up;
* :class:`~repro.neko.process.NekoProcess` — an addressable process holding
  a protocol stack and a local clock;
* :class:`~repro.neko.system.NekoSystem` — wires processes to a network
  backend (the discrete-event simulator by default, a real UDP socket on
  an asyncio loop via :class:`repro.net.udp.UdpNetwork`).
"""

from repro.neko.layer import Layer, ProtocolStack
from repro.neko.process import NekoProcess
from repro.neko.system import NekoSystem, NetworkBackend, SimulatedNetwork
from repro.neko.config import ExperimentConfig

__all__ = [
    "ExperimentConfig",
    "Layer",
    "NekoProcess",
    "NekoSystem",
    "NetworkBackend",
    "ProtocolStack",
    "SimulatedNetwork",
]
