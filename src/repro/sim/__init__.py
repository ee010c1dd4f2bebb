"""Discrete-event simulation kernel.

The :mod:`repro.sim` package provides a small, deterministic discrete-event
simulation engine.  Everything in the reproduction that needs virtual time —
the WAN delay models, the heartbeater, the failure detectors, the crash
injector — is driven by a single :class:`~repro.sim.engine.Simulator`
instance.

Determinism is a first-class goal: given the same seed, a simulation
produces bit-identical event sequences.  Randomness is obtained through
named :class:`~repro.sim.random.RandomStreams` so that adding a new random
component never perturbs the draws seen by existing components.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.random import RandomStreams
from repro.sim.process import PeriodicTimer, Timer

__all__ = [
    "Event",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timer",
]
