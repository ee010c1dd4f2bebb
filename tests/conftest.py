"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import repro
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem, NetworkBackend
from repro.nekostat.log import EventLog
from repro.net.delay import ConstantDelay
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: ``HYPOTHESIS_PROFILE=deep`` runs the properties ten times deeper than
#: tier-1 does: hypothesis' default example count through the profile,
#: and the counts the equivalence proofs pin through :func:`examples`.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
DEEP_FACTOR = 10
settings.register_profile("deep", max_examples=100 * DEEP_FACTOR)
settings.load_profile(HYPOTHESIS_PROFILE)


def repro_calls(profiler) -> int:
    """Calls of functions defined in the ``repro`` package (C functions
    and everything outside it are left out) — the rule of the benchmark's
    ``py_calls_per_unit``."""
    prefix = os.path.join(os.path.dirname(repro.__file__), "")
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(prefix)
    )


def examples(tier1: int) -> int:
    """A property's ``max_examples``: ``tier1``, times ten under the
    ``deep`` profile (an explicit count would otherwise override it)."""
    return tier1 * DEEP_FACTOR if HYPOTHESIS_PROFILE == "deep" else tier1


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator starting at t = 0."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams with a fixed seed."""
    return RandomStreams(12345)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded numpy generator for direct model tests."""
    return np.random.default_rng(987)


@pytest.fixture
def event_log() -> EventLog:
    """An empty event log."""
    return EventLog()


class RecordingLayer(Layer):
    """A top layer that records everything delivered to it."""

    def __init__(self, name: str = "recorder") -> None:
        super().__init__(name=name)
        self.received = []

    def deliver(self, message) -> None:
        self.received.append(message)


def make_two_process_system(
    sim: Simulator,
    monitored_layers,
    monitor_layers,
    *,
    delay: float = 0.0,
):
    """Wire a minimal monitored/monitor pair with constant-delay links."""
    system = NekoSystem(sim)
    system.network.set_link("monitored", "monitor", ConstantDelay(delay))
    system.network.set_link("monitor", "monitored", ConstantDelay(delay))
    monitored = system.create_process("monitored", ProtocolStack(monitored_layers))
    monitor = system.create_process("monitor", ProtocolStack(monitor_layers))
    return system, monitored, monitor


class RecordingNetwork(NetworkBackend):
    """A backend that records what is sent and delivers nothing: the
    socket-less third network the live layers are unit-tested on."""

    def __init__(self) -> None:
        self.sent = []

    def register(self, address, receiver) -> None:
        pass

    def send(self, message) -> None:
        self.sent.append(message)


def socketless_emitter(scheduler, name, layers):
    """One process of ``layers`` on ``scheduler``, started; returns the
    list its datagrams land in."""
    network = RecordingNetwork()
    system = NekoSystem(scheduler, network)
    system.create_process(name, ProtocolStack(layers))
    system.start()
    return network.sent
