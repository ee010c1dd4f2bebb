"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

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


def model_state(value):
    """A link model's state as plain data, nested models and spike runs
    included.  The generator is left out (compare its
    ``bit_generator.state``), and so are its bound draw methods."""
    if isinstance(value, np.random.Generator) or hasattr(value, "__self__"):
        return None
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [model_state(item) for item in value]
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    names = getattr(type(value), "__slots__", None) or list(vars(value))
    return (
        type(value).__name__,
        {name: model_state(getattr(value, name)) for name in names},
    )


def send_schedules(longest: int):
    """Hypothesis strategy: send times and a ``(lo, hi)`` block inside
    them.  The block may sit after some per-datagram calls and before
    others, or be empty."""
    return st.integers(0, longest).flatmap(
        lambda count: st.tuples(
            st.just(np.arange(count) * 0.7),
            st.tuples(st.integers(0, count), st.integers(0, count)).map(sorted),
        )
    )


def assert_block_equals_scalar(make, scalar: str, block: str, schedule) -> None:
    """The ``block`` method over ``times[lo:hi]``, between calls of the
    per-datagram ``scalar`` method on either side, gives what ``scalar``
    calls throughout give, and leaves the generator and the model in the
    same state.  ``make(rng)`` builds the model; ``schedule`` is
    ``(times, (lo, hi))`` as :func:`send_schedules` draws it."""
    times, (lo, hi) = schedule
    times = times.tolist()
    seed = 20050628
    reference_rng = np.random.default_rng(seed)
    reference = make(reference_rng)
    expected = [getattr(reference, scalar)(now) for now in times]
    rng = np.random.default_rng(seed)
    model = make(rng)
    one = getattr(model, scalar)
    got = [one(now) for now in times[:lo]]
    middle = getattr(model, block)(np.asarray(times[lo:hi], dtype=float))
    assert middle.shape == (hi - lo,)
    got += middle.tolist()
    got += [one(now) for now in times[hi:]]
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert model_state(model) == model_state(reference)


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
