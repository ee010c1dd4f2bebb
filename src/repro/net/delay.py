"""One-way delay models for simulated links.

A delay model answers one question: *how long will the datagram sent now
take to arrive?*  Models are sampled once per datagram, in send order, so
stateful models (congestion epochs, spike runs) see a coherent timeline.

All delays are in **seconds**.  Models take their randomness from an
injected :class:`numpy.random.Generator`, never from a global source, which
keeps simulations reproducible (see :mod:`repro.sim.random`).

These are the models a profile (:mod:`repro.net.wan`) or a simulated
system builds:

* :class:`ConstantDelay` — a fixed delay, the simulated network's default.
* :class:`ShiftedGammaDelay` — the classic Internet one-way delay shape:
  a fixed propagation floor plus gamma-distributed queueing (the LAN
  profile).
* :class:`LognormalDelay` with a :class:`SpikeOverlay` — rare large
  excursions over a heavy-tailed body (the mobile profile).
* :class:`MultiScaleWanDelay` — jitter, congestion epochs, a slow level
  and spike tiers in one flat sampler (the Italy–Japan profile; the
  paper's path shows a 340 ms maximum against a 192 ms minimum).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DelayModel(abc.ABC):
    """Abstract one-way delay process.

    :meth:`sample` draws for one datagram; the simulator, the live stack
    and the KV store call it once per send.  :meth:`sample_many` draws for
    a whole send schedule at once — the replay engine's trace synthesis —
    and must return what that many :meth:`sample` calls would, leaving the
    generator and the model in the same state.  The default is that loop,
    which keeps ``now``-dependent models exact; a model with a cheaper
    equal form overrides it (``tests/test_delay_models.py`` holds every
    model to it).
    """

    @abc.abstractmethod
    def sample(self, now: float) -> float:
        """Draw the delay (seconds) of a datagram sent at time ``now``."""

    def sample_many(self, times: "np.ndarray") -> "np.ndarray":
        """Float array: ``out[i]`` is ``sample(times[i])``, in order."""
        times = np.asarray(times, dtype=float)
        return np.fromiter(map(self.sample, times.tolist()), float, times.size)

    def reset(self) -> None:
        """Reset any internal state (default: stateless, no-op)."""


class ConstantDelay(DelayModel):
    """A fixed delay — useful for tests and idealised LANs."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._delay = float(delay)

    def sample(self, now: float) -> float:
        return self._delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantDelay({self._delay!r})"


class ShiftedGammaDelay(DelayModel):
    """``minimum + Gamma(shape, scale)`` queueing delay.

    The gamma family fits measured one-way Internet delays well: a hard
    propagation floor, a mode slightly above it, and an exponential-ish
    tail.  ``mean() = minimum + shape * scale``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        minimum: float,
        shape: float,
        scale: float,
    ) -> None:
        if minimum < 0:
            raise ValueError(f"minimum must be >= 0, got {minimum!r}")
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be > 0, got {shape!r}, {scale!r}")
        self._rng = rng
        self._minimum = float(minimum)
        self._shape = float(shape)
        self._scale = float(scale)

    @property
    def minimum(self) -> float:
        """The propagation floor, in seconds."""
        return self._minimum

    def mean(self) -> float:
        """The theoretical mean delay."""
        return self._minimum + self._shape * self._scale

    def std(self) -> float:
        """The theoretical delay standard deviation."""
        return math.sqrt(self._shape) * self._scale

    def sample(self, now: float) -> float:
        return self._minimum + float(self._rng.gamma(self._shape, self._scale))


class LognormalDelay(DelayModel):
    """``minimum + Lognormal(mu, sigma)`` queueing delay.

    Heavier-tailed than the gamma; used for the "mobile network" ablation
    profile where delay variance is large.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        minimum: float,
        mu: float,
        sigma: float,
    ) -> None:
        if minimum < 0:
            raise ValueError(f"minimum must be >= 0, got {minimum!r}")
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma!r}")
        self._rng = rng
        self._minimum = float(minimum)
        self._mu = float(mu)
        self._sigma = float(sigma)

    def sample(self, now: float) -> float:
        return self._minimum + float(self._rng.lognormal(self._mu, self._sigma))


@dataclass(frozen=True)
class SpikeTier:
    """The parameters of one spike process (see :class:`SpikeOverlay`)."""

    probability: float
    minimum: float
    maximum: float
    run: int = 1
    decay: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"spike_probability must be in [0, 1], got {self.probability!r}"
            )
        if self.minimum < 0 or self.maximum < self.minimum:
            raise ValueError(
                f"need 0 <= spike_min <= spike_max, got {self.minimum!r}, {self.maximum!r}"
            )
        if self.run < 1:
            raise ValueError(f"spike_run must be >= 1, got {self.run!r}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {self.decay!r}")


class _SpikeRun:
    """One tier's parameters beside its running state, for the flat sampler."""

    __slots__ = ("probability", "minimum", "span", "rest", "decay", "spike", "remaining")

    def __init__(self, tier: SpikeTier) -> None:
        self.probability = float(tier.probability)
        self.minimum = float(tier.minimum)
        self.span = float(tier.maximum) - self.minimum
        self.rest = int(tier.run) - 1
        self.decay = float(tier.decay)
        self.spike = 0.0  # what the next covered datagram gets
        self.remaining = 0  # datagrams the current spike still covers


class MultiScaleWanDelay(DelayModel):
    """The calibrated multi-timescale WAN delay process.

    One sampled delay is::

        floor + max(0, base + white + telegraph + slow) + spikes

    with four stochastic components at distinct timescales:

    * ``white`` — i.i.d. Gaussian per-packet jitter;
    * ``telegraph`` — congestion epochs: a two-state Markov level, 0 or
      ``telegraph_high``, with geometric dwell times of the given means
      (in samples);
    * ``slow`` — an AR(1) level wandering over ~an hour (time-of-day
      drift);
    * ``spikes`` — rare multi-packet delay excursions, one process per
      entry of ``spike_tiers`` (:class:`SpikeOverlay` semantics: uniform
      amplitude, short decaying run).

    The mixture is what lets the reproduction exhibit the paper's
    predictor phenomenology: jitter penalises LAST, epochs penalise MEAN,
    spikes stress every safety margin, and the floor anchors the Table 4
    minimum.

    :meth:`sample` is one flat method — every simulated datagram pays it —
    that draws white, slow, telegraph and then each tier in turn from the
    one generator: the draws, in the order, of a sum of the core (its
    epochs a random-telegraph model of their own) with the first tier and
    a ``SpikeOverlay(rng, ConstantDelay(0.0), tier)`` per further tier,
    which ``tests/test_delay_models.py`` builds from parts
    (``tests/reference_delay.py``) and holds it to sample for sample and
    generator state for generator state.  :meth:`sample_many` is the same
    draw sequence for a replayed trace in one call, its state in locals.
    The Gaussian draws consume a variable number of generator words, so
    the sequence cannot be drawn as one block; it stays five scalar draws
    per datagram (more while a spike fires).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        floor: float,
        base_queue: float,
        white_std: float,
        telegraph_high: float,
        telegraph_dwell_low: float,
        telegraph_dwell_high: float,
        slow_std: float,
        slow_tau: float,
        spike_tiers: Sequence[SpikeTier] = (),
    ) -> None:
        if floor < 0 or base_queue < 0:
            raise ValueError("floor and base_queue must be >= 0")
        if min(white_std, slow_std) < 0 or slow_tau <= 0:
            raise ValueError("noise parameters must be >= 0 (tau > 0)")
        if telegraph_high < 0:
            raise ValueError(f"telegraph_high must be >= 0, got {telegraph_high!r}")
        if telegraph_dwell_low < 1 or telegraph_dwell_high < 1:
            raise ValueError(
                "dwell times must be >= 1 sample, got "
                f"{telegraph_dwell_low!r}, {telegraph_dwell_high!r}"
            )
        self._draw = rng.random
        self._normal = rng.standard_normal
        self._floor = float(floor)
        self._base = float(base_queue)
        self._white_std = float(white_std)
        self._high = float(telegraph_high)
        self._p_low_to_high = 1.0 / float(telegraph_dwell_low)
        self._p_high_to_low = 1.0 / float(telegraph_dwell_high)
        self._in_high = False
        self._slow_phi = math.exp(-1.0 / float(slow_tau))
        self._slow_noise = float(slow_std) * math.sqrt(1.0 - self._slow_phi**2)
        self._slow = 0.0
        # A tier that can never fire draws nothing, as in SpikeOverlay.
        self._tiers = [
            _SpikeRun(tier) for tier in spike_tiers if tier.probability > 0.0
        ]

    @property
    def floor(self) -> float:
        """The propagation floor, in seconds."""
        return self._floor

    def mean_queueing(self) -> float:
        """Expected queueing above the floor (ignoring clamping/spikes)."""
        switches = self._p_low_to_high + self._p_high_to_low
        duty_cycle = self._p_low_to_high / switches if switches else 0.0
        return self._base + self._high * duty_cycle

    def sample(self, now: float) -> float:
        # rng.normal(0.0, s) is s * standard_normal() and rng.uniform(a, b)
        # is a + (b - a) * random(), bit for bit.
        draw = self._draw
        white = self._white_std * self._normal() if self._white_std else 0.0
        slow = self._slow_phi * self._slow
        if self._slow_noise:
            slow += self._slow_noise * self._normal()
        self._slow = slow
        if self._in_high:
            if draw() < self._p_high_to_low:
                self._in_high = False
        elif draw() < self._p_low_to_high:
            self._in_high = True
        queue = self._base + white + (self._high if self._in_high else 0.0) + slow
        delay = self._floor + (queue if queue > 0.0 else 0.0)
        for tier in self._tiers:
            if tier.remaining > 0:
                tier.remaining -= 1
            elif draw() < tier.probability:
                tier.spike = tier.minimum + tier.span * draw()
                tier.remaining = tier.rest
            else:
                continue
            delay += tier.spike
            tier.spike *= tier.decay
        return delay

    def sample_many(self, times: "np.ndarray") -> "np.ndarray":
        # sample()'s body, step for step, over locals; the two must stay
        # in lockstep (tests/test_delay_models.py compares them).
        draw, normal = self._draw, self._normal
        floor, base, high = self._floor, self._base, self._high
        white_std = self._white_std
        slow_phi, slow_noise = self._slow_phi, self._slow_noise
        p_low_to_high, p_high_to_low = self._p_low_to_high, self._p_high_to_low
        in_high, slow = self._in_high, self._slow
        tiers = self._tiers
        delays = []
        append = delays.append
        for _ in range(len(times)):
            white = white_std * normal() if white_std else 0.0
            slow = slow_phi * slow
            if slow_noise:
                slow += slow_noise * normal()
            if in_high:
                if draw() < p_high_to_low:
                    in_high = False
            elif draw() < p_low_to_high:
                in_high = True
            queue = base + white + (high if in_high else 0.0) + slow
            delay = floor + (queue if queue > 0.0 else 0.0)
            for tier in tiers:
                if tier.remaining > 0:
                    tier.remaining -= 1
                elif draw() < tier.probability:
                    tier.spike = tier.minimum + tier.span * draw()
                    tier.remaining = tier.rest
                else:
                    continue
                delay += tier.spike
                tier.spike *= tier.decay
            append(delay)
        self._in_high, self._slow = in_high, slow
        return np.array(delays, dtype=float)

    def reset(self) -> None:
        self._in_high = False
        self._slow = 0.0
        for tier in self._tiers:
            tier.spike, tier.remaining = 0.0, 0


class SpikeOverlay(DelayModel):
    """Adds rare delay spikes on top of a base model.

    With probability ``spike_probability`` per datagram, a spike drawn
    uniformly from ``[spike_min, spike_max]`` is added.  Spikes can also
    persist: ``spike_run`` consecutive datagrams share a decaying fraction
    of the spike, which mimics a transient congestion episode rather than a
    single outlier packet.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        base: DelayModel,
        spike_probability: float,
        spike_min: float,
        spike_max: float,
        *,
        spike_run: int = 1,
        decay: float = 0.5,
    ) -> None:
        SpikeTier(spike_probability, spike_min, spike_max, spike_run, decay)  # validates
        self._rng = rng
        self._base = base
        self._p = float(spike_probability)
        self._min = float(spike_min)
        self._max = float(spike_max)
        self._run = int(spike_run)
        self._decay = float(decay)
        self._current_spike = 0.0
        self._remaining = 0

    def sample(self, now: float) -> float:
        delay = self._base.sample(now)
        if self._remaining > 0:
            delay += self._current_spike
            self._current_spike *= self._decay
            self._remaining -= 1
        elif self._p > 0.0 and self._rng.random() < self._p:
            self._current_spike = float(self._rng.uniform(self._min, self._max))
            delay += self._current_spike
            self._current_spike *= self._decay
            self._remaining = self._run - 1
        return delay

    def reset(self) -> None:
        self._base.reset()
        self._current_spike = 0.0
        self._remaining = 0


__all__ = [
    "ConstantDelay",
    "DelayModel",
    "LognormalDelay",
    "MultiScaleWanDelay",
    "ShiftedGammaDelay",
    "SpikeOverlay",
    "SpikeTier",
]
