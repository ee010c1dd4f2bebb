"""One-way delay models for simulated links.

A delay model answers one question: *how long will the datagram sent now
take to arrive?*  Models are sampled once per datagram, in send order, so
stateful models (autocorrelated queues, diurnal congestion) see a coherent
timeline.

All delays are in **seconds**.  Models take their randomness from an
injected :class:`numpy.random.Generator`, never from a global source, which
keeps simulations reproducible (see :mod:`repro.sim.random`).

The models compose:

* :class:`ShiftedGammaDelay` — the classic Internet one-way delay shape:
  a fixed propagation floor plus gamma-distributed queueing.
* :class:`ArCorrelatedDelay` — an AR(1) queueing component, giving the
  short-range autocorrelation real paths exhibit (and that adaptive
  predictors such as LAST and LPF exploit).
* :class:`SpikeOverlay` — rare large excursions (route flaps, congestion
  bursts) that produce the heavy right tail (the paper's path shows a
  340 ms maximum against a 192 ms minimum).
* :class:`DiurnalModulation` — slow time-of-day congestion swing.
* :class:`CompositeDelay` — sums components over a common floor.
* :class:`TraceDelay` — replays a recorded trace verbatim.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DelayModel(abc.ABC):
    """Abstract one-way delay process."""

    @abc.abstractmethod
    def sample(self, now: float) -> float:
        """Draw the delay (seconds) of a datagram sent at time ``now``."""

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


class ArCorrelatedDelay(DelayModel):
    """A delay process with AR(1) autocorrelated queueing.

    The queueing component follows

        q_t = max(0, phi * q_{t-1} + e_t),    e_t ~ Normal(bias, noise_std)

    and the delivered delay is ``minimum + q_t``.  ``phi`` close to 1 gives
    long congestion episodes; ``phi = 0`` degenerates to i.i.d. truncated
    normal queueing.  The positive-part clamp keeps delays physical while
    preserving the autocorrelation structure above the floor.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        minimum: float,
        phi: float,
        noise_std: float,
        *,
        bias: float = 0.0,
        initial_queue: float = 0.0,
    ) -> None:
        if minimum < 0:
            raise ValueError(f"minimum must be >= 0, got {minimum!r}")
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"phi must be in [0, 1), got {phi!r}")
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std!r}")
        self._rng = rng
        self._minimum = float(minimum)
        self._phi = float(phi)
        self._noise_std = float(noise_std)
        self._bias = float(bias)
        self._initial_queue = float(initial_queue)
        self._queue = self._initial_queue

    def sample(self, now: float) -> float:
        noise = float(self._rng.normal(self._bias, self._noise_std))
        self._queue = max(0.0, self._phi * self._queue + noise)
        return self._minimum + self._queue

    def reset(self) -> None:
        self._queue = self._initial_queue


class TelegraphDelay(DelayModel):
    """A two-state Markov (random telegraph) congestion level.

    The path alternates between a LOW state (contribution 0) and a HIGH
    state (contribution ``high``), with geometric dwell times of the given
    means (in samples).  This models congestion *epochs* — bursts of
    cross-traffic lasting tens of heartbeats — which give real WAN delay
    series their regime-switching character.  Epochs are what separates
    windowed predictors (which re-converge within an epoch) from the
    global MEAN (which averages across epochs and is systematically wrong
    inside each one).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        high: float,
        dwell_low: float,
        dwell_high: float,
    ) -> None:
        if high < 0:
            raise ValueError(f"high must be >= 0, got {high!r}")
        if dwell_low < 1 or dwell_high < 1:
            raise ValueError(
                f"dwell times must be >= 1 sample, got {dwell_low!r}, {dwell_high!r}"
            )
        self._rng = rng
        self._high = float(high)
        self._p_low_to_high = 1.0 / float(dwell_low)
        self._p_high_to_low = 1.0 / float(dwell_high)
        self._in_high = False

    @property
    def in_high_state(self) -> bool:
        """Whether the path is currently in the congested state."""
        return self._in_high

    def duty_cycle(self) -> float:
        """Long-run fraction of time spent in the HIGH state."""
        denominator = self._p_low_to_high + self._p_high_to_low
        return self._p_low_to_high / denominator if denominator else 0.0

    def sample(self, now: float) -> float:
        if self._in_high:
            if self._rng.random() < self._p_high_to_low:
                self._in_high = False
        else:
            if self._rng.random() < self._p_low_to_high:
                self._in_high = True
        return self._high if self._in_high else 0.0

    def reset(self) -> None:
        self._in_high = False


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
    * ``telegraph`` — congestion epochs (:class:`TelegraphDelay`);
    * ``slow`` — an AR(1) level wandering over ~an hour (time-of-day
      drift);
    * ``spikes`` — rare multi-packet delay excursions, one process per
      entry of ``spike_tiers`` (:class:`SpikeOverlay` semantics: uniform
      amplitude, short decaying run).

    The mixture is what lets the reproduction exhibit the paper's
    predictor phenomenology: jitter penalises LAST, epochs penalise MEAN,
    spikes stress every safety margin, and the floor anchors the Table 4
    minimum.

    :meth:`sample` is one flat method — every simulated datagram and every
    replayed heartbeat pays it — that draws white, slow, telegraph and
    then each tier in turn from the one generator: the draws, in the order,
    of ``CompositeDelay([core with the first tier, SpikeOverlay(rng,
    ConstantDelay(0.0), second tier), ...])`` built from the public
    classes, which ``tests/test_delay_models.py`` holds it to sample for
    sample and generator state for generator state.
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
        # Validates the epoch parameters; its state is inlined below.
        telegraph = TelegraphDelay(
            rng, telegraph_high, telegraph_dwell_low, telegraph_dwell_high
        )
        self._draw = rng.random
        self._normal = rng.standard_normal
        self._floor = float(floor)
        self._base = float(base_queue)
        self._white_std = float(white_std)
        self._high = float(telegraph_high)
        self._duty_cycle = telegraph.duty_cycle()
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
        return self._base + self._high * self._duty_cycle

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


class DiurnalModulation(DelayModel):
    """Slow sinusoidal congestion swing over a base model.

    The queueing part of the base delay (everything above ``floor``) is
    scaled by ``1 + amplitude * sin(2*pi*now/period + phase)``.  With a
    24-hour period this reproduces the work-day/weekend variability the
    paper attributes to WANs.
    """

    def __init__(
        self,
        base: DelayModel,
        floor: float,
        amplitude: float,
        period: float,
        *,
        phase: float = 0.0,
    ) -> None:
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude!r}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period!r}")
        self._base = base
        self._floor = float(floor)
        self._amplitude = float(amplitude)
        self._period = float(period)
        self._phase = float(phase)

    def sample(self, now: float) -> float:
        raw = self._base.sample(now)
        queueing = max(0.0, raw - self._floor)
        factor = 1.0 + self._amplitude * math.sin(
            2.0 * math.pi * now / self._period + self._phase
        )
        return self._floor + queueing * factor

    def reset(self) -> None:
        self._base.reset()


class CompositeDelay(DelayModel):
    """Sum of several delay components above a common floor.

    The first component is taken whole; every further component contributes
    only its value (assumed to be a pure queueing term).  Useful to combine
    e.g. an AR(1) congestion term with an i.i.d. jitter term.
    """

    def __init__(self, components: Sequence[DelayModel]) -> None:
        if not components:
            raise ValueError("CompositeDelay needs at least one component")
        self._components = list(components)

    def sample(self, now: float) -> float:
        return sum(component.sample(now) for component in self._components)

    def reset(self) -> None:
        for component in self._components:
            component.reset()


class TraceDelay(DelayModel):
    """Replays a recorded delay trace, one sample per datagram.

    When the trace is exhausted the model either wraps around
    (``wrap=True``, default) or raises ``IndexError``.  Replay supports the
    paper's methodology of feeding identical network conditions to every
    detector (see also the MultiPlexer layer, which achieves the same for a
    single run).
    """

    def __init__(self, delays: Sequence[float], *, wrap: bool = True) -> None:
        if len(delays) == 0:
            raise ValueError("trace must contain at least one delay")
        arr = np.asarray(delays, dtype=float)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("trace delays must be finite and >= 0")
        self._delays = arr
        self._wrap = bool(wrap)
        self._index = 0

    def __len__(self) -> int:
        return int(self._delays.shape[0])

    def sample(self, now: float) -> float:
        if self._index >= len(self):
            if not self._wrap:
                raise IndexError("delay trace exhausted")
            self._index = 0
        value = float(self._delays[self._index])
        self._index += 1
        return value

    def reset(self) -> None:
        self._index = 0


__all__ = [
    "ArCorrelatedDelay",
    "CompositeDelay",
    "ConstantDelay",
    "DelayModel",
    "DiurnalModulation",
    "LognormalDelay",
    "MultiScaleWanDelay",
    "ShiftedGammaDelay",
    "SpikeOverlay",
    "SpikeTier",
    "TelegraphDelay",
    "TraceDelay",
]
