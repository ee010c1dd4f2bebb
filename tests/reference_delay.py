"""Delay models only tests build: the flat sampler's composed reference
and a trace-replaying link.

:class:`~repro.net.delay.MultiScaleWanDelay` draws its congestion epochs
inline; :class:`TelegraphDelay` is those epochs as a model of their own,
and :class:`CompositeDelay` sums models, so that
``tests/test_delay_models.py`` can build the multi-scale process from
parts and hold the flat sampler to it sample for sample and generator
state for generator state.  :class:`TraceDelay` feeds a fixed delay
sequence to a simulated link, the input of the replay ≡ simulator and
detector tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.delay import DelayModel


class TelegraphDelay(DelayModel):
    """A two-state Markov (random telegraph) congestion level.

    The path alternates between a LOW state (contribution 0) and a HIGH
    state (contribution ``high``), with geometric dwell times of the given
    means (in samples): the congestion *epochs* of
    :class:`~repro.net.delay.MultiScaleWanDelay`.
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


class CompositeDelay(DelayModel):
    """Sum of several delay components, sampled in order."""

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
    (``wrap=True``, default) or raises ``IndexError``.
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


__all__ = ["CompositeDelay", "TelegraphDelay", "TraceDelay"]
