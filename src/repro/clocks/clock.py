"""Local clock models.

A :class:`Clock` maps *global* (simulator) time to the *local* time a
process reads.  Timestamps placed in messages are local readings; the QoS
metrics of the paper (notably the detection time ``T_D``) compare events on
two different sites and therefore depend on how far the two local clocks
disagree.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from repro.sim.engine import Simulator


class Clock(abc.ABC):
    """Abstract local clock over a simulator's global time base."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    @property
    def sim(self) -> Simulator:
        """The simulator whose virtual time this clock observes."""
        return self._sim

    def now(self) -> float:
        """The current local reading, in seconds."""
        return self.local_from_global(self._sim.now)

    @abc.abstractmethod
    def local_from_global(self, t: float) -> float:
        """Map a global instant to this clock's local reading."""

    @abc.abstractmethod
    def global_from_local(self, local: float) -> float:
        """Map a local reading back to the global instant (inverse)."""

    @abc.abstractmethod
    def global_from_local_offsets(
        self, base: float, deltas: Sequence[float]
    ) -> List[float]:
        """``[global_from_local(base + d) for d in deltas]``, bit for bit,
        in one call: a detector bank maps its freshness points so."""


class PerfectClock(Clock):
    """A clock that reads global time exactly.

    This realises the paper's synchronised-clocks assumption
    (offset = 0, drift = 0).
    """

    def local_from_global(self, t: float) -> float:
        return t

    def global_from_local(self, local: float) -> float:
        return local

    def global_from_local_offsets(
        self, base: float, deltas: Sequence[float]
    ) -> List[float]:
        return [base + d for d in deltas]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PerfectClock()"


class DriftingClock(Clock):
    """A hardware clock with a constant offset and frequency drift.

    ``local(t) = (1 + drift) * t + offset``.  A drift of ``1e-5`` means the
    clock gains 10 microseconds per second (about 0.86 s/day) — a realistic
    magnitude for an undisciplined PC oscillator.
    """

    def __init__(self, sim: Simulator, offset: float = 0.0, drift: float = 0.0) -> None:
        super().__init__(sim)
        if drift <= -1.0:
            raise ValueError(f"drift must be > -1 (clock must move forward), got {drift!r}")
        self._offset = float(offset)
        self._drift = float(drift)

    @property
    def offset(self) -> float:
        """The constant offset from global time, in seconds."""
        return self._offset

    @property
    def drift(self) -> float:
        """The fractional frequency error (dimensionless)."""
        return self._drift

    def adjust(self, offset_correction: float) -> None:
        """Step the clock by ``offset_correction`` seconds.

        This is how an NTP synchroniser disciplines the clock; the drift is
        a physical property of the oscillator and is not changed.
        """
        self._offset += float(offset_correction)

    def local_from_global(self, t: float) -> float:
        return (1.0 + self._drift) * t + self._offset

    def global_from_local(self, local: float) -> float:
        return (local - self._offset) / (1.0 + self._drift)

    def global_from_local_offsets(
        self, base: float, deltas: Sequence[float]
    ) -> List[float]:
        # global_from_local's operands in its order; the offset is read
        # now, so a step by adjust() shows in the next batch.
        offset = self._offset
        rate = 1.0 + self._drift
        return [(base + d - offset) / rate for d in deltas]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DriftingClock(offset={self._offset!r}, drift={self._drift!r})"


__all__ = ["Clock", "DriftingClock", "PerfectClock"]
