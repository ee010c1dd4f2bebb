"""Table 4: characterisation of the network path.

The paper characterises its Italy–Japan connection with the mean, standard
deviation, extrema of the one-way delay, the hop count, and the loss
probability.  :func:`characterize_profile` produces the same table for any
:class:`~repro.net.wan.WanProfile` by direct measurement of its models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.traces import DelayTrace, TraceSummary
from repro.net.wan import WanProfile, get_profile
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class PathCharacterization:
    """The measured Table 4 of a profile."""

    profile_name: str
    delay: TraceSummary
    loss_probability: float
    hops: int
    lag1_autocorrelation: float

    def delay_ms(self) -> TraceSummary:
        """The delay summary in milliseconds."""
        return self.delay.as_milliseconds()


def characterize_profile(
    profile: Optional[WanProfile] = None,
    *,
    samples: int = 100_000,
    eta: float = 1.0,
    seed: int = 0,
) -> PathCharacterization:
    """Measure a profile's delay and loss behaviour.

    Delay statistics come from ``samples`` successive sends; the loss
    probability is the observed drop fraction over the same count of
    sends on an independent stream.
    """
    if profile is None:
        profile = get_profile("italy-japan")
    if samples <= 1:
        raise ValueError(f"samples must be > 1, got {samples}")
    streams = RandomStreams(seed)
    delay_model = profile.build_delay_model(streams, "characterize")
    loss_model = profile.build_loss_model(streams, "characterize")

    sends = np.arange(samples) * eta
    trace = DelayTrace(delay_model.sample_many(sends))
    drops = int(np.count_nonzero(loss_model.drops_many(sends)))
    acf1 = float(trace.autocorrelation(max_lag=1)[1])

    return PathCharacterization(
        profile_name=profile.name,
        delay=trace.summary(),
        loss_probability=drops / samples,
        hops=int(profile.nominal.get("hops", 0)),
        lag1_autocorrelation=acf1,
    )


__all__ = ["PathCharacterization", "characterize_profile"]
