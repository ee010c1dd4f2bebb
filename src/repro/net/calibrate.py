"""Calibrating a network profile from a measured delay trace.

The Italy–Japan profile in :mod:`repro.net.wan` was hand-calibrated to
the paper's Table 4.  A downstream user reproducing the experiments on
*their* path needs the same step automated: feed a measured one-way delay
trace (e.g. from ``owping`` or a heartbeat prototype), get back a
:class:`~repro.net.wan.WanProfile` whose synthetic delays match the
trace's floor, dispersion, regime structure and tail.

The estimator decomposes the trace in the same order the generator
composes it:

1. **floor** — the minimum delay (propagation);
2. **spikes** — exceedances above the 99.5th percentile: their frequency
   and amplitude range parameterise the rare-spike overlay;
3. **slow drift** — the standard deviation of long-block means estimates
   the hourly component;
4. **congestion epochs** — a 2-means split of the de-spiked queueing
   separates the LOW/HIGH regimes, giving the telegraph amplitude and
   the two dwell times from run lengths;
5. **white jitter** — the within-LOW-cluster standard deviation.

The result is a first-order fit: good enough that a trace synthesised
from the calibrated profile matches the original's summary statistics
(asserted by the round-trip tests), not a maximum-likelihood estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.net.delay import DelayModel, MultiScaleWanDelay, SpikeTier
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.traces import DelayTrace
from repro.net.wan import WanProfile


@dataclass(frozen=True)
class CalibrationResult:
    """The estimated generator parameters, in seconds (rates unitless)."""

    floor: float
    base_queue: float
    white_std: float
    telegraph_high: float
    telegraph_dwell_low: float
    telegraph_dwell_high: float
    slow_std: float
    slow_tau: float
    spike_probability: float
    spike_min: float
    spike_max: float

    def build_profile(
        self,
        name: str = "calibrated",
        *,
        loss_probability: float = 0.005,
    ) -> WanProfile:
        """Package the parameters as a reusable :class:`WanProfile`."""

        def delay_factory(rng: np.random.Generator) -> DelayModel:
            return MultiScaleWanDelay(
                rng,
                floor=self.floor,
                base_queue=self.base_queue,
                white_std=self.white_std,
                telegraph_high=self.telegraph_high,
                telegraph_dwell_low=self.telegraph_dwell_low,
                telegraph_dwell_high=self.telegraph_dwell_high,
                slow_std=self.slow_std,
                slow_tau=self.slow_tau,
                spike_tiers=[
                    SpikeTier(
                        self.spike_probability,
                        self.spike_min,
                        self.spike_max,
                        run=3,
                    )
                ],
            )

        def loss_factory(rng: np.random.Generator) -> LossModel:
            return BernoulliLoss(rng, loss_probability)

        return WanProfile(
            name=name,
            description="profile calibrated from a measured delay trace",
            delay_factory=delay_factory,
            loss_factory=loss_factory,
            nominal={
                "mean_ms": (self.floor + self.base_queue) * 1e3,
                "min_ms": self.floor * 1e3,
                "loss_probability": loss_probability,
            },
        )


def _two_means_split(values: np.ndarray, iterations: int = 20) -> Tuple[float, np.ndarray]:
    """1-D 2-means (Lloyd): returns (threshold, high-cluster mask)."""
    low_centre = float(np.percentile(values, 25))
    high_centre = float(np.percentile(values, 90))
    mask = values > (low_centre + high_centre) / 2.0
    for _ in range(iterations):
        if mask.all() or not mask.any():
            break
        new_low = float(values[~mask].mean())
        new_high = float(values[mask].mean())
        if (new_low, new_high) == (low_centre, high_centre):
            break
        low_centre, high_centre = new_low, new_high
        mask = values > (low_centre + high_centre) / 2.0
    threshold = (low_centre + high_centre) / 2.0
    return threshold, mask


def _mean_run_length(mask: np.ndarray, state: bool) -> float:
    """Mean length of consecutive runs of ``state`` in a boolean array."""
    runs = []
    count = 0
    for value in mask:
        if bool(value) == state:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return float(np.mean(runs)) if runs else 1.0


def calibrate(
    trace: Sequence[float],
    *,
    spike_quantile: float = 99.5,
    slow_block: int = 500,
    slow_tau: float = 3000.0,
) -> CalibrationResult:
    """Estimate :class:`MultiScaleWanDelay` parameters from a trace."""
    if isinstance(trace, DelayTrace):
        values = np.asarray(trace.delays, dtype=float)
    else:
        values = np.asarray(trace, dtype=float)
    if values.size < 1000:
        raise ValueError(
            f"calibration needs at least 1000 samples, got {values.size}"
        )
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("trace delays must be finite and >= 0")

    floor = float(values.min())
    queue = values - floor

    # --- spikes -------------------------------------------------------
    spike_threshold = float(np.percentile(queue, spike_quantile))
    spike_mask = queue > spike_threshold
    spike_rate = float(spike_mask.mean())
    if spike_mask.any() and spike_rate > 0:
        exceedances = queue[spike_mask]
        spike_min = float(exceedances.min())
        spike_max = float(exceedances.max())
        # An isolated spike sample may be part of a decaying run; the
        # generator's run/decay defaults absorb that, so the per-sample
        # rate is divided by the default effective run weight (~1.75).
        spike_probability = spike_rate / 1.75
    else:
        spike_probability = 0.0
        spike_min = spike_max = 0.0
    core = queue[~spike_mask]

    # --- slow drift ----------------------------------------------------
    block_count = core.size // slow_block
    if block_count >= 4:
        blocks = core[: block_count * slow_block].reshape(block_count, slow_block)
        slow_std = float(blocks.mean(axis=1).std(ddof=1))
    else:
        slow_std = 0.0

    # --- congestion epochs (telegraph) ----------------------------------
    threshold, high_mask = _two_means_split(core)
    if high_mask.any() and not high_mask.all():
        low_values = core[~high_mask]
        high_values = core[high_mask]
        telegraph_high = float(high_values.mean() - low_values.mean())
        dwell_low = _mean_run_length(high_mask, False)
        dwell_high = _mean_run_length(high_mask, True)
        base_queue = float(low_values.mean())
        white_std = float(low_values.std(ddof=1))
    else:
        telegraph_high = 0.0
        dwell_low = dwell_high = 10.0
        base_queue = float(core.mean())
        white_std = float(core.std(ddof=1))

    # The white estimate includes the slow component; remove it in
    # quadrature (clamped).
    white_var = max(1e-12, white_std**2 - slow_std**2)

    return CalibrationResult(
        floor=floor,
        base_queue=base_queue,
        white_std=float(np.sqrt(white_var)),
        telegraph_high=telegraph_high,
        telegraph_dwell_low=max(1.0, dwell_low),
        telegraph_dwell_high=max(1.0, dwell_high),
        slow_std=slow_std,
        slow_tau=float(slow_tau),
        spike_probability=spike_probability,
        spike_min=spike_min,
        spike_max=max(spike_max, spike_min),
    )


__all__ = ["CalibrationResult", "calibrate"]
