#!/usr/bin/env python3
"""Calibration sweep for the WAN delay model (see docs/calibration.md).

Evaluates, over a grid of `MultiScaleWanDelay`-style parameterisations,
the two quantities that constrain the calibration:

* the one-step ``msqerr`` of each predictor (Table 3 ordering), and
* the Jacobson mean absolute deviation (``mdev``) of each predictor,
  which drives the JAC-side detection-time ordering of Figure 4.

Usage::

    python scripts/calibration_sweep.py [n_samples]

Prints one line per configuration with both orderings, marking the ones
that satisfy the reproduction targets (ARIMA best msqerr, MEAN worst
mdev, windowed estimators above MEAN in msqerr).
"""

from __future__ import annotations

import sys
from itertools import product

import numpy as np

from repro.fd.combinations import make_predictor
from repro.net.delay import MultiScaleWanDelay, SpikeTier
from repro.timeseries.base import evaluate_forecaster

PREDICTORS = ("Arima", "Last", "LPF", "Mean", "WinMean")


def synthesize(n, seed, white_var_ms2, epoch_ms, dwell_low, dwell_high,
               spike_rate, spike_lo_ms, spike_hi_ms):
    rng = np.random.default_rng(seed)
    model = MultiScaleWanDelay(
        rng,
        floor=0.192,
        base_queue=0.006,
        white_std=float(np.sqrt(white_var_ms2 * 1e-6)),
        telegraph_high=epoch_ms * 1e-3,
        telegraph_dwell_low=dwell_low,
        telegraph_dwell_high=dwell_high,
        slow_std=0.0015,
        slow_tau=3000.0,
        spike_tiers=[
            SpikeTier(spike_rate, spike_lo_ms * 1e-3, spike_hi_ms * 1e-3, run=2)
        ],
    )
    return np.array([model.sample(float(i)) for i in range(n)])


def jacobson_mdev(series, predictor, alpha=0.25, burn_fraction=0.2):
    """Time-averaged Jacobson deviation of a predictor on a series."""
    mdev = 0.0
    seeded = False
    accumulated = 0.0
    counted = 0
    burn = int(len(series) * burn_fraction)
    for index, value in enumerate(series):
        if index > 0:
            error = abs(value - predictor.predict())
            if not seeded:
                mdev, seeded = error, True
            else:
                mdev += alpha * (error - mdev)
            if index > burn:
                accumulated += mdev
                counted += 1
        predictor.observe(value)
    return accumulated / max(1, counted)


def evaluate(series):
    msq = {}
    mdev = {}
    for name in PREDICTORS:
        msqerr, _ = evaluate_forecaster(make_predictor(name), series, warmup=1)
        msq[name] = msqerr * 1e6
        mdev[name] = jacobson_mdev(series, make_predictor(name)) * 1e3
    return msq, mdev


def satisfies_targets(msq, mdev):
    msq_rank = sorted(msq, key=msq.get)
    mdev_rank = sorted(mdev, key=mdev.get)
    return (
        msq_rank[0] == "Arima"              # Table 3 headline
        and msq["WinMean"] < msq["Mean"]    # windowed beats global mean
        and mdev_rank[-1] == "Mean"         # Fig. 4 JAC side: MEAN slowest
    )


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    grid = product(
        (8, 20, 40),            # white variance (ms^2)
        (8, 11, 14),            # epoch amplitude (ms)
        ((35, 11), (21, 9)),    # dwell (low, high)
        ((3e-3, 30, 80), (1e-3, 40, 100), (0.0, 0, 0)),  # spikes
    )
    print(f"{'white':>6}{'epoch':>6}{'dwell':>9}{'spikes':>16}   "
          f"msqerr ranking / mdev worst")
    for white, epoch, (dl, dh), (rate, lo, hi) in grid:
        series = synthesize(n, 3, white, epoch, dl, dh, rate, lo, hi)
        msq, mdev = evaluate(series)
        msq_rank = ">".join(sorted(msq, key=msq.get))
        mdev_worst = max(mdev, key=mdev.get)
        marker = "  <== target" if satisfies_targets(msq, mdev) else ""
        print(f"{white:>6}{epoch:>6}{f'{dl}/{dh}':>9}"
              f"{f'{rate:g}x{lo}-{hi}ms':>16}   "
              f"{msq_rank}  mdev:{mdev_worst}{marker}")


if __name__ == "__main__":
    main()
