"""The safety margins of the paper's Section 3.2.

The safety margin ``sm`` is added to the predictor's forecast to limit
premature time-outs: ``delta_i = pred_i + sm_i``.  Two adaptive families
are compared, each at three parameter levels (Table 1):

* ``SM_CI(gamma)`` — a confidence-interval style margin that depends only
  on the *network* behaviour, never on the predictor::

      sm_{k+1} = gamma * sigma_hat * sqrt(1 + 1/n
                 + (obs_n − mean)^2 / sum_j (obs_j − mean)^2)

  with ``sigma_hat`` the sample standard deviation of the observed delays
  (the square root term is the classic regression prediction-interval
  inflation).  ``gamma`` in {1, 2, 3.31} (the paper's low/med/high;
  3.31 is the two-sided 99.9% normal quantile).

* ``SM_JAC(phi)`` — Jacobson's TCP retransmission-time-out deviation
  estimator, driven by the *predictor's error*::

      mdev_{k+1} = mdev_k + alpha * (|obs_n − pred_k| − mdev_k)
      sm_{k+1}   = phi * mdev_{k+1}

  with ``alpha = 1/4`` (as advised by Jacobson, SIGCOMM'88) and ``phi`` in
  {1, 2, 4} (``phi = 4`` is Jacobson's classic ``4 * mdev``).  Note the
  multiplier ``phi`` scales the margin at *use* time; it does not feed
  back into the deviation recursion (which would diverge for ``phi > 1 /
  (1 − alpha)``).

The structural difference the paper leans on: SM_CI is independent of the
predictor, SM_JAC tracks the predictor's own errors — so a very accurate
predictor (ARIMA) makes SM_JAC razor-thin and mistake-prone, while a crude
predictor (LAST) gets a generous, self-correcting margin.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

from repro.nekostat.stats import Welford

#: The adaptive margins' default ``initial_margin``: the margin in force
#: until their state can produce one.
INITIAL_MARGIN = 0.1


class SafetyMargin(abc.ABC):
    """Base class for safety margins.

    ``update(observation, prediction)`` feeds the delay just observed and
    the prediction that was *in force* for it; ``current()`` returns the
    margin to add to the next forecast.
    """

    #: Short name used in detector identifiers (e.g. ``"CI_low"``).
    name: str = "SafetyMargin"

    def __init__(self, initial_margin: float = 0.0) -> None:
        if initial_margin < 0:
            raise ValueError(f"initial_margin must be >= 0, got {initial_margin!r}")
        self._initial_margin = float(initial_margin)

    @property
    def initial_margin(self) -> float:
        """The margin in force until the state can produce one."""
        return self._initial_margin

    @abc.abstractmethod
    def update(self, observation: float, prediction: float) -> None:
        """Feed one (observed delay, prediction in force) pair."""

    @abc.abstractmethod
    def current(self) -> float:
        """The margin (seconds) to add to the next prediction."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state."""


class ConstantMargin(SafetyMargin):
    """A fixed margin (Chen et al.'s NFD-E uses one, derived from QoS
    requirements; here it is simply a parameter)."""

    name = "Const"

    def __init__(self, margin: float) -> None:
        super().__init__(margin)
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin!r}")
        self._margin = float(margin)

    def update(self, observation: float, prediction: float) -> None:
        pass  # constant by definition

    def current(self) -> float:
        return self._margin

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantMargin({self._margin!r})"


class ConfidenceIntervalMargin(SafetyMargin):
    """``SM_CI``: prediction-interval margin on the delay distribution.

    Depends only on the observed delays (their running mean and variance,
    kept with Welford's algorithm in O(1) per observation) — never on the
    predictor.  Until two observations are available the margin is the
    configured ``initial_margin``.
    """

    name = "CI"

    def __init__(
        self, gamma: float, *, initial_margin: float = INITIAL_MARGIN
    ) -> None:
        super().__init__(initial_margin)
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma!r}")
        self.gamma = float(gamma)
        self._accumulator = Welford()
        self._last_observation = 0.0

    def update(self, observation: float, prediction: float) -> None:
        if not math.isfinite(observation):
            raise ValueError(f"observation must be finite, got {observation!r}")
        self._accumulator.add(observation)
        self._last_observation = float(observation)

    def spread(self) -> Optional[Tuple[float, float]]:
        """The margin's scale-free state ``(sigma_hat, sqrt(inflation))``.

        ``None`` until two observations are available.  The margin for any
        ``gamma`` is ``gamma * sigma_hat * sqrt(inflation)``, multiplied
        left to right — one state therefore serves every ``SM_CI`` level
        of a detector bank.
        """
        n = self._accumulator.count
        if n < 2:
            return None
        variance_sum = self._accumulator.variance * (n - 1)  # sum of squared deviations
        sigma = self._accumulator.std
        if sigma == 0.0:
            return 0.0, 1.0
        deviation = self._last_observation - self._accumulator.mean
        inflation = 1.0 + 1.0 / n + (deviation * deviation) / variance_sum
        return sigma, math.sqrt(inflation)

    def current(self) -> float:
        spread = self.spread()
        if spread is None:
            return self._initial_margin
        sigma, inflation_root = spread
        return self.gamma * sigma * inflation_root

    def reset(self) -> None:
        self._accumulator = Welford()
        self._last_observation = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfidenceIntervalMargin(gamma={self.gamma!r})"


class JacobsonMargin(SafetyMargin):
    """``SM_JAC``: Jacobson-style mean-deviation margin on prediction error.

    ``mdev`` tracks the mean absolute prediction error with gain ``alpha``
    (= 1/4 per Jacobson); the margin is ``phi * mdev``.
    """

    name = "JAC"

    def __init__(
        self,
        phi: float,
        *,
        alpha: float = 0.25,
        initial_margin: float = INITIAL_MARGIN,
    ) -> None:
        super().__init__(initial_margin)
        if phi <= 0:
            raise ValueError(f"phi must be > 0, got {phi!r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.phi = float(phi)
        self.alpha = float(alpha)
        self._mdev = 0.0
        self._updates = 0

    @property
    def mean_deviation(self) -> float:
        """The current smoothed mean absolute prediction error."""
        return self._mdev

    @property
    def mdev(self) -> Optional[float]:
        """The margin's scale-free state: ``mean_deviation`` once an error
        has been observed, ``None`` before.  The margin for any ``phi`` is
        ``phi * mdev``."""
        return self._mdev if self._updates else None

    def update(self, observation: float, prediction: float) -> None:
        if not math.isfinite(observation) or not math.isfinite(prediction):
            raise ValueError("observation and prediction must be finite")
        error = abs(observation - prediction)
        if self._updates == 0:
            # Seed with the first error (Jacobson seeds mdev at RTT/2; the
            # first |error| plays that role here).
            self._mdev = error
        else:
            self._mdev += self.alpha * (error - self._mdev)
        self._updates += 1

    def current(self) -> float:
        mdev = self.mdev
        return self._initial_margin if mdev is None else self.phi * mdev

    def reset(self) -> None:
        self._mdev = 0.0
        self._updates = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JacobsonMargin(phi={self.phi!r}, alpha={self.alpha!r})"


__all__ = [
    "INITIAL_MARGIN",
    "ConfidenceIntervalMargin",
    "ConstantMargin",
    "JacobsonMargin",
    "SafetyMargin",
]
