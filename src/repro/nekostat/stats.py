"""Sample statistics used throughout the evaluation.

Provides a frozen :class:`SummaryStats` container with Student-t
confidence intervals (the paper reports ≥ 30 ``T_D`` samples per run
precisely to get "acceptable statistical validity"), an online
:class:`Welford` accumulator for long runs, and the ``msqerr`` metric of
the predictor-accuracy experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

try:  # scipy is available in the reference environment but optional
    # The two inverse CDFs only: ``scipy.stats`` costs a further ~0.6 s of
    # import and ~46 MiB for results identical bit for bit.
    from scipy.special import ndtri as _ndtri, stdtrit as _stdtrit
except ImportError:  # pragma: no cover - exercised only without scipy
    _ndtri = _stdtrit = None


def normal_quantile(p: float) -> float:
    """The standard normal quantile ``Phi^{-1}(p)``.

    Uses scipy when present, otherwise Acklam's rational approximation
    (absolute error below 1.15e-9 — ample for margin computation).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if _ndtri is not None:
        return float(_ndtri(p))
    # Acklam-style rational approximation of the normal quantile.
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    return z


@lru_cache(maxsize=4096)
def _t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value.

    Uses scipy when present; otherwise falls back to the normal quantile,
    which is accurate for the sample sizes the experiments produce.
    Memoised: a pure function of two scalars, asked again on every scrape
    and window read.
    """
    if _stdtrit is not None:
        return float(_stdtrit(dof, 0.5 + confidence / 2.0))
    return normal_quantile(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample: count, mean, dispersion, extrema, CI."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_half_width: float
    confidence: float

    @property
    def ci_low(self) -> float:
        """Lower bound of the confidence interval on the mean."""
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        """Upper bound of the confidence interval on the mean."""
        return self.mean + self.ci_half_width

    def scaled(self, factor: float) -> "SummaryStats":
        """Return the summary with every statistic multiplied by ``factor``
        (e.g. 1e3 to convert seconds to milliseconds)."""
        return SummaryStats(
            count=self.count,
            mean=self.mean * factor,
            std=self.std * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            ci_half_width=self.ci_half_width * factor,
            confidence=self.confidence,
        )


#: numpy sums float64 in blocks of up to this many values (``pairwise_sum``
#: in its ufunc loops): fewer than 8 left to right from 0.0, otherwise eight
#: running sums combined pairwise, then the remainder.  Samples no longer
#: than one block are summarised in plain Python in exactly that order.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(xs: List[float]) -> float:
    """numpy's float64 ``add.reduce`` of 8 <= ``len(xs)`` <= 128 values,
    bit for bit."""
    whole = len(xs) - len(xs) % 8
    r = xs[:8]
    for i in range(8, whole, 8):
        r[0] += xs[i]
        r[1] += xs[i + 1]
        r[2] += xs[i + 2]
        r[3] += xs[i + 3]
        r[4] += xs[i + 4]
        r[5] += xs[i + 5]
        r[6] += xs[i + 6]
        r[7] += xs[i + 7]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[whole:]:
        total += x
    # The reduction starts from the identity: this turns -0.0 into 0.0.
    return 0.0 + total


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Summarise a non-empty sample with a Student-t CI on the mean.

    A list or tuple of at most :data:`_PAIRWISE_BLOCK` values is summed in
    plain Python in numpy's own order, so every field is bit for bit what
    the numpy body below returns, at a fraction of its cost on the short
    samples a QoS read summarises.  The builtin ``sum`` is not used: from
    Python 3.12 it compensates, which numpy does not.
    """
    sample = None
    if isinstance(values, (list, tuple)) and 0 < len(values) <= _PAIRWISE_BLOCK:
        try:
            sample = list(map(float, values))
        except (TypeError, ValueError, OverflowError):
            # numpy converts some of what float() refuses (None is NaN to
            # it) and words its own errors: it answers for such samples.
            sample = None
    if sample is None:
        return _summarize_array(np.asarray(values, dtype=float), confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    n = len(sample)
    if n < 8:
        total = 0.0
        for x in sample:
            total += x
    else:
        total = _pairwise_sum(sample)
    mean = total / n
    if mean != mean:
        # NaN: numpy's min and max propagate it, Python's do not.
        return _summarize_array(np.asarray(sample), confidence)
    if n > 1:
        if n < 8:
            squares = 0.0
            for x in sample:
                deviation = x - mean
                squares += deviation * deviation
        else:
            squares = _pairwise_sum([(x - mean) * (x - mean) for x in sample])
        std = math.sqrt(squares / (n - 1))
        half = _t_critical(confidence, n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        half = float("inf")
    minimum = min(sample)
    maximum = max(sample)
    if minimum == 0.0 or maximum == 0.0:
        # Which of 0.0 and -0.0 an extreme is, numpy decides its own way.
        arr = np.asarray(sample)
        minimum = float(np.min(arr))
        maximum = float(np.max(arr))
    return SummaryStats(
        count=n,
        mean=mean,
        std=std,
        minimum=minimum,
        maximum=maximum,
        ci_half_width=half,
        confidence=confidence,
    )


def _summarize_array(arr: np.ndarray, confidence: float) -> SummaryStats:
    """:func:`summarize` through numpy: long samples, any other input."""
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    mean = float(np.mean(arr))
    if arr.size > 1:
        std = float(np.std(arr, ddof=1))
        half = _t_critical(confidence, arr.size - 1) * std / math.sqrt(arr.size)
    else:
        std = 0.0
        half = float("inf")
    return SummaryStats(
        count=int(arr.size),
        mean=mean,
        std=std,
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
        ci_half_width=half,
        confidence=confidence,
    )


class Welford:
    """Online mean/variance accumulator (Welford's algorithm).

    Numerically stable over the 100 000-sample runs of the experiments;
    avoids keeping every sample in memory when only the summary is needed.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Accumulate one sample."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Number of samples accumulated."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen; raises when empty."""
        if not self._count:
            raise ValueError("no samples accumulated")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen; raises when empty."""
        if not self._count:
            raise ValueError("no samples accumulated")
        return self._max

    def summary(self, confidence: float = 0.95) -> SummaryStats:
        """Freeze the accumulated statistics into a :class:`SummaryStats`."""
        if not self._count:
            raise ValueError("no samples accumulated")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
        if self._count > 1:
            half = _t_critical(confidence, self._count - 1) * self.std / math.sqrt(self._count)
        else:
            half = float("inf")
        return SummaryStats(
            count=self._count,
            mean=self.mean,
            std=self.std,
            minimum=self._min,
            maximum=self._max,
            ci_half_width=half,
            confidence=confidence,
        )


def mean_squared_error(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """``msqerr``: the accuracy metric of the paper's Section 5.1.

    The mean of squared differences between observed delays and the
    predictions that were in force when each was observed.
    """
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValueError(
            f"observed and predicted lengths differ: {obs.shape} vs {pred.shape}"
        )
    if obs.size == 0:
        raise ValueError("msqerr of an empty sample is undefined")
    diff = obs - pred
    return float(np.mean(diff * diff))


__all__ = ["SummaryStats", "Welford", "mean_squared_error", "normal_quantile", "summarize"]
