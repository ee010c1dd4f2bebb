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
from typing import List, Sequence

import numpy as np


#: Acklam's rational approximation of the normal quantile (relative error
#: below 1.15e-9): numerator and denominator of the central region
#: ``|p - 1/2| <= 0.47575``, then of the tails, highest power first.
_CENTRAL_NUM = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_CENTRAL_DEN = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_TAIL_NUM = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_TAIL_DEN = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00, 1.0)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _horner(coefficients: Sequence[float], x: float) -> float:
    value = 0.0
    for coefficient in coefficients:
        value = value * x + coefficient
    return value


def normal_quantile(p: float) -> float:
    """The standard normal quantile ``Phi^{-1}(p)``.

    Acklam's rational approximation refined by one Halley step, whose
    residual ``Phi(z) - p`` is taken through ``math.erf`` around the median
    and ``math.erfc`` on the smaller tail, each against an exact
    ``p - 1/2``, ``p`` or ``1 - p``: within 2 ulps of the exact quantile
    (``tests/test_stats.py``'s 50-digit table).  Below ``p`` ~ 1e-300 the
    step would overflow and Acklam's value stands.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    d = p - 0.5  # exact for p >= 1/4
    if abs(d) <= 0.47575:
        r = d * d
        z = d * _horner(_CENTRAL_NUM, r) / _horner(_CENTRAL_DEN, r)
    else:
        q = math.sqrt(-2.0 * math.log(p if d < 0.0 else 1.0 - p))
        z = math.copysign(_horner(_TAIL_NUM, q) / _horner(_TAIL_DEN, q), d)
    if abs(d) < 0.25:
        residual = 0.5 * math.erf(z / _SQRT2) - d
    elif d < 0.0:
        residual = 0.5 * math.erfc(-z / _SQRT2) - p
    else:
        residual = (1.0 - p) - 0.5 * math.erfc(z / _SQRT2)
    if z * z > 1400.0:
        return z
    u = residual * _SQRT_2PI * math.exp(0.5 * z * z)
    return z - u / (1.0 + 0.5 * z * u)


#: The Cornish-Fisher expansion of the Student-t quantile in the normal
#: one, ``t = z + g1(z)/dof + ... + g7(z)/dof**7`` (A&S 26.7.5 to g5, g6 and
#: g7 solved from ``dt/dz = phi(z)/f_dof(t)`` order by order): per term the
#: divisor and the coefficients of ``g_k(z)/z`` in ``z**2``.
_CORNISH_FISHER = (
    (4.0, (1.0, 1.0)),
    (96.0, (5.0, 16.0, 3.0)),
    (384.0, (3.0, 19.0, 17.0, -15.0)),
    (92160.0, (79.0, 776.0, 1482.0, -1920.0, -945.0)),
    (368640.0, (27.0, 339.0, 930.0, -1782.0, -765.0, 17955.0)),
    (185794560.0, (1065.0, 15448.0, 48821.0, -82440.0, 616707.0, 6667920.0, 2463615.0)),
    (743178240.0, (339.0, 6891.0, 41107.0, 113891.0, 1086849.0, 5639193.0,
                   -18226215.0, -111486375.0)),
)

#: From this many degrees of freedom the series alone is within 2 ulps of
#: the exact quantile at confidences up to 0.9999; below, it only starts
#: the root search on the tail.
_SERIES_DOF = 200


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularised incomplete beta,
    ``I_x(a, b) = x**a (1-x)**b / (a B(a, b)) * _beta_fraction(a, b, x)``
    (modified Lentz); it converges fast for ``x < (a+1)/(a+b+2)``."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    delta = 0.0
    m = 0
    while abs(delta - 1.0) > 1e-16:
        m += 1
        numerator = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / (1.0 + numerator * d)
        c = 1.0 + numerator / c
        fraction *= d * c
        numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / (1.0 + numerator * d)
        c = 1.0 + numerator / c
        delta = d * c
        fraction *= delta
    return fraction


@lru_cache(maxsize=4096)
def _t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value: the quantile of ``t_dof`` at
    ``1/2 + confidence/2``.

    The Cornish-Fisher series from :data:`_SERIES_DOF` on; below it,
    Halley steps from the series on the tail ``P(T > t) = I_x(a, 1/2) / 2``
    with ``a = dof/2`` and ``x = dof / (dof + t**2)``, whose ``1 / (a B(a,
    1/2))`` is an exact ratio of integers.  Within 64 ulps of the exact
    value for confidences of 0.5 and up (``tests/test_stats.py``'s 50-digit
    table; docs/metrics.md); a new pair costs tens of microseconds.
    Memoised: a pure function of two scalars, asked again on every scrape
    and window read.
    """
    alpha = (1.0 - confidence) / 2.0  # the tail; exact for confidence >= 1/2
    z = -normal_quantile(alpha)
    z2 = z * z
    series = 0.0
    for divisor, coefficients in reversed(_CORNISH_FISHER):
        series = (series + _horner(coefficients, z2) * z / divisor) / dof
    t = z + series
    if dof >= _SERIES_DOF:
        return t
    a = 0.5 * dof
    if dof % 2:
        scale = 2 ** dof / (dof * math.comb(dof - 1, dof // 2)) / math.pi
    else:
        scale = math.comb(dof, dof // 2) / 2 ** dof
    # Halley converges cubically: after a step this small the error left is
    # far below one ulp.
    step = math.inf
    while abs(step) > 1e-10 * t:
        t2 = t * t
        s = dof + t2
        power = math.exp(-a * math.log1p(t2 / dof))  # (dof / s) ** a, no rounded x
        front = scale * power * math.sqrt(t2 / s)
        if t2 * (dof + 2) > 3 * dof:  # x < (a + 1) / (a + 5/2): the fast side
            residual = 0.5 * front * _beta_fraction(a, 0.5, dof / s) - alpha
        else:  # through I_x(a, 1/2) = 1 - I_{1-x}(1/2, a)
            residual = 0.5 * confidence - a * front * _beta_fraction(0.5, a, t2 / s)
        step = residual * math.sqrt(s) / (a * scale * power)  # over the density
        t += step / (1.0 - 0.5 * step * (dof + 1) * t / s)
    return t


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
    The moments are plain attributes, read without a call; only
    :meth:`add` writes them.
    """

    def __init__(self) -> None:
        #: Number of samples accumulated.
        self.count = 0
        #: Sample mean (0.0 when empty).
        self.mean = 0.0
        #: Sum of squared deviations from the mean.
        self.m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Accumulate one sample."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen; raises when empty."""
        if not self.count:
            raise ValueError("no samples accumulated")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen; raises when empty."""
        if not self.count:
            raise ValueError("no samples accumulated")
        return self._max

    def summary(self, confidence: float = 0.95) -> SummaryStats:
        """Freeze the accumulated statistics into a :class:`SummaryStats`."""
        if not self.count:
            raise ValueError("no samples accumulated")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
        if self.count > 1:
            half = _t_critical(confidence, self.count - 1) * self.std / math.sqrt(self.count)
        else:
            half = float("inf")
        return SummaryStats(
            count=self.count,
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
