"""The clean-time estimator, the queue replay and the spread statistic.

The box this benchmark runs on wanders: identical CPU-bound work takes
0.13 s one minute and 0.23 s the next with CPU time equal to wall time,
so no gated number may be a raw wall time.  Contention can only *add*
time to a piece of work, so the fastest of ``R`` executions of the same
piece converges on its uncontended cost from above, and the shorter the
piece, the more likely one of its executions ran clean.  A run therefore
executes a fixed sequence of short steps ``R`` times on identical inputs
and reports the sum of the per-step minima.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class CleanTime:
    """What ``R`` repetitions of one step sequence reduce to."""

    #: Fastest execution of every step, seconds, in sequence order.
    steps: List[float]
    #: Sum of :attr:`steps`: the run's clean time.
    clean_s: float
    #: Median whole repetition, seconds (what a raw timing would report).
    raw_median_s: float
    #: Fastest whole repetition, seconds.
    raw_fastest_s: float
    #: Share of steps whose two fastest executions agree within 3 % —
    #: whether the minimum was seen twice or is a one-off.
    confirmed_share: float
    repetitions: int


def clean_time(repetitions: Sequence[Sequence[float]]) -> CleanTime:
    """Reduce per-repetition step times to the clean time.

    ``repetitions[r][i]`` is the duration of step ``i`` in repetition
    ``r``; every repetition must hold the same number of steps, because a
    minimum is only meaningful over executions of the same work.
    """
    if not repetitions:
        raise ValueError("no repetitions to reduce")
    count = len(repetitions[0])
    if count == 0:
        raise ValueError("a repetition holds no steps")
    for index, repetition in enumerate(repetitions):
        if len(repetition) != count:
            raise ValueError(
                f"repetition {index} has {len(repetition)} steps, "
                f"repetition 0 has {count}: the sequence is not fixed"
            )
    steps: List[float] = []
    confirmed = 0
    for executions in zip(*repetitions):
        if len(executions) == 1:
            steps.append(executions[0])
            continue
        fastest, second = sorted(executions)[:2]
        steps.append(fastest)
        if second <= fastest * 1.03:
            confirmed += 1
    totals = sorted(sum(repetition) for repetition in repetitions)
    return CleanTime(
        steps=steps,
        clean_s=sum(steps),
        raw_median_s=statistics.median(totals),
        raw_fastest_s=totals[0],
        confirmed_share=confirmed / count,
        repetitions=len(repetitions),
    )


def lindley_sojourns(
    services: Sequence[float], interarrival: float
) -> List[float]:
    """Queue wait plus service of each job at a single FIFO server.

    Job ``i`` is due at ``i * interarrival`` and needs ``services[i]``
    seconds; it is timed from when it was due, so a stall delays every
    job behind it (Lindley: ``w[i+1] = max(0, w[i] + s[i] - a)``).
    Computed, never slept: the box cannot enter the result.
    """
    if interarrival <= 0:
        raise ValueError(f"interarrival must be > 0, got {interarrival!r}")
    sojourns: List[float] = []
    wait = 0.0
    for service in services:
        sojourns.append(wait + service)
        wait = max(0.0, wait + service - interarrival)
    return sojourns


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (NaN for an empty sample)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if quartiles[2] == quartiles[0] else float("inf")
    return (quartiles[2] - quartiles[0]) / abs(middle)
