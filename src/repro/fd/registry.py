"""Plugin registry for custom predictors and safety margins.

The paper's modular architecture exists so that new time-out calculation
methods can be dropped in and compared fairly against the stock thirty.
The registry makes that a one-liner for library users::

    from repro.fd.registry import register_predictor

    register_predictor("Median", lambda **kw: MedianPredictor(**kw))
    strategy = make_registered_strategy("Median", "CI_med")
    # -> a ("Median+CI_med", strategy) row of a PushFailureDetector,
    #    beside the paper's table ids.

Stock names (the paper's) resolve through
:mod:`repro.fd.combinations`; registered names extend, and may not
shadow, the stock set.  :class:`MedianPredictor` — a robust sliding-window
median, natural on heavy-tailed paths — ships as a worked example and is
pre-registered.

A custom predictor subclasses :class:`~repro.fd.predictors.Predictor`
and implements two hooks::

    class DoubleLast(Predictor):
        name = "DoubleLast"

        def _observe(self, value: float) -> float:
            self._last = value
            return 2.0 * value   # the forecast of the next delay

        def _reset(self) -> None:
            self._last = 0.0

``_observe`` receives a finite delay (the base class validates and
counts it) and returns the forecast of the next one; the base class
stores it, returns it from ``observe`` and from every ``predict()``
until the next observation, and answers ``initial_prediction`` before
the first one and after ``reset()``.  The detector bank reads the
forecast from ``observe``, so a heartbeat costs one call per predictor
plus its hook.  The block form :meth:`~repro.fd.predictors.Predictor.forecast_many`
(every forecast over a recorded trace at once) comes from the base
class as that ``observe`` loop; a predictor may override it with array
operations, as the paper's five do, and
``tests/test_predictor_contract.py`` holds the two equal.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Dict, List

from repro.fd.combinations import (
    MARGIN_NAMES,
    PREDICTOR_NAMES,
    make_margin,
    make_predictor,
)
from repro.fd.predictors import Predictor
from repro.fd.safety import SafetyMargin
from repro.fd.timeout import TimeoutStrategy

_PREDICTORS: Dict[str, Callable[..., Predictor]] = {}
_MARGINS: Dict[str, Callable[..., SafetyMargin]] = {}


def register_predictor(name: str, factory: Callable[..., Predictor]) -> None:
    """Register a custom predictor factory under ``name``.

    The name must not collide with the paper's predictors or an existing
    registration.
    """
    if not name:
        raise ValueError("predictor name must be non-empty")
    if name in PREDICTOR_NAMES or name in _PREDICTORS:
        raise ValueError(f"predictor name {name!r} is already taken")
    _PREDICTORS[name] = factory


def register_margin(name: str, factory: Callable[..., SafetyMargin]) -> None:
    """Register a custom safety-margin factory under ``name``."""
    if not name:
        raise ValueError("margin name must be non-empty")
    if name in MARGIN_NAMES or name in _MARGINS:
        raise ValueError(f"margin name {name!r} is already taken")
    _MARGINS[name] = factory


def registered_predictors() -> List[str]:
    """All resolvable predictor names (stock first, then registered)."""
    return list(PREDICTOR_NAMES) + sorted(_PREDICTORS)


def registered_margins() -> List[str]:
    """All resolvable margin names (stock first, then registered)."""
    return list(MARGIN_NAMES) + sorted(_MARGINS)


def make_registered_predictor(name: str, **overrides) -> Predictor:
    """Build a predictor by stock or registered name."""
    if name in _PREDICTORS:
        return _PREDICTORS[name](**overrides)
    return make_predictor(name, **overrides)


def make_registered_margin(name: str, **overrides) -> SafetyMargin:
    """Build a margin by stock or registered name."""
    if name in _MARGINS:
        margin = _MARGINS[name](**overrides)
        margin.name = name
        return margin
    return make_margin(name, **overrides)


def make_registered_strategy(predictor_name: str, margin_name: str) -> TimeoutStrategy:
    """Build a strategy from any mix of stock and registered names."""
    return TimeoutStrategy(
        make_registered_predictor(predictor_name),
        make_registered_margin(margin_name),
        name=f"{predictor_name}+{margin_name}",
    )


class MedianPredictor(Predictor):
    """Sliding-window median predictor (registry worked example).

    The median is robust to the spike outliers that inflate windowed
    means: a single 100 ms spike moves WINMEAN(10) by 10 ms for ten
    cycles but leaves the median untouched.  Maintained with a sorted
    shadow list: O(log N) per observation.
    """

    name = "Median"

    def __init__(self, window: int = 11, initial_prediction: float = 0.0) -> None:
        super().__init__(initial_prediction)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._buffer: deque = deque(maxlen=self.window)
        self._sorted: List[float] = []

    def _observe(self, value: float) -> float:
        if len(self._buffer) == self.window:
            oldest = self._buffer[0]
            index = bisect.bisect_left(self._sorted, oldest)
            del self._sorted[index]
        self._buffer.append(value)
        bisect.insort(self._sorted, value)
        n = len(self._sorted)
        middle = n // 2
        if n % 2:
            return self._sorted[middle]
        return 0.5 * (self._sorted[middle - 1] + self._sorted[middle])

    def _reset(self) -> None:
        self._buffer.clear()
        self._sorted.clear()


# The worked example ships pre-registered.
register_predictor("Median", lambda **kw: MedianPredictor(**kw))


__all__ = [
    "MedianPredictor",
    "make_registered_margin",
    "make_registered_predictor",
    "make_registered_strategy",
    "register_margin",
    "register_predictor",
    "registered_margins",
    "registered_predictors",
]
