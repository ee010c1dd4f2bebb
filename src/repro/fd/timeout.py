"""The time-out strategy: predictor + safety margin.

``TimeoutStrategy`` is the paper's ``delta_i = pred_i + sm_i`` in object
form.  The failure detector calls :meth:`observe` for every heartbeat delay
it measures and :meth:`timeout` whenever it needs the time-out for the next
cycle.  The strategy keeps the bookkeeping straight: the safety margin must
be fed the prediction that was *in force* when the observation was made
(that is what ``err_k = obs_n − pred_k`` means in SM_JAC), not the
prediction computed afterwards.
"""

from __future__ import annotations

from typing import Optional

from repro.fd.predictors import Predictor
from repro.fd.safety import SafetyMargin


class TimeoutStrategy:
    """Combines a predictor and a safety margin into a time-out rule."""

    def __init__(self, predictor: Predictor, margin: SafetyMargin, name: str = "") -> None:
        self._predictor = predictor
        self._margin = margin
        self.name = name or f"{predictor.name}+{margin.name}"
        self._prediction_in_force: Optional[float] = None

    @property
    def predictor(self) -> Predictor:
        """The delay predictor."""
        return self._predictor

    @property
    def margin(self) -> SafetyMargin:
        """The safety margin."""
        return self._margin

    def observe(self, delay: float) -> None:
        """Feed one observed heartbeat delay (seconds).

        Order matters and is fixed here: the margin sees the error of the
        prediction that was in force, then the predictor absorbs the new
        observation.
        """
        in_force = (
            self._prediction_in_force
            if self._prediction_in_force is not None
            else self._predictor.predict()
        )
        self._margin.update(delay, in_force)
        # The prediction now in force is the fresh one.
        self._prediction_in_force = self._predictor.observe(delay)

    def prediction(self) -> float:
        """The current delay forecast ``pred`` (seconds)."""
        if self._prediction_in_force is None:
            self._prediction_in_force = self._predictor.predict()
        return self._prediction_in_force

    def timeout(self) -> float:
        """The time-out ``delta = pred + sm`` for the next cycle (seconds).

        Clamped below at zero: a pathological negative forecast must not
        produce a freshness point before the send time.
        """
        return max(0.0, self.prediction() + self._margin.current())

    def reset(self) -> None:
        """Reset predictor and margin state."""
        self._predictor.reset()
        self._margin.reset()
        self._prediction_in_force = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeoutStrategy({self.name!r})"


__all__ = ["TimeoutStrategy"]
