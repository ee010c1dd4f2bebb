"""Route dynamics.

:class:`RouteFlappingDelay` switches between alternative paths at random
epochs, shifting the delay *floor* — the kind of within-run
nonstationarity live Internet paths exhibit (and the likely cause of the
paper's CI-side predictor spread that a stationary model cannot
reproduce; see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.delay import DelayModel


class RouteFlappingDelay(DelayModel):
    """Switches among alternative paths at geometric epochs.

    Each sample, with probability ``flap_probability``, the active route
    changes to a uniformly chosen alternative.  Because routes differ in
    *floor*, a flap is a level shift that windowed predictors re-learn in
    a few samples while the global MEAN never does — useful for studying
    the nonstationary regimes real traces show.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        routes: Sequence[DelayModel],
        flap_probability: float,
    ) -> None:
        if not routes:
            raise ValueError("need at least one route")
        if not 0.0 <= flap_probability <= 1.0:
            raise ValueError(
                f"flap_probability must be in [0, 1], got {flap_probability!r}"
            )
        self._rng = rng
        self._routes = list(routes)
        self._p = float(flap_probability)
        self._active = 0
        self.flaps = 0

    @property
    def active_route(self) -> int:
        """Index of the route currently in use."""
        return self._active

    def sample(self, now: float) -> float:
        if len(self._routes) > 1 and self._p > 0 and self._rng.random() < self._p:
            choices = [i for i in range(len(self._routes)) if i != self._active]
            self._active = int(self._rng.choice(choices))
            self.flaps += 1
        return self._routes[self._active].sample(now)

    def reset(self) -> None:
        self._active = 0
        self.flaps = 0
        for route in self._routes:
            route.reset()


__all__ = ["RouteFlappingDelay"]
