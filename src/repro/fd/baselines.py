"""Baseline failure detectors from the literature.

The paper positions its modular detector against existing designs; these
are implemented here both as comparison points for the benchmarks and as
evidence that the framework's abstractions carry them naturally:

* **Constant time-out** — the non-adaptive detector the paper contrasts
  with ("very useful where a maximum detection time must always be
  guaranteed"): ``delta_i = delta`` forever.
* **NFD-E** (Chen, Toueg & Aguilera, DSN 2000) — expected arrival time
  estimated as the windowed mean of past delays, plus a *constant* safety
  margin ``alpha`` derived from QoS requirements.  In the modular
  vocabulary: ``WINMEAN(n) + Const(alpha)``.
* **Bertier's detector** (Bertier, Marin & Sens, DSN 2002) — Chen's
  estimation plus a dynamic Jacobson-style margin with separate smoothed
  error and deviation terms.
* **φ-accrual** (Hayashibara et al., SRDS 2004) — the descendant of this
  line of work now shipped in Akka and Cassandra; included as the
  "future work" extension.  It outputs a continuous suspicion level
  ``phi(t) = −log10(P(heartbeat still arrives after t))`` under a normal
  model of inter-arrival times and suspects when ``phi`` crosses a
  threshold.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.fd.predictors import Predictor, WinMeanPredictor
from repro.fd.safety import ConstantMargin, SafetyMargin
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import Layer
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.nekostat.stats import normal_quantile
from repro.net.message import Datagram
from repro.sim.process import Timer


class ConstantPredictor(Predictor):
    """Always predicts a fixed delay (for constant-time-out detectors)."""

    name = "Const"

    def __init__(self, value: float) -> None:
        super().__init__(initial_prediction=value)
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value!r}")
        self._value = float(value)

    def _observe(self, value: float) -> float:
        return self._value  # observations do not move a constant prediction

    def _reset(self) -> None:
        pass


def constant_timeout_strategy(delta: float) -> TimeoutStrategy:
    """A fixed time-out ``delta`` (seconds): ``tau_i = sigma_i + delta``."""
    return TimeoutStrategy(
        ConstantPredictor(delta), ConstantMargin(0.0), name=f"Const({delta * 1e3:.0f}ms)"
    )


def nfd_e_strategy(alpha: float, *, window: int = 1000) -> TimeoutStrategy:
    """Chen et al.'s NFD-E: windowed-mean arrival estimation + constant margin.

    ``alpha`` is the constant safety margin (seconds) the NFD-E design
    derives from the application's QoS requirements and the network's
    probabilistic characterisation.
    """
    return TimeoutStrategy(
        WinMeanPredictor(window=window),
        ConstantMargin(alpha),
        name=f"NFD-E(a={alpha * 1e3:.0f}ms)",
    )


class BertierMargin(SafetyMargin):
    """Bertier, Marin & Sens' dynamic safety margin.

    Maintains a smoothed prediction error ``U`` and a smoothed deviation
    ``var`` (both EWMA), and returns ``beta * U + phi * var``::

        error_k = obs_n − pred_k
        U_{k+1}   = U_k + gamma * (error_k − U_k)
        var_{k+1} = var_k + gamma * (|error_k| − var_k)
        sm_{k+1}  = beta * U_{k+1} + phi * var_{k+1}

    Defaults follow the DSN 2002 paper: ``beta = 1``, ``phi = 4``,
    ``gamma = 0.1``.  The margin is clamped at zero.
    """

    name = "Bertier"

    def __init__(
        self,
        *,
        beta: float = 1.0,
        phi: float = 4.0,
        gamma: float = 0.1,
        initial_margin: float = 0.1,
    ) -> None:
        super().__init__(initial_margin)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
        self.beta = float(beta)
        self.phi = float(phi)
        self.gamma = float(gamma)
        self._u = 0.0
        self._var = 0.0
        self._updates = 0

    def update(self, observation: float, prediction: float) -> None:
        error = observation - prediction
        if self._updates == 0:
            self._u = error
            self._var = abs(error)
        else:
            self._u += self.gamma * (error - self._u)
            self._var += self.gamma * (abs(error) - self._var)
        self._updates += 1

    def current(self) -> float:
        if self._updates == 0:
            return self._initial_margin
        return max(0.0, self.beta * self._u + self.phi * self._var)

    def reset(self) -> None:
        self._u = 0.0
        self._var = 0.0
        self._updates = 0


def bertier_strategy(*, window: int = 1000) -> TimeoutStrategy:
    """Bertier's adaptable detector: Chen estimation + dynamic margin."""
    return TimeoutStrategy(
        WinMeanPredictor(window=window), BertierMargin(), name="Bertier"
    )


class PhiAccrualDetector(Layer):
    """The φ-accrual failure detector as a monitor-side layer.

    Inter-arrival times of heartbeats are modelled as normal; given the
    time since the last heartbeat, the suspicion level is
    ``phi(t) = −log10(1 − F(t))``.  The detector emits ``START_SUSPECT``
    when ``phi`` crosses ``threshold`` — computed event-style by arming a
    timer at the crossing instant
    ``t* = last_arrival + mu + sigma * Phi^{-1}(1 − 10^{−threshold})`` —
    and ``END_SUSPECT`` on the next heartbeat, so the standard QoS
    extraction applies unchanged.
    """

    def __init__(
        self,
        monitored: str,
        eta: float,
        event_log: EventLog,
        *,
        threshold: float = 8.0,
        window: int = 1000,
        min_std: float = 0.005,
        detector_id: str = "",
        initial_timeout: float = 10.0,
    ) -> None:
        super().__init__(name=detector_id or f"PhiAccrual({threshold:g})")
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold!r}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window!r}")
        if min_std <= 0:
            raise ValueError(f"min_std must be > 0, got {min_std!r}")
        self.monitored = monitored
        self.eta = float(eta)
        self.threshold = float(threshold)
        self.detector_id = detector_id or f"PhiAccrual({threshold:g})"
        self._event_log = event_log
        self._window: Deque[float] = deque(maxlen=window)
        self._min_std = float(min_std)
        self._initial_timeout = float(initial_timeout)
        self._last_arrival: Optional[float] = None
        self._suspecting = False
        self._timer: Optional[Timer] = None
        # Quantile of the crossing: P(interval > t*) = 10^{-threshold}.
        self._crossing_quantile = normal_quantile(1.0 - 10.0 ** (-self.threshold))

    @property
    def suspecting(self) -> bool:
        """Whether the detector currently suspects the monitored process."""
        return self._suspecting

    def phi(self, now: Optional[float] = None) -> float:
        """The current suspicion level (0 when freshly heartbeaten)."""
        if self._last_arrival is None or len(self._window) < 2:
            return 0.0
        now = self.process.sim.now if now is None else now
        elapsed = now - self._last_arrival
        mu, sigma = self._interval_moments()
        z = (elapsed - mu) / sigma
        tail = _normal_sf(z)
        if tail <= 0.0:
            return float("inf")
        return -math.log10(tail)

    def on_attach(self) -> None:
        self._timer = self.process.timer(self._expired, name=f"phi:{self.detector_id}", priority=1)

    def on_start(self) -> None:
        assert self._timer is not None
        self._timer.arm(self.eta + self._initial_timeout)

    def deliver(self, message: Datagram) -> None:
        if message.kind != "heartbeat" or message.source != self.monitored:
            self.deliver_up(message)
            return
        now = self.process.sim.now
        if self._last_arrival is not None:
            interval = now - self._last_arrival
            if interval > 0:
                self._window.append(interval)
        self._last_arrival = now
        if self._suspecting:
            self._suspecting = False
            self._emit(EventKind.END_SUSPECT)
        self._arm_crossing()
        self.deliver_up(message)

    def _interval_moments(self) -> tuple:
        n = len(self._window)
        mean = sum(self._window) / n
        variance = sum((value - mean) ** 2 for value in self._window) / max(1, n - 1)
        return mean, max(self._min_std, math.sqrt(variance))

    def _arm_crossing(self) -> None:
        assert self._timer is not None and self._last_arrival is not None
        if len(self._window) < 2:
            self._timer.arm_at(
                max(self.process.sim.now, self._last_arrival + self.eta + self._initial_timeout)
            )
            return
        mu, sigma = self._interval_moments()
        crossing = self._last_arrival + mu + sigma * self._crossing_quantile
        self._timer.arm_at(max(self.process.sim.now, crossing))

    def _expired(self) -> None:
        if self._suspecting:
            return
        self._suspecting = True
        self._emit(EventKind.START_SUSPECT)

    def _emit(self, kind: EventKind) -> None:
        self._event_log.append(
            StatEvent(
                time=self.process.sim.now,
                kind=kind,
                site=self.process.address,
                detector=self.detector_id,
                local_time=self.process.local_time(),
            )
        )


def _normal_sf(z: float) -> float:
    """Standard normal survival function ``1 − Phi(z)``."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


__all__ = [
    "BertierMargin",
    "ConstantPredictor",
    "PhiAccrualDetector",
    "bertier_strategy",
    "constant_timeout_strategy",
    "nfd_e_strategy",
]
