"""Timer utilities layered over the simulation engine.

These are conveniences used by protocol layers: a one-shot re-armable
:class:`Timer` (the shape a failure detector's time-out wants) and a
:class:`PeriodicTimer` (the shape a heartbeater wants).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class Timer:
    """A one-shot timer that can be re-armed and cancelled.

    Re-arming an armed timer cancels the previous deadline first, so at most
    one expiry is ever outstanding — exactly the behaviour a time-out based
    failure detector needs when each heartbeat pushes the deadline forward.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        name: str = "timer",
        *,
        priority: int = 0,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._name = name
        self._priority = priority
        self._handle: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """Whether an expiry is currently scheduled."""
        return self._handle is not None and not self._handle.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Absolute time of the pending expiry, or ``None`` if unarmed."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None

    def arm_at(self, time: float) -> None:
        """(Re-)arm the timer to fire at absolute time ``time``."""
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._sim.schedule_at(
            time, self._fire, name=self._name, priority=self._priority
        )

    def arm(self, delay: float) -> None:
        """(Re-)arm the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"timer delay must be >= 0, got {delay!r}")
        self.arm_at(self._sim.now + delay)

    def cancel(self) -> None:
        """Cancel the pending expiry, if any."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTimer:
    """A fixed-period timer, aligned to multiples of the period.

    The k-th tick fires at ``start + k * period`` (computed multiplicatively
    from the start time, not cumulatively, so floating-point error does not
    accumulate over the 100 000-cycle runs the paper uses).  The tick number
    is passed to the callback — it is the heartbeat sequence number.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[int], None],
        *,
        start: Optional[float] = None,
        name: str = "periodic",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be > 0, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._name = name
        # A defaulted start means "when start() is first called": resolved
        # there, so time passing between construction and start (real time
        # on the asyncio scheduler) cannot make tick 0 look missed.
        self._start: Optional[float] = None if start is None else float(start)
        self._tick = 0
        self._handle: Optional[Event] = None
        self._running = False

    @property
    def period(self) -> float:
        """The tick period in seconds."""
        return self._period

    @property
    def next_tick(self) -> int:
        """The sequence number of the next tick to fire."""
        return self._tick

    @property
    def running(self) -> bool:
        """Whether the timer is currently ticking."""
        return self._running

    def start(self) -> None:
        """Begin ticking.  The first tick fires at the configured start time,
        or now if none was given; ticks whose time has passed are skipped."""
        if self._running:
            return
        self._running = True
        if self._start is None:
            self._start = self._sim.now
            self._handle = self._sim.schedule_at(self._start, self._fire, name=self._name)
        else:
            self._schedule_next()

    def stop(self) -> None:
        """Stop ticking.  A later :meth:`start` resumes from the next
        not-yet-fired tick number, so sequence numbers keep advancing with
        virtual time — which is what a crash/repair cycle requires (the
        paper's heartbeater continues its cycle count across repairs)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _schedule_next(self) -> None:
        assert self._start is not None
        when = self._start + self._tick * self._period
        if when < self._sim.now:
            # Skip ticks that elapsed while stopped.
            missed = int((self._sim.now - self._start) / self._period)
            self._tick = missed
            when = self._start + self._tick * self._period
            while when < self._sim.now:
                self._tick += 1
                when = self._start + self._tick * self._period
        self._handle = self._sim.schedule_at(when, self._fire, name=self._name)

    def _fire(self) -> None:
        tick = self._tick
        self._tick += 1
        self._handle = None
        self._callback(tick)
        if self._running:
            self._schedule_next()


__all__ = ["PeriodicTimer", "Timer"]
