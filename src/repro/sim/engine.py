"""The discrete-event simulation engine.

The engine is a classic event-list simulator: a priority queue of
``(time, priority, seq, event)`` entries.  The ``sequence`` number
makes ordering *total* and therefore deterministic — two events scheduled
for the same instant with the same priority fire in the order they were
scheduled.  Heap entries are plain tuples so ordering is resolved by
tuple comparison in C; the :class:`Event` record itself is never compared
(``seq`` is unique, so comparison can never reach the fourth element).

Time is a ``float`` number of **seconds** of virtual time.  The paper
reports metrics in milliseconds; conversion happens at the reporting layer
(:mod:`repro.nekostat`), never inside the engine.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped, or re-cancelling a fired event.
    """


class Event:
    """A scheduled callback, and the caller's handle on it.

    Events are carried inside tuple heap entries ``(time, priority, seq,
    event)``; the record itself holds the callback and bookkeeping flags.
    :meth:`Simulator.schedule` returns the event itself, so one schedule
    allocates one object.  ``__slots__`` keeps the per-event footprint
    small — a 100 000-cycle run allocates hundreds of thousands of these.
    Only :meth:`Simulator.schedule_at` creates events, and it fills the
    slots itself: the class has no ``__init__`` to call.
    """

    __slots__ = ("time", "callback", "name", "cancelled", "fired", "_sim")

    time: float
    callback: Callable[[], None]
    name: str
    cancelled: bool
    fired: bool
    _sim: "Simulator"

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling is idempotent; cancelling an event that already fired is
        a silent no-op, matching the semantics of ``asyncio`` timer handles
        (the caller usually cannot know whether the race was lost).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._sim._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, name={self.name!r}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    The simulator never advances wall-clock time; :attr:`now` jumps from
    event to event.  All components in the reproduction receive the
    simulator instance (or a clock derived from it) by dependency
    injection — there is no global singleton.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        #: Current virtual time, in seconds; :meth:`step` and :meth:`run`
        #: advance it, nothing else may write it.
        self.now = float(start_time)
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue.

        Kept as a counter maintained on schedule/cancel/fire, so repeated
        introspection during long runs is O(1) instead of a queue scan.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from :attr:`now`.

        ``delay`` must be non-negative and finite.  ``priority`` breaks ties
        between events at the same instant (lower fires first); components
        that must observe a consistent snapshot (e.g. the statistics
        handlers) use a higher priority so they run after the mutating
        events of the same instant.
        """
        return self.schedule_at(self.now + delay, callback, priority=priority, name=name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Returns the event, which the caller may :meth:`~Event.cancel`.
        """
        if not self.now <= time < math.inf:  # false for NaN too
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, before current time {self.now:.6f}"
            )
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        time = float(time)
        event = object.__new__(Event)  # slots unset; no __init__ to call
        event._sim = self
        event.time = time
        event.callback = callback
        event.name = name
        event.cancelled = False
        event.fired = False
        heapq.heappush(self._queue, (time, priority, next(self._seq), event))
        self._pending += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty.  Cancelled events are discarded without executing.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            event.fired = True
            self._pending -= 1
            self.now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or a budget hits.

        ``until`` is an absolute virtual time: every event with
        ``time <= until`` is executed, and :attr:`now` is advanced to
        ``until`` afterwards even if no event fired exactly there — unless
        events due by ``until`` are still queued because the run stopped
        early.  ``max_events`` bounds the number of events executed in this
        call — a guard against accidental unbounded periodic timers.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until:.6f}, before current time {self.now:.6f}"
            )
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        queue = self._queue
        self._running = True
        self._stopped = False
        executed = 0
        budget_hit = False
        try:
            while queue and not self._stopped:
                head = queue[0]
                if head[3].cancelled:
                    heapq.heappop(queue)
                    continue
                if head[0] > horizon:
                    break
                if executed >= budget:
                    budget_hit = True
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        # Events due by ``until`` may still be queued after a budget stop:
        # jumping past them would make the next run move time backwards.
        if until is not None and not (budget_hit or self._stopped) and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


__all__ = ["Event", "SimulationError", "Simulator"]
