"""Asyncio substrate for the live service: scheduler, clock and log.

The Neko promise — the same protocol layers run in simulation and for
real — is delivered here.  :class:`AsyncioScheduler`, the one real-time
scheduler, implements the scheduling surface of
:class:`repro.sim.engine.Simulator` (``now``, ``schedule``,
``schedule_at``) on the asyncio event loop, so an unchanged
:class:`~repro.fd.bank.DetectorBank` (and the
:class:`~repro.fd.multiplexer.MultiPlexer` stack it sits in) runs inside a
single-threaded asyncio daemon, and unchanged heartbeaters and KV
replicas run on a :class:`~repro.net.udp.UdpNetwork`.  No dispatch lock
is needed: the event loop itself serialises all upcalls.

Scheduler time is anchored to the UNIX epoch (``time.time()`` at
construction, advanced by the loop's monotonic clock), so heartbeat
timestamps produced by one daemon are comparable — up to NTP error, as in
the paper's WAN experiments — with arrival times read by another.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Optional

from repro.nekostat.log import EventLog


class _LoopTimerHandle:
    """Cancellable handle mirroring :class:`repro.sim.engine.Event`."""

    __slots__ = ("_handle", "_when", "_name", "_cancelled", "_scheduler")

    def __init__(
        self,
        scheduler: "AsyncioScheduler",
        when: float,
        name: str,
    ) -> None:
        self._scheduler = scheduler
        self._handle: Optional[asyncio.TimerHandle] = None
        self._when = when
        self._name = name
        self._cancelled = False

    @property
    def time(self) -> float:
        """Scheduler time the callback fires at."""
        return self._when

    @property
    def name(self) -> str:
        """Diagnostic name supplied at scheduling time."""
        return self._name

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._cancelled

    def cancel(self) -> None:
        """Best-effort cancellation (idempotent)."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
        self._scheduler._forget(self)


class AsyncioScheduler:
    """Event-loop drop-in for the simulator's scheduling surface.

    ``now`` is UNIX-epoch seconds, continuous and monotonic within the
    process (epoch origin sampled once, advanced by ``loop.time()``).
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._loop_t0 = self._loop.time()
        self._epoch_t0 = time.time()
        self._handles: "set[_LoopTimerHandle]" = set()
        self._closed = False

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop callbacks are dispatched on."""
        return self._loop

    @property
    def now(self) -> float:
        """Current scheduler time (epoch-anchored seconds)."""
        return self._epoch_t0 + (self._loop.time() - self._loop_t0)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> _LoopTimerHandle:
        """Run ``callback`` after ``delay`` seconds on the loop.

        ``priority`` is accepted for interface compatibility; real time
        never produces exact ties, so it is ignored.
        """
        return self.schedule_at(
            self.now + max(0.0, delay), callback, priority=priority, name=name
        )

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> _LoopTimerHandle:
        """Run ``callback`` at scheduler time ``when``."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        handle = _LoopTimerHandle(self, when, name)

        def guarded() -> None:
            self._handles.discard(handle)
            if not handle.cancelled:
                callback()

        loop_when = self._loop_t0 + (when - self._epoch_t0)
        handle._handle = self._loop.call_at(loop_when, guarded)
        self._handles.add(handle)
        return handle

    def _forget(self, handle: _LoopTimerHandle) -> None:
        self._handles.discard(handle)

    @property
    def outstanding(self) -> int:
        """Number of timers currently scheduled (diagnostics)."""
        return len(self._handles)

    def close(self) -> None:
        """Cancel every outstanding timer; further scheduling raises."""
        self._closed = True
        for handle in list(self._handles):
            handle.cancel()
        self._handles.clear()


class BoundedEventLog(EventLog):
    """An :class:`EventLog` that keeps only the most recent events.

    The live daemon runs indefinitely; detector layers still expect an
    event log to emit into, but the streaming QoS accumulators make the
    full history redundant.  This log retains a bounded tail for
    debugging/inspection.  Slicing is unsupported (deque storage); the
    service only appends and iterates.
    """

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._events = deque(maxlen=capacity)  # type: ignore[assignment]

    @property
    def capacity(self) -> int:
        """The maximum number of retained events."""
        maxlen = self._events.maxlen  # type: ignore[attr-defined]
        assert maxlen is not None
        return maxlen


__all__ = [
    "AsyncioScheduler",
    "BoundedEventLog",
]
