"""Live-side fault injection: the intake shim over real UDP components.

The live path has exactly one choke point per component — its
network's ``_on_datagram`` intake — so chaos is injected there, on the
raw wire bytes, driven by the same :class:`~repro.chaos.engine.ChaosEngine`
(and therefore the same :class:`~repro.chaos.plan.FaultPlan` JSON) as
the simulator's :class:`~repro.chaos.link.ChaosLink`:

* drops and loss bursts discard the bytes before the component sees them;
* delay spikes / reordering re-deliver the bytes later via the
  component's scheduler (or the running asyncio loop);
* duplicates deliver the same bytes several times;
* corruption/truncation mangles the bytes — the hardened
  :func:`~repro.net.udp.decode_datagram` then rejects undecodable
  results inside the component, exactly like a corrupted wire packet;
* clock skew decodes, shifts the sender timestamp, and re-encodes;
* a paused process has its outbound traffic dropped at every receiver
  and its inbound traffic held until the pause window closes (the
  kernel-buffer burst a SIGSTOP'd process sees on resume).

The network's protocol shell looks ``_on_datagram`` up per datagram, so
a shim attached at any time takes effect from the next datagram on.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Callable, Optional

from repro.chaos.engine import ChaosEngine, Decision
from repro.net.udp import DatagramDecodeError, decode_datagram, encode_datagram


class ChaosIntake:
    """A fault-injecting wrapper around one component's datagram intake.

    ``scheduler_fn`` lazily resolves the component's scheduler (live
    components create theirs inside ``start()``); when it yields nothing
    the running asyncio loop is used for deferred deliveries.
    """

    def __init__(
        self,
        engine: ChaosEngine,
        inner: Callable[..., None],
        *,
        scheduler_fn: Optional[Callable[[], Any]] = None,
        name: str = "",
    ) -> None:
        self._engine = engine
        self._inner = inner
        self._scheduler_fn = scheduler_fn
        self._armed = False
        self.name = name

    @property
    def engine(self) -> ChaosEngine:
        """The shared decision engine driving this intake."""
        return self._engine

    def arm(self, time_origin: float) -> None:
        """Anchor the plan timeline to the component clock explicitly."""
        self._engine.time_origin = float(time_origin)
        self._armed = True

    def _now(self) -> float:
        scheduler = self._scheduler_fn() if self._scheduler_fn is not None else None
        if scheduler is not None:
            return float(scheduler.now)
        return float(asyncio.get_running_loop().time())

    def _defer(self, delay: float, thunk: Callable[[], None]) -> None:
        scheduler = self._scheduler_fn() if self._scheduler_fn is not None else None
        if scheduler is not None:
            scheduler.schedule(delay, thunk, name=f"chaos:{self.name}")
        else:
            asyncio.get_running_loop().call_later(delay, thunk)

    def __call__(self, data: bytes, *rest: Any) -> None:
        try:
            message = decode_datagram(data)
        except DatagramDecodeError:
            # Already garbage on the wire: not plan traffic, pass through
            # so the component's own drop accounting still fires.
            self._inner(data, *rest)
            return
        now = self._now()
        if not self._armed:
            # First datagram anchors the plan if the runner never did.
            self.arm(now)
        decision = self._engine.decide(now, message.source, message.destination)
        if decision.drop:
            return
        payload = self._mangle_bytes(data, message, decision)
        extra = decision.extra_delay
        if decision.hold_until is not None:
            extra = max(extra, decision.hold_until - now)
        for _ in range(decision.copies):
            if extra > 0:
                self._defer(
                    extra, lambda raw=payload: self._inner(raw, *rest)
                )
            else:
                self._inner(payload, *rest)

    def _mangle_bytes(self, data: bytes, message, decision: Decision) -> bytes:
        if decision.skew and message.timestamp is not None:
            message = dataclasses.replace(
                message, timestamp=message.timestamp + decision.skew
            )
            data = encode_datagram(message)
        if decision.corrupt or decision.truncate:
            data = self._engine.mangle(
                data, decision, message.source, message.destination
            )
        return data


def attach_backend(engine: ChaosEngine, backend: Any, *, name: str = "") -> ChaosIntake:
    """Wrap ``backend._on_datagram`` with a chaos intake.

    ``backend`` is a :class:`~repro.net.udp.UdpNetwork` — the monitor
    daemon's, a fleet's, a KV node's, a client's: every live component
    receives through one — or anything else with an ``_on_datagram``
    intake and a ``scheduler``.
    """
    intake = ChaosIntake(
        engine, backend._on_datagram, scheduler_fn=lambda: backend.scheduler,
        name=name or type(backend).__name__,
    )
    backend._on_datagram = intake
    return intake


__all__ = [
    "ChaosIntake",
    "attach_backend",
]
