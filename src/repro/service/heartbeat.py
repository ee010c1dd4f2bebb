"""The sending side of the live service: the simulator's stack on UDP.

Each fleet emitter is the paper's monitored process ``q`` exactly as the
simulator runs it — :class:`~repro.fd.heartbeat.Heartbeater` over a
crash layer, hosted by a :class:`~repro.neko.process.NekoProcess` — on a
:class:`~repro.net.udp.UdpNetwork` instead of a simulated one.  Sequence
numbers advance with time even across crash periods: while "crashed" the
heartbeats are suppressed, not renumbered.

The one live-specific piece is :class:`LiveCrash`.  On a real network
there is no shared simulator log the monitor could read crash instants
from, so the crash layer announces them with ``"crash"``/``"restore"``
control datagrams: the live analogue of NekoStat's merged event log,
instrumentation that makes end-to-end ``T_D`` measurable.  Control
datagrams are retransmitted until the monitor's ``control-ack`` arrives
(the monitor records them idempotently, so duplicates are harmless) — a
lost crash datagram does not cost a ``T_D`` sample.

:class:`HeartbeatFleet` assembles many emitters on one socket and one
event loop — the shape both the integration tests and the service
benchmark use.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

from repro.fd.heartbeat import Heartbeater
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.process import NekoProcess
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from repro.net.udp import UdpNetwork

#: Seconds before an unacknowledged crash/restore control is first resent.
CONTROL_RETRANSMIT = 0.5
#: Retransmissions of one control before it is given up.
CONTROL_MAX_RETRIES = 5
#: Growth of the retransmit spacing per attempt (capped at 10x the base):
#: a dead or partitioned monitor is probed ever more gently.
CONTROL_BACKOFF = 1.5
#: Relative jitter on each spacing, so a fleet of emitters does not
#: retransmit in lock-step after a partition heals.
CONTROL_JITTER = 0.1


def jitter_rng(name: str) -> np.random.Generator:
    """The generator a live process jitters its retries with: seeded by
    its name, so live runs stay reproducible and no two processes retry
    in step."""
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence((0, zlib.crc32(name.encode("utf-8"))))
        )
    )


class LiveCrash(SimCrash):
    """SimCrash that tells the monitor about its crashes and restores.

    Every ``CRASH``/``RESTORE`` event — scheduled by the injected
    ``mttc``/``ttr`` cycle or a ``schedule`` exactly as in
    :class:`~repro.fd.simcrash.SimCrash`, or forced by :meth:`crash` /
    :meth:`restore` — is also sent to ``monitor`` as a control datagram
    carrying a ``ctl`` sequence number, and resent until the monitor's
    ``control-ack`` for that number arrives.  Controls and their acks
    pass the layer even while it is crashed: the crash announcement
    itself is what is being acknowledged.

    With neither ``mttc`` nor ``schedule`` nothing is injected and the
    layer crashes only on demand.
    """

    def __init__(
        self,
        monitor: str,
        mttc: Optional[float] = None,
        ttr: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        event_log: Optional[EventLog] = None,
        *,
        schedule: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        if mttc is None and schedule is None:
            schedule = ()
        super().__init__(mttc or 0.0, ttr, rng, event_log, schedule=schedule)
        self.monitor = monitor
        self._ctl_seq = 0
        # ctl -> (datagram, attempts so far, pending retransmit handle).
        self._pending_controls: Dict[int, Tuple[Datagram, int, object]] = {}
        self._jitter_rng: Optional[np.random.Generator] = None
        self.control_retransmits = 0
        self.control_acked = 0
        self.control_given_up = 0

    def on_attach(self) -> None:
        self._jitter_rng = jitter_rng(self.process.address)

    @property
    def pending_controls(self) -> int:
        """Controls still awaiting the monitor's ack."""
        return len(self._pending_controls)

    # ------------------------------------------------------------------
    # Crashes on demand (integration tests, drills)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Enter a crash period now; it lasts until :meth:`restore`."""
        if not self._crashed:
            self._crashed = True
            self.crash_count += 1
            self._emit(EventKind.CRASH)

    def restore(self) -> None:
        """Leave the crash period now."""
        if self._crashed:
            self._crashed = False
            self._emit(EventKind.RESTORE)

    # ------------------------------------------------------------------
    # Announcing CRASH/RESTORE to the monitor
    # ------------------------------------------------------------------
    def _emit(self, kind: EventKind) -> None:
        super()._emit(kind)
        self._ctl_seq += 1
        datagram = Datagram(
            source=self.process.address,
            destination=self.monitor,
            kind=kind.value,
            payload={"ctl": self._ctl_seq},
            timestamp=self.process.local_time(),
        )
        self.send_down(datagram)
        self._arm_retransmit(self._ctl_seq, datagram, attempts=0)

    def _arm_retransmit(self, ctl: int, datagram: Datagram, *, attempts: int) -> None:
        assert self._jitter_rng is not None
        delay = min(
            CONTROL_RETRANSMIT * CONTROL_BACKOFF ** attempts,
            10.0 * CONTROL_RETRANSMIT,
        )
        delay *= 1.0 + CONTROL_JITTER * float(self._jitter_rng.uniform(-1.0, 1.0))
        handle = self.process.sim.schedule(
            delay,
            lambda: self._retransmit(ctl),
            name=f"{self.process.address}:control-retransmit",
        )
        self._pending_controls[ctl] = (datagram, attempts, handle)

    def _retransmit(self, ctl: int) -> None:
        datagram, attempts, _handle = self._pending_controls.pop(ctl)
        if attempts >= CONTROL_MAX_RETRIES:
            self.control_given_up += 1
            return
        self.send_down(datagram)
        self.control_retransmits += 1
        self._arm_retransmit(ctl, datagram, attempts=attempts + 1)

    def deliver(self, message: Datagram) -> None:
        if message.kind != "control-ack":
            super().deliver(message)
            return
        # The payload comes off the wire: anything but the number of a
        # pending control is ignored.
        payload = message.payload
        ctl = payload.get("ctl") if isinstance(payload, dict) else None
        if type(ctl) is not int:
            return
        pending = self._pending_controls.pop(ctl, None)
        if pending is not None:
            pending[2].cancel()  # type: ignore[attr-defined]
            self.control_acked += 1


class HeartbeatFleet:
    """Many emitters, one UDP socket, one event loop.

    Parameters
    ----------
    names:
        Endpoint names; each becomes one ``Heartbeater / LiveCrash``
        process (:attr:`emitters`).
    monitor:
        The monitor daemon's (host, port) UDP intake.
    eta:
        Heartbeat period for every emitter.
    mttc, ttr:
        When ``mttc`` is given, every emitter's crash layer injects
        crash/repair cycles with these parameters.
    seed:
        Seeds the crash draws and the emitters' start phases (emitters
        are phase-staggered across one period so a large fleet does not
        beat in lockstep).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; each
        put-on-the-wire heartbeat becomes a ``send`` span event (the
        sender half of the end-to-end heartbeat trace).
    """

    def __init__(
        self,
        names: Sequence[str],
        monitor: Tuple[str, int],
        *,
        eta: float = 1.0,
        monitor_address: str = "monitor",
        mttc: Optional[float] = None,
        ttr: float = 20.0,
        seed: Optional[int] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        if not names:
            raise ValueError("fleet needs at least one endpoint name")
        if len(set(names)) != len(names):
            raise ValueError("fleet endpoint names must be unique")
        self._names = list(names)
        self.eta = float(eta)
        self._monitor_address = monitor_address
        self._mttc = mttc
        self._ttr = ttr
        self._rng = np.random.default_rng(seed)
        # All interfaces: the monitor may be on another host.
        self.network = UdpNetwork(host="0.0.0.0", tracer=tracer)
        self.network.add_peer(monitor_address, monitor)
        self.emitters: Dict[str, NekoProcess] = {}
        self._running = False

    async def start(self) -> None:
        """Open the socket and start every emitter."""
        if self._running:
            raise RuntimeError("fleet already started")
        await self.network.open()
        scheduler = self.network.scheduler
        assert scheduler is not None
        system = NekoSystem(scheduler, self.network)  # type: ignore[arg-type]
        for name in self._names:
            phase = float(self._rng.uniform(0.0, self.eta))
            stack = ProtocolStack([
                Heartbeater(
                    self._monitor_address, self.eta, start=scheduler.now + phase
                ),
                LiveCrash(
                    self._monitor_address, self._mttc, self._ttr, self._rng
                ),
            ])
            self.emitters[name] = system.create_process(name, stack)
        system.start()
        self._running = True

    async def stop(self) -> None:
        """Stop every emitter and close the socket (idempotent)."""
        if not self._running:
            return
        self._running = False
        self.network.close()
        # fdlint: disable=clock-discipline (zero-delay event-loop yield so transport close callbacks run; not time flow)
        await asyncio.sleep(0)

    @property
    def running(self) -> bool:
        """Whether the fleet is started."""
        return self._running

    def crash(self, name: str) -> None:
        """Manually crash one emitter (integration tests, drills)."""
        self.emitters[name].stack.bottom.crash()  # type: ignore[attr-defined]

    def restore(self, name: str) -> None:
        """Manually restore one emitter."""
        self.emitters[name].stack.bottom.restore()  # type: ignore[attr-defined]

    def total_sent(self) -> int:
        """Heartbeats actually put on the wire, fleet-wide.

        A crashed emitter drops its own heartbeats and nothing else (the
        only traffic towards an emitter is ``control-ack``, which the
        crash layer consumes), so the drops are the suppressed beats.
        """
        return sum(
            process.stack.top.sent  # type: ignore[attr-defined]
            - process.stack.bottom.dropped_messages  # type: ignore[attr-defined]
            for process in self.emitters.values()
        )


__all__ = [
    "HeartbeatFleet",
    "LiveCrash",
    "jitter_rng",
]
