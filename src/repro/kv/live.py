"""The KV service over real UDP sockets, next to the monitoring daemon.

Live mode runs the simulation's own layers on a
:class:`~repro.net.udp.UdpNetwork` and drives failover from the
monitoring daemon's detector bank instead of a simulated one:

* :class:`LiveKvNode` — one replica: the stack ``KvNodeLayer /
  Heartbeater / LiveCrash`` of :func:`~repro.kv.sim.run_kv_sim` (with
  the crash layer that announces itself to the monitor) on its own UDP
  socket.  Heartbeats leave *from the service socket*, so the peer
  table of the daemon's :class:`~repro.net.udp.UdpNetwork` learns the
  node's service address — which is what lets the daemon transmit
  ``kv-view`` broadcasts back through ``daemon.network.send``.
* :class:`LiveFailoverController` — subscribes to the daemon's
  observability hub; every dirty notification for the configured
  detector re-reads that endpoint's suspicion state and feeds the shared
  :class:`~repro.kv.failover.FailoverState`.  View changes are traced
  (``kv-view`` / ``kv-promote`` / ``kv-demote`` span events) and
  broadcast over the daemon's socket; ``render_metrics`` contributes
  ``fd_kv_*`` series to ``/metrics``.
* :class:`AsyncKvClient` — a coroutine client following the same
  :class:`~repro.kv.client.ClientView` rules as the simulated one (the
  smoke-test driver).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder
    from repro.service.daemon import MonitorDaemon

from repro.fd.heartbeat import Heartbeater
from repro.kv.client import ClientView
from repro.kv.failover import FailoverState, ViewChange
from repro.kv.node import (
    KV_GET,
    KV_GET_OK,
    KV_REDIRECT,
    KV_SET,
    KV_SET_OK,
    KV_VIEW,
    KvNodeCore,
    KvNodeLayer,
)
from repro.kv.store import Version, decode_version
from repro.neko.layer import ProtocolStack
from repro.neko.process import NekoProcess
from repro.neko.system import NekoSystem
from repro.net.message import Datagram
from repro.net.udp import UdpNetwork
from repro.service.heartbeat import LiveCrash, jitter_rng

#: Pause before the first timeout retry; it doubles per attempt, capped
#: at one op timeout.  Redirect retries stay immediate (the cluster
#: answered); only silence earns a growing pause.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_FACTOR = 2.0
#: Relative jitter on each pause: during a partition a herd of clients
#: must not re-probe in lock-step.
RETRY_JITTER = 0.2


class LiveKvNode:
    """One KV replica on a real UDP socket, heartbeating the monitor."""

    def __init__(
        self,
        name: str,
        nodes: Sequence[str],
        monitor: Tuple[str, int],
        *,
        eta: float,
        write_concern: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        monitor_address: str = "monitor",
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        self.core = KvNodeCore(name, nodes, write_concern=write_concern)
        self.name = name
        self.eta = float(eta)
        # The tracer gives every KV heartbeat a `send` span (emit
        # wall-time + seq) like fleet emitters — per-hop trace analysis
        # never has to infer the emit time.
        self.network = UdpNetwork(host=host, port=port, tracer=tracer)
        self.network.add_peer(monitor_address, monitor)
        self._crash = LiveCrash(monitor_address)
        self._stack = ProtocolStack([
            KvNodeLayer(self.core),
            Heartbeater(monitor_address, self.eta),
            self._crash,
        ])
        self.process: Optional[NekoProcess] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the socket and start heartbeating the monitor."""
        await self.network.open()
        system = NekoSystem(self.network.scheduler, self.network)  # type: ignore[arg-type]
        self.process = system.create_process(self.name, self._stack)
        system.start()

    async def stop(self) -> None:
        """Stop heartbeating and close the socket (idempotent)."""
        self.network.close()
        # fdlint: disable=clock-seed-taint (zero-delay event-loop yield so transport close callbacks run; not time flow)
        await asyncio.sleep(0)

    @property
    def udp_endpoint(self) -> Tuple[str, int]:
        """The bound (host, port) of this node's service socket."""
        return self.network.local_endpoint

    def add_peer(self, name: str, addr: Tuple[str, int]) -> None:
        """Pin another node's (or a client's) UDP address."""
        self.network.add_peer(name, addr)

    # ------------------------------------------------------------------
    # Crash semantics (SimCrash over a real socket)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the node is currently simulating a crash."""
        return self._crash.crashed

    def crash(self) -> None:
        """Announce the crash, then drop all traffic in both directions."""
        self._crash.crash()

    def restore(self) -> None:
        """Resume service and heartbeats, and announce the restore."""
        self._crash.restore()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"LiveKvNode({self.name!r}, {state})"


class LiveFailoverController:
    """Failover decisions from the daemon's live detector bank.

    Parameters
    ----------
    daemon:
        A started :class:`~repro.service.daemon.MonitorDaemon`; the
        controller registers itself as ``daemon.kv_controller`` (which
        also wires the ``fd_kv_*`` series into ``/metrics``).
    nodes:
        Replica names in promotion-priority order; each must heartbeat
        the daemon so its suspicion state and peer address exist.
    detector_id:
        The combination id whose suspect/trust transitions drive
        failover (must be in ``daemon.detector_ids``).
    """

    def __init__(
        self,
        daemon: "MonitorDaemon",
        nodes: Sequence[str],
        *,
        detector_id: str,
    ) -> None:
        if detector_id not in daemon.detector_ids:
            raise ValueError(
                f"detector {detector_id!r} is not run by the daemon "
                f"(available: {daemon.detector_ids!r})"
            )
        self.daemon = daemon
        self.nodes = list(nodes)
        self.detector_id = detector_id
        self.state = FailoverState(nodes)
        self.view_log: List[Tuple[float, ViewChange]] = [
            (daemon.scheduler.now, self.state.view)
        ]
        self.failovers_total = 0
        self.views_broadcast = 0
        daemon.obs.add_dirty_listener(self._on_dirty)
        daemon.kv_controller = self
        self.broadcast_view()

    @property
    def view(self) -> ViewChange:
        """The currently installed view."""
        return self.state.view

    # ------------------------------------------------------------------
    # Detector intake
    # ------------------------------------------------------------------
    def _on_dirty(self, endpoint: str, detector: str = "") -> None:
        if endpoint not in self.state.nodes:
            return
        if detector and detector != self.detector_id:
            return
        monitor = self.daemon.registry.get(endpoint)
        if monitor is None:
            return
        live_detector = monitor.detectors.get(self.detector_id)
        if live_detector is None:
            return
        previous_primary = self.state.primary
        change = self.state.on_transition(endpoint, live_detector.suspecting)
        if change is None:
            return
        now = self.daemon.scheduler.now
        self.view_log.append((now, change))
        self.failovers_total += 1
        tracer = self.daemon.obs.tracer
        if tracer is not None:
            if previous_primary is not None:
                tracer.emit(now, "kv-demote", previous_primary,
                            detector=self.detector_id)
            if change.primary is not None:
                tracer.emit(now, "kv-promote", change.primary,
                            detector=self.detector_id)
            tracer.emit(now, "kv-view", change.primary or "",
                        detector=self.detector_id, seq=change.epoch)
        self.broadcast_view()

    def broadcast_view(self) -> None:
        """Push the current view to every replica over the daemon socket."""
        payload = {"epoch": self.state.epoch, "primary": self.state.primary}
        for node in self.nodes:
            sent = self.daemon.network.send(
                Datagram(
                    source=self.daemon.address,
                    destination=node,
                    kind=KV_VIEW,
                    payload=dict(payload),
                )
            )
            if sent:
                self.views_broadcast += 1

    # ------------------------------------------------------------------
    # Metrics (called by IncrementalExporter._render_head)
    # ------------------------------------------------------------------
    def render_metrics(self, lines: List[str], header) -> None:
        """Append the ``fd_kv_*`` series to a /metrics head render."""
        header("fd_kv_epoch", "gauge", "Current KV failover view epoch.")
        lines.append(f"fd_kv_epoch {self.state.epoch}")
        header("fd_kv_failovers_total", "counter",
               "KV view changes installed since the controller started.")
        lines.append(f"fd_kv_failovers_total {self.failovers_total}")
        header("fd_kv_views_broadcast_total", "counter",
               "KV view datagrams transmitted over the service socket.")
        lines.append(f"fd_kv_views_broadcast_total {self.views_broadcast}")
        header("fd_kv_primary", "gauge",
               "1 on the replica the current view names primary.")
        for node in self.nodes:
            flag = 1 if node == self.state.primary else 0
            lines.append(f'fd_kv_primary{{endpoint="{node}"}} {flag}')


class KvClientError(RuntimeError):
    """An operation exhausted its retry budget."""


class AsyncKvClient:
    """A coroutine GET/SET client with retry/redirect (smoke tests)."""

    def __init__(
        self,
        name: str,
        nodes: Dict[str, Tuple[str, int]],
        order: Sequence[str],
        *,
        op_timeout: float = 0.5,
        max_retries: int = 8,
    ) -> None:
        self.name = name
        self.view = ClientView(order)
        self.op_timeout = float(op_timeout)
        self.max_retries = int(max_retries)
        self._retry_rng = jitter_rng(name)
        self.network = UdpNetwork()
        for node, addr in nodes.items():
            self.network.add_peer(node, addr)
        self.network.register(name, self._on_message)
        self._waiters: Dict[str, asyncio.Future] = {}
        self._op_counter = 0
        self.retries_total = 0

    async def start(self) -> None:
        await self.network.open()

    async def stop(self) -> None:
        self.network.close()
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.cancel()
        self._waiters.clear()
        # fdlint: disable=clock-seed-taint (zero-delay event-loop yield so transport close callbacks run; not time flow)
        await asyncio.sleep(0)

    async def set(self, key: str, value: Any) -> Version:
        """Write ``key`` and return the acknowledged version."""
        payload = {"key": key, "value": value}
        reply = await self._request(KV_SET, payload, ok_kind=KV_SET_OK)
        version = decode_version(reply["version"])
        self.view.observe(key, version)
        return version

    async def get(self, key: str) -> Tuple[Any, Optional[Version], bool]:
        """Read ``key``: returns ``(value, version, stale)``."""
        reply = await self._request(KV_GET, {"key": key}, ok_kind=KV_GET_OK)
        raw = reply["version"]
        version = decode_version(raw) if raw is not None else None
        return reply["value"], version, self.view.observe(key, version)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _retry_delay(self, attempt: int) -> float:
        """Jittered exponential backoff before timeout retry ``attempt``."""
        delay = min(
            RETRY_BACKOFF * RETRY_BACKOFF_FACTOR ** (attempt - 1), self.op_timeout
        )
        return delay * (
            1.0 + RETRY_JITTER * float(self._retry_rng.uniform(-1.0, 1.0))
        )

    async def _request(
        self, kind: str, payload: Dict[str, Any], *, ok_kind: str
    ) -> Dict[str, Any]:
        if self.network.scheduler is None:
            raise RuntimeError("client is not started")
        self._op_counter += 1
        uid = f"{self.name}:{self._op_counter}"
        payload = dict(payload)
        payload["uid"] = uid
        attempt = 0
        rotation = 0
        while attempt <= self.max_retries:
            waiter: asyncio.Future = asyncio.get_running_loop().create_future()
            self._waiters[uid] = waiter
            self.network.send(
                Datagram(
                    source=self.name,
                    destination=self.view._target(rotation),
                    kind=kind,
                    payload=payload,
                )
            )
            try:
                reply = await asyncio.wait_for(waiter, timeout=self.op_timeout)
            except asyncio.TimeoutError:
                attempt += 1
                rotation += 1
                self.retries_total += 1
                # fdlint: disable=clock-seed-taint (seeded jittered retry backoff; live-network-only client path, no simulated time flows here)
                await asyncio.sleep(self._retry_delay(attempt))
                continue
            finally:
                self._waiters.pop(uid, None)
            if reply.kind == ok_kind:
                return reply.payload
            # Redirect: adopt the view and retry immediately.
            rotation = self.view._adopt_view(reply.payload, rotation)
            attempt += 1
            self.retries_total += 1
        raise KvClientError(
            f"{kind} {payload.get('key')!r} exhausted {self.max_retries} retries"
        )

    def _on_message(self, message: Datagram) -> None:
        if message.kind == KV_VIEW:
            self.view._adopt_view(message.payload)
            return
        if message.kind not in (KV_SET_OK, KV_GET_OK, KV_REDIRECT):
            return
        uid = message.payload.get("uid") if isinstance(message.payload, dict) else None
        waiter = self._waiters.get(uid)
        if waiter is not None and not waiter.done():
            waiter.set_result(message)


__all__ = [
    "AsyncKvClient",
    "KvClientError",
    "LiveFailoverController",
    "LiveKvNode",
]
