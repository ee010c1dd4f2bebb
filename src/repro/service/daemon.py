"""The long-running fleet-monitoring daemon.

The daemon is one process on a :class:`~repro.net.udp.UdpNetwork`, like
any live Neko component: the network's socket receives the whole fleet's
traffic, decodes it, learns each sender's address and hands the
datagrams addressed to the daemon (``address``, default ``"monitor"``)
to :meth:`MonitorDaemon._on_datagram`; anything else is a counted drop.
Datagrams are routed to per-endpoint monitors by their ``source``
address.  Three datagram kinds are understood:

* ``"heartbeat"`` — fanned out to the endpoint's thirty detector
  combinations through its MultiPlexer;
* ``"crash"`` / ``"restore"`` — instrumentation from the live crash
  injector (the real-network analogue of NekoStat's merged event log);
  they feed the streaming QoS accumulators so end-to-end ``T_D`` is
  measurable.

Unknown sources are auto-registered by default (a fleet can simply start
sending), or rejected when ``auto_register=False`` and endpoints are
managed explicitly via :meth:`MonitorDaemon.add_endpoint` / the HTTP API.

Shutdown is graceful with a bounded drain: intake stops first (no
datagram is dispatched once :meth:`~MonitorDaemon.stop` begins),
in-flight HTTP responses get up to ``drain`` seconds to finish on a live
scheduler, then the network is closed — every timer cancelled, the
socket released — so nothing can leak.

Observability: the daemon owns one
:class:`~repro.obs.hub.ObservabilityHub` wiring the optional
:class:`~repro.obs.trace.TraceRecorder` (span events: send → receive →
fanout → freshness → suspect/trust, plus crash/restore) and the optional
:class:`~repro.obs.history.WindowedQosStore` (windowed QoS queries, fed
by every transition plus periodic cumulative snapshots) into the
monitors.  ``/metrics`` is served by an
:class:`~repro.service.exporter.IncrementalExporter` subscribed to the
hub's dirty notifications; both sinks default to ``None`` at nil cost.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.drift import DriftMonitor
    from repro.obs.history import WindowedQosStore
    from repro.obs.trace import TraceRecorder

from repro.fd.combinations import combination_ids
from repro.neko.system import NekoSystem
from repro.net.message import Datagram
from repro.net.udp import UdpNetwork
from repro.obs.hub import ObservabilityHub
from repro.service.exporter import IncrementalExporter, render_status
from repro.service.registry import EndpointMonitor, EndpointRegistry
from repro.service.runtime import AsyncioScheduler
from repro.service.supervise import ComponentSupervisor, RestartPolicy


class MonitorDaemon:
    """A standing failure-detection service for a fleet of endpoints.

    Parameters
    ----------
    host, port:
        UDP bind address for heartbeat intake (port 0 = ephemeral).
    http_host, http_port:
        Bind address of the metrics/control HTTP endpoint; ``None``
        disables HTTP entirely.
    eta:
        Fleet-wide heartbeat period the emitters were configured with.
    detector_ids:
        Combination ids to run per endpoint (default: all thirty).
    initial_timeout:
        Grace period before an endpoint's first heartbeat (default
        ``10 * eta``, as in the batch runner).
    auto_register:
        Whether heartbeats from unknown sources create endpoints.
    address:
        The daemon's own address on its network: emitters send to it, and
        a datagram addressed to any other name is dropped and counted.
    log_capacity:
        Bounded per-endpoint event-log tail retained for debugging.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; enables
        heartbeat tracing (``None`` = disabled at nil cost).
    history:
        Optional :class:`~repro.obs.history.WindowedQosStore`; enables
        windowed QoS queries via :meth:`qos_window` / ``/qos``.
    snapshot_interval:
        Period, seconds, of the cumulative-QoS snapshots persisted into
        ``history`` (ignored without a history store; ``0`` disables).
    own_observability:
        Whether :meth:`stop` closes the tracer/history (default).  Pass
        ``False`` when the caller manages their lifecycle.
    drift_window:
        Rolling-window length, in heartbeats per endpoint, of the
        online :class:`~repro.obs.drift.DriftMonitor` (``0`` disables
        drift monitoring and the ``/drift`` route).
    drift_baseline:
        Optional baseline delay sample shared by every endpoint (e.g. a
        recorded calibration trace).  Without one each endpoint's first
        ``drift_window`` delays are frozen as its own baseline.
    drift_interval:
        Period, seconds, of the drift evaluations that refresh the
        ``fd_service_drift_*`` gauges and emit ``calibration-drift``
        spans (``/drift`` always evaluates fresh).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        http_host: str = "127.0.0.1",
        http_port: Optional[int] = 0,
        eta: float = 1.0,
        detector_ids: Optional[Sequence[str]] = None,
        initial_timeout: Optional[float] = None,
        auto_register: bool = True,
        address: str = "monitor",
        log_capacity: int = 4096,
        max_endpoints: int = 10_000,
        tracer: Optional["TraceRecorder"] = None,
        history: Optional["WindowedQosStore"] = None,
        snapshot_interval: float = 30.0,
        own_observability: bool = True,
        max_intake_rate: Optional[float] = None,
        supervise_interval: float = 5.0,
        drift_window: int = 0,
        drift_baseline: Optional[Sequence[float]] = None,
        drift_interval: float = 5.0,
    ) -> None:
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
        self._http_host = http_host
        self._http_port = http_port
        self.eta = float(eta)
        self.detector_ids = (
            list(detector_ids) if detector_ids is not None else combination_ids()
        )
        self.initial_timeout = (
            float(initial_timeout)
            if initial_timeout is not None
            else 10.0 * self.eta
        )
        self.auto_register = bool(auto_register)
        self.address = address
        #: The daemon's one socket and peer table, built here so that a
        #: chaos shim can attach before :meth:`start`.
        self.network = UdpNetwork(host=host, port=port, tracer=tracer)
        self.network.register(address, self._on_datagram)
        self._log_capacity = log_capacity
        self._max_endpoints = max_endpoints
        if snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {snapshot_interval!r}"
            )
        self.snapshot_interval = float(snapshot_interval)
        self.obs = ObservabilityHub(
            tracer=tracer, history=history, own=own_observability
        )

        self._scheduler: Optional[AsyncioScheduler] = None
        self._registry: Optional[EndpointRegistry] = None
        self._http_server = None  # MetricsHttpServer, created in start()
        self._exporter: Optional[IncrementalExporter] = None
        self._snapshot_handle = None
        self._started_at = 0.0
        self._running = False
        # Fleet-level counters (the network counts what it sends and the
        # datagrams that never reach dispatch).
        self.heartbeats_total = 0
        self._dispatch_drops = 0
        self.control_acks_sent = 0
        self.shed_datagrams = 0
        # Graceful degradation: bounded intake (token bucket) and
        # supervised auxiliary components (snapshot timer, HTTP server).
        if max_intake_rate is not None and max_intake_rate <= 0:
            raise ValueError(
                f"max_intake_rate must be > 0, got {max_intake_rate!r}"
            )
        self._max_intake_rate = (
            float(max_intake_rate) if max_intake_rate is not None else None
        )
        self._intake_tokens = (
            self._max_intake_rate if self._max_intake_rate is not None else 0.0
        )
        self._intake_stamp = 0.0
        if supervise_interval <= 0:
            raise ValueError(
                f"supervise_interval must be > 0, got {supervise_interval!r}"
            )
        self._supervise_interval = float(supervise_interval)
        self._snapshot_policy = RestartPolicy(seed=1)
        self._http_supervisor: Optional[ComponentSupervisor] = None
        self._http_bound_port: Optional[int] = None
        self.component_restarts: Dict[str, int] = {}
        # Online profile-drift monitoring (``/drift``; nil cost when off).
        if drift_window < 0:
            raise ValueError(f"drift_window must be >= 0, got {drift_window}")
        if drift_interval <= 0:
            raise ValueError(
                f"drift_interval must be > 0, got {drift_interval!r}"
            )
        self.drift_interval = float(drift_interval)
        self.drift: Optional["DriftMonitor"] = None
        if drift_window > 0:
            from repro.obs.drift import DriftMonitor

            self.drift = DriftMonitor(
                window_samples=drift_window,
                baseline=drift_baseline,
                baseline_samples=drift_window,
                # A shift below 2 % of the period cannot matter to a
                # time-out; never below a millisecond.
                min_effect=max(0.001, 0.02 * self.eta),
                tracer=tracer,
            )
        self._drift_handle = None
        self._drift_policy = RestartPolicy(seed=3)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the UDP intake (and HTTP endpoint) on the running loop.

        The socket is bound first: a taken port raises before anything
        else is built, and the start can be retried.
        """
        if self._running:
            raise RuntimeError("daemon already started")
        await self.network.open()
        self._scheduler = self.network.scheduler
        assert self._scheduler is not None
        self._registry = EndpointRegistry(
            NekoSystem(self._scheduler, self.network),  # type: ignore[arg-type]
            eta=self.eta,
            detector_ids=self.detector_ids,
            initial_timeout=self.initial_timeout,
            log_capacity=self._log_capacity,
            max_endpoints=self._max_endpoints,
            hub=self.obs,
            tracer=self.obs.tracer,
        )
        self._exporter = IncrementalExporter(self)
        self.obs.add_dirty_listener(self._exporter.on_change)
        if self._http_port is not None:
            from repro.service.http import MetricsHttpServer

            self._http_server = MetricsHttpServer(
                self, host=self._http_host, port=self._http_port
            )
            await self._http_server.start()
            self._http_bound_port = self._http_server.endpoint[1]
            self._http_supervisor = ComponentSupervisor(
                "http",
                self._scheduler,
                check=self._http_healthy,
                restart=self._restart_http,
                policy=RestartPolicy(seed=2),
                interval=self._supervise_interval,
                on_restart=self._count_component_restart,
            )
            self._http_supervisor.start()
        self._started_at = self._scheduler.now
        self._intake_stamp = self._started_at
        self._running = True
        if self.obs.history is not None and self.snapshot_interval > 0:
            self._arm_snapshot_timer()
        if self.drift is not None:
            self._arm_drift_timer()

    async def stop(self, *, drain: float = 1.0) -> None:
        """Graceful shutdown with bounded drain (idempotent).

        Stops dispatching first, gives in-flight HTTP handlers up to
        ``drain`` seconds, then quiesces every endpoint and closes the
        network, which cancels all outstanding timers.
        """
        if not self._running:
            return
        # From here on _on_datagram drops everything: no dispatch.
        self._running = False
        if self._http_supervisor is not None:
            self._http_supervisor.stop()
            self._http_supervisor = None
        if self._http_server is not None:
            await self._http_server.stop(drain=drain)
            self._http_server = None
        if self._snapshot_handle is not None:
            self._snapshot_handle.cancel()
            self._snapshot_handle = None
        if self._drift_handle is not None:
            self._drift_handle.cancel()
            self._drift_handle = None
        if self.obs.history is not None:
            # Final snapshot so the persisted trend covers the full run.
            self._take_snapshots()
        if self._registry is not None:
            self._registry.close()
        self.network.close()
        self.obs.close()
        # One loop turn so transport close callbacks run before we return.
        # fdlint: disable=clock-seed-taint (zero-delay event-loop yield, not time flow; the drain path is real-network only)
        await asyncio.sleep(0)

    @property
    def running(self) -> bool:
        """Whether the daemon is started and serving."""
        return self._running

    @property
    def started_at(self) -> float:
        """Scheduler time at which :meth:`start` completed."""
        return self._started_at

    @property
    def scheduler(self) -> AsyncioScheduler:
        """The daemon's scheduler (after :meth:`start`)."""
        if self._scheduler is None:
            raise RuntimeError("daemon is not started")
        return self._scheduler

    @property
    def registry(self) -> EndpointRegistry:
        """The endpoint registry (after :meth:`start`)."""
        if self._registry is None:
            raise RuntimeError("daemon is not started")
        return self._registry

    @property
    def exporter(self) -> IncrementalExporter:
        """The incremental Prometheus exporter (after :meth:`start`)."""
        if self._exporter is None:
            raise RuntimeError("daemon is not started")
        return self._exporter

    @property
    def udp_endpoint(self) -> Tuple[str, int]:
        """The bound (host, port) of the heartbeat intake socket."""
        return self.network.local_endpoint

    @property
    def http_endpoint(self) -> Optional[Tuple[str, int]]:
        """The bound (host, port) of the HTTP endpoint, if enabled."""
        if self._http_server is None:
            return None
        return self._http_server.endpoint

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------
    def add_endpoint(self, name: str) -> EndpointMonitor:
        """Register ``name`` and spin up its thirty detectors."""
        return self.registry.add(name)

    def remove_endpoint(self, name: str) -> EndpointMonitor:
        """Deregister ``name``, quiescing its detectors."""
        return self.registry.remove(name)

    # ------------------------------------------------------------------
    # Datagram intake
    # ------------------------------------------------------------------
    def _on_datagram(self, message: Datagram) -> None:
        """The network's receiver for :attr:`address`: one decoded datagram
        (raw bytes enter through ``network._on_datagram``)."""
        if not self._running:
            return
        rate = self._max_intake_rate
        if rate is not None:
            # Bounded intake, a token bucket with a one-second burst: past
            # the configured rate, shed load before paying for fan-out.
            # Shed datagrams are counted separately from drops.
            now = self._scheduler.now  # type: ignore[union-attr]
            elapsed = max(0.0, now - self._intake_stamp)
            self._intake_stamp = now
            self._intake_tokens = min(rate, self._intake_tokens + elapsed * rate)
            if self._intake_tokens < 1.0:
                self.shed_datagrams += 1
                return
            self._intake_tokens -= 1.0
        self.dispatch(message)

    def dispatch(self, message: Datagram) -> None:
        """Route one decoded datagram (also the socket-less test entry)."""
        registry = self._registry
        if registry is None:
            return
        monitor = registry.get(message.source)
        if message.kind == "heartbeat":
            if monitor is None:
                if not self.auto_register:
                    self._dispatch_drops += 1
                    return
                try:
                    monitor = registry.add(message.source)
                except (RuntimeError, ValueError):
                    self._dispatch_drops += 1
                    return
            self.heartbeats_total += 1
            tracer = self.obs.tracer
            if tracer is not None or self.drift is not None:
                now = self.scheduler.now
                delay = now - message.timestamp
                if tracer is not None:
                    tracer.emit(
                        now,
                        "receive",
                        message.source,
                        seq=message.seq,
                        delay=delay,
                    )
                if self.drift is not None:
                    self.drift.observe(
                        message.source, now, delay, seq=message.seq
                    )
            monitor.deliver(message)
        elif message.kind == "crash":
            if monitor is None:
                self._dispatch_drops += 1
                return
            monitor.record_crash()
            self._ack_control(message)
        elif message.kind == "restore":
            if monitor is None:
                self._dispatch_drops += 1
                return
            monitor.record_restore()
            self._ack_control(message)
        else:
            self._dispatch_drops += 1

    def _ack_control(self, message: Datagram) -> None:
        """Acknowledge a crash/restore control datagram.

        The monitors tolerate duplicate controls, so acking every copy —
        including retransmissions of an already-recorded one — is what
        stops the emitter's retransmit loop.  Controls without a ``ctl``
        sequence (pre-retransmission emitters) are acked too; the sender
        just ignores the ack.
        """
        ctl = None
        if isinstance(message.payload, dict):
            ctl = message.payload.get("ctl")
        sent = self.network.send(
            message.reply("control-ack", {"kind": message.kind, "ctl": ctl})
        )
        if sent:
            self.control_acks_sent += 1

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def dropped_datagrams(self) -> int:
        """Datagrams lost to the service: undecodable, addressed to another
        name, unroutable replies, and rejected by :meth:`dispatch`."""
        network = self.network
        return (
            network.dropped_datagrams + network.unroutable + self._dispatch_drops
        )

    @property
    def sent_datagrams(self) -> int:
        """Datagrams the daemon handed to its socket."""
        return self.network.sent_datagrams

    @property
    def send_errors_total(self) -> int:
        """Datagrams the daemon's socket refused."""
        return self.network.send_errors

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def inferred_restores_total(self) -> int:
        """Restores inferred from heartbeat resumption, fleet-wide."""
        if self._registry is None:
            return 0
        return sum(monitor.inferred_restores for monitor in self._registry)

    def _arm_snapshot_timer(self, delay: Optional[float] = None) -> None:
        self._snapshot_handle = self.scheduler.schedule(
            delay if delay is not None else self.snapshot_interval,
            self._snapshot_tick,
            name="obs:snapshot",
        )

    def _snapshot_tick(self) -> None:
        try:
            self._take_snapshots()
        except Exception:
            # Supervised restart: the snapshot loop must outlive a sick
            # history store.  Re-arm on the jittered backoff schedule.
            self._count_component_restart("snapshot")
            if self._running:
                self._arm_snapshot_timer(self._snapshot_policy.next_delay())
            return
        self._snapshot_policy.reset()
        if self._running:
            self._arm_snapshot_timer()

    def _arm_drift_timer(self, delay: Optional[float] = None) -> None:
        self._drift_handle = self.scheduler.schedule(
            delay if delay is not None else self.drift_interval,
            self._drift_tick,
            name="obs:drift",
        )

    def _drift_tick(self) -> None:
        try:
            assert self.drift is not None
            self.drift.evaluate(self.scheduler.now)
        except Exception:
            # Supervised like the snapshot loop: a sick evaluation must
            # not end drift monitoring for the rest of the run.
            self._count_component_restart("drift")
            if self._running:
                self._arm_drift_timer(self._drift_policy.next_delay())
            return
        self._drift_policy.reset()
        if self._running:
            self._arm_drift_timer()

    def _count_component_restart(self, name: str) -> None:
        self.component_restarts[name] = self.component_restarts.get(name, 0) + 1

    def _http_healthy(self) -> bool:
        return self._http_server is not None and self._http_server.serving

    async def _restart_http(self) -> None:
        """Rebind the HTTP endpoint on its previous port (supervised)."""
        from repro.service.http import MetricsHttpServer

        old = self._http_server
        self._http_server = None
        if old is not None:
            await old.stop(drain=0.0)
        server = MetricsHttpServer(
            self, host=self._http_host, port=self._http_bound_port or 0
        )
        await server.start()
        self._http_server = server
        self._http_bound_port = server.endpoint[1]

    # fdlint: disable=async-blocking-reach (accepted choke point: one buffered sqlite commit per snapshot interval (seconds apart, sub-ms measured in BENCH_obs.json), supervised with jittered backoff; offloading to an executor would break the SimScheduler determinism tests rely on)
    def _take_snapshots(self) -> None:
        """Persist one cumulative-QoS snapshot per series, then prune."""
        history = self.obs.history
        if history is None or history.closed or self._registry is None:
            return
        now = self.scheduler.now
        for monitor in self._registry:
            for detector_id, accumulator in monitor.accumulators.items():
                history.record_snapshot(
                    monitor.name, detector_id, now, accumulator.snapshot(now)
                )
        history.prune(now)
        history.flush()

    def qos_window(
        self,
        window: float,
        *,
        endpoint: Optional[str] = None,
        detector: Optional[str] = None,
    ) -> Dict[str, Any]:
        """QoS over the trailing ``window`` seconds (the ``/qos`` payload).

        Requires a history store; raises :class:`RuntimeError` without
        one.  The result agrees with batch ``extract_qos`` over the same
        slice of the transition log (property-tested).
        """
        history = self.obs.history
        if history is None:
            raise RuntimeError("windowed QoS requires a history store")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        end = self.scheduler.now
        start = max(0.0, end - window)
        if endpoint is not None:
            names = [endpoint]
        else:
            names = self.registry.names()
        detector_ids: Sequence[str] = (
            [detector] if detector is not None else self.detector_ids
        )
        endpoints: Dict[str, Any] = {}
        for name in names:
            monitor = self.registry.get(name)
            if monitor is None:
                continue
            ids = [d for d in detector_ids if d in monitor.accumulators]
            endpoints[name] = {
                window.detector: window.to_dict()
                for window in history.query_endpoint(name, ids, start, end)
            }
        return {
            "window_seconds": float(window),
            "start": start,
            "end": end,
            "degraded": bool(getattr(history, "degraded", False)),
            "endpoints": endpoints,
        }

    def trace_tail(
        self,
        limit: int = 100,
        *,
        endpoint: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The most recent trace events (the ``/trace`` payload).

        ``endpoint``/``kind`` scope the tail before the limit applies
        (see :meth:`TraceRecorder.tail`).  Requires a trace recorder;
        raises :class:`RuntimeError` without one.
        """
        tracer = self.obs.tracer
        if tracer is None:
            raise RuntimeError("tracing is not enabled")
        return {
            "events": tracer.tail(limit, endpoint=endpoint, kind=kind),
            "recorder": tracer.stats(),
        }

    def drift_report(self) -> Dict[str, Any]:
        """A fresh drift evaluation (the ``/drift`` payload).

        Requires drift monitoring (``drift_window > 0``); raises
        :class:`RuntimeError` without it.
        """
        if self.drift is None:
            raise RuntimeError("drift monitoring is not enabled")
        return self.drift.evaluate(self.scheduler.now)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The JSON-able status document (also feeds ``/metrics``)."""
        now = self.scheduler.now
        endpoints: Dict[str, Any] = {}
        for monitor in self.registry:
            suspecting = monitor.suspecting()
            endpoints[monitor.name] = {
                "heartbeats": monitor.heartbeats,
                "crashes": monitor.crashes,
                "crashed": monitor.crashed,
                "qos": {
                    detector_id: (qos, suspecting[detector_id])
                    for detector_id, qos in monitor.snapshot(now).items()
                },
            }
        return render_status(
            uptime_seconds=max(0.0, now - self._started_at),
            heartbeats_total=self.heartbeats_total,
            dropped_datagrams_total=self.dropped_datagrams,
            endpoints=endpoints,
        )

    def metrics_text(self) -> str:
        """The Prometheus exposition (incremental: cached QoS body plus a
        fresh volatile head; see :class:`IncrementalExporter`)."""
        if self._exporter is None:
            raise RuntimeError("daemon is not started")
        return self._exporter.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self._registry) if self._registry is not None else 0
        return f"MonitorDaemon(endpoints={n}, running={self._running})"


__all__ = ["MonitorDaemon"]
