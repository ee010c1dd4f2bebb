"""Per-endpoint monitoring state and the runtime endpoint registry.

Each registered endpoint gets the paper's full monitor-side architecture
— a :class:`~repro.fd.multiplexer.MultiPlexer` over the
:class:`~repro.fd.detector.PushFailureDetector` layer that holds every
(predictor, margin) combination on one timer — plus one streaming
:class:`~repro.nekostat.metrics.OnlineQosAccumulator` per detector, fed
by the detectors' ``on_transition`` hooks and by crash/restore
notifications from the live crash injector.  Endpoints can be added and
removed while the daemon runs.

Crash-oracle hardening: UDP may lose a ``restore`` control datagram,
which would leave the oracle stuck in the crashed state and silently
poison every later QoS sample.  Because emitters keep advancing their
sequence numbers *through* crash periods (SimCrash semantics — beats are
suppressed, not renumbered), any heartbeat whose sequence number exceeds
everything seen before the crash proves the endpoint is beating again:
the monitor then infers the lost ``restore`` itself.  Stale in-flight
heartbeats from before the crash can never trigger the inference.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.neko.system import NekoSystem
    from repro.obs.hub import ObservabilityHub
    from repro.obs.trace import TraceRecorder

from repro.fd.detector import PushFailureDetector
from repro.fd.multiplexer import MultiPlexer
from repro.neko.layer import ProtocolStack
from repro.neko.process import NekoProcess
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.metrics import DetectorQos, OnlineQosAccumulator
from repro.net.message import Datagram
from repro.service.runtime import BoundedEventLog


class EndpointMonitor:
    """The live monitor for one heartbeat endpoint.

    Hosts an unchanged simulator-grade protocol stack (MultiPlexer over
    the detector bank) on the asyncio scheduler, and keeps one online
    QoS accumulator per detector combination.  Its process is not
    registered on the system's network: heartbeats reach it only through
    :meth:`deliver`, never by a datagram addressed to ``monitor[name]``.
    Its bounded ``event_log`` also holds the endpoint's crashes and
    restores: until it wraps, ``extract_qos`` over it from
    ``registered_at`` to ``t`` equals the accumulators at ``t``.
    """

    def __init__(
        self,
        name: str,
        system: "NekoSystem",
        *,
        eta: float,
        detector_ids: Sequence[str],
        initial_timeout: float,
        log_capacity: int = 4096,
        hub: Optional["ObservabilityHub"] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        if not name:
            raise ValueError("endpoint name must be non-empty")
        self.name = name
        self._scheduler = system.sim
        self._hub = hub
        self._tracer = tracer
        self.registered_at = self._scheduler.now
        self.event_log = BoundedEventLog(log_capacity)
        # A loop, not a comprehension (a call), pays for the span's call.
        self.accumulators: Dict[str, OnlineQosAccumulator] = {}
        for detector_id in detector_ids:
            self.accumulators[detector_id] = OnlineQosAccumulator(
                detector_id, start_time=self.registered_at
            )
        if tracer is not None:  # the accumulators' window opens here
            tracer.emit_batch(
                self.registered_at, "register", name, (("", None, None, None),)
            )
        self.detectors = PushFailureDetector(
            name,
            eta,
            self.event_log,
            detector_ids,
            initial_timeout=initial_timeout,
            on_transition_factory=self._transition_hook,
            tracer=tracer,
        )
        self.multiplexer = MultiPlexer([self.detectors], tracer=tracer)
        self.process = NekoProcess(
            system,
            f"monitor[{name}]",
            ProtocolStack([self.multiplexer]),
        )
        self.process.start()
        # Live counters.
        self.heartbeats = 0
        self.crashes = 0
        self.inferred_restores = 0
        self._crashed = False
        self._closed = False
        self._seq_high = -1  # highest heartbeat seq seen from this endpoint
        self._crash_seq_high = -1  # value of _seq_high when the crash began

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def deliver(self, message: Datagram) -> None:
        """Fan one heartbeat out to every detector combination."""
        if self._closed:
            return
        self.heartbeats += 1
        if message.seq is not None:
            if self._crashed and message.seq > self._crash_seq_high:
                # Beating resumed but the restore datagram never arrived:
                # infer it now, before the detectors see this heartbeat,
                # so the accumulators order restore before the trust
                # transitions it causes.
                self.inferred_restores += 1
                self.record_restore()
            if message.seq > self._seq_high:
                self._seq_high = message.seq
        self.process.receive_from_network(message)

    def record_crash(self) -> None:
        """The endpoint announced (or was observed) crashing now.

        Duplicate notifications — UDP may duplicate control datagrams —
        are ignored.
        """
        if self._closed or self._crashed:
            return
        self._crashed = True
        self.crashes += 1
        self._crash_seq_high = self._seq_high
        t = self._scheduler.now
        self.event_log.append(StatEvent(t, EventKind.CRASH, self.name))
        for accumulator in self.accumulators.values():
            accumulator.observe_crash(t)
        if self._tracer is not None:
            self._tracer.emit(t, "crash", self.name)
        if self._hub is not None:
            self._hub.on_crash(self.name, t)

    def record_restore(self) -> None:
        """The endpoint announced its restoration now (or it was inferred
        from heartbeat resumption — see the module docstring)."""
        if self._closed or not self._crashed:
            return
        self._crashed = False
        t = self._scheduler.now
        self.event_log.append(StatEvent(t, EventKind.RESTORE, self.name))
        for accumulator in self.accumulators.values():
            accumulator.observe_restore(t)
        if self._tracer is not None:
            self._tracer.emit(t, "restore", self.name)
        if self._hub is not None:
            self._hub.on_restore(self.name, t)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the endpoint is currently known to be crashed."""
        return self._crashed

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def suspecting(self) -> Dict[str, bool]:
        """Current verdict of every detector combination."""
        return {
            detector_id: detector.suspecting
            for detector_id, detector in self.detectors.items()
        }

    def snapshot(self, now: Optional[float] = None) -> Dict[str, DetectorQos]:
        """Per-detector QoS so far (open intervals closed at ``now``)."""
        if now is None:
            now = self._scheduler.now
        return {
            detector_id: accumulator.snapshot(now)
            for detector_id, accumulator in self.accumulators.items()
        }

    def _transition_hook(self, detector_id: str) -> Callable[[bool], None]:
        accumulator = self.accumulators[detector_id]
        event_log = self.event_log

        def on_transition(suspecting: bool) -> None:
            # The detector logged the transition just now: its time is the
            # span's too, so trace, accumulator and history share it.
            now = event_log[-1].time
            accumulator.observe_transition(suspecting, now)
            if self._hub is not None:
                self._hub.on_detector_transition(
                    self.name, detector_id, suspecting, now
                )

        return on_transition

    def close(self) -> None:
        """Quiesce: cancel every detector's pending expiry (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.detectors.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        return (
            f"EndpointMonitor({self.name!r}, {state}, "
            f"detectors={len(self.detectors)}, heartbeats={self.heartbeats})"
        )


class EndpointRegistry:
    """The daemon's mutable endpoint set: add/remove while running."""

    def __init__(
        self,
        system: "NekoSystem",
        *,
        eta: float,
        detector_ids: Sequence[str],
        initial_timeout: float,
        log_capacity: int = 4096,
        max_endpoints: int = 10_000,
        hub: Optional["ObservabilityHub"] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        self._system = system
        self._eta = eta
        self._detector_ids = list(detector_ids)
        self._initial_timeout = initial_timeout
        self._log_capacity = log_capacity
        self._max_endpoints = max_endpoints
        self._hub = hub
        self._tracer = tracer
        self._endpoints: Dict[str, EndpointMonitor] = {}

    def add(self, name: str) -> EndpointMonitor:
        """Register a new endpoint; raises if the name is taken."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        if len(self._endpoints) >= self._max_endpoints:
            raise RuntimeError(
                f"endpoint limit reached ({self._max_endpoints}); "
                "remove endpoints before adding more"
            )
        monitor = EndpointMonitor(
            name,
            self._system,
            eta=self._eta,
            detector_ids=self._detector_ids,
            initial_timeout=self._initial_timeout,
            log_capacity=self._log_capacity,
            hub=self._hub,
            tracer=self._tracer,
        )
        self._endpoints[name] = monitor
        if self._hub is not None:
            self._hub.on_endpoint_added(name)
        return monitor

    def remove(self, name: str) -> EndpointMonitor:
        """Deregister an endpoint, quiescing its detectors; returns it."""
        try:
            monitor = self._endpoints.pop(name)
        except KeyError:
            raise KeyError(f"endpoint {name!r} is not registered") from None
        monitor.close()
        if self._hub is not None:
            self._hub.on_endpoint_removed(name)
        return monitor

    def get(self, name: str) -> Optional[EndpointMonitor]:
        """The monitor for ``name``, or ``None``."""
        return self._endpoints.get(name)

    def names(self) -> List[str]:
        """Registered endpoint names, sorted."""
        return sorted(self._endpoints)

    def close(self) -> None:
        """Quiesce every endpoint (daemon shutdown)."""
        for monitor in self._endpoints.values():
            monitor.close()

    def __len__(self) -> int:
        return len(self._endpoints)

    def __iter__(self) -> Iterator[EndpointMonitor]:
        return iter(list(self._endpoints.values()))

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints


__all__ = ["EndpointMonitor", "EndpointRegistry"]
