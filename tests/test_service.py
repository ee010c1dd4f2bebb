"""Tests for the live fleet-monitoring service (`repro.service`).

Unit tests exercise the asyncio scheduler, the bounded log, the metric
renderers, the HTTP router and the endpoint registry without any
sockets.  The integration test at the bottom runs the acceptance
scenario: a daemon tracking 50 heartbeat endpoints over real loopback
UDP with all thirty detector combinations live, surviving an injected
crash/recovery cycle and shutting down without leaking threads, sockets
or timers.

No external timeout plugin is available, so every test that touches the
network wraps its event-loop body in ``asyncio.wait_for``.
"""

import asyncio
import json
import threading

import pytest

from repro.fd.combinations import combination_ids
from repro.fd.heartbeat import Heartbeater
from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.metrics import DetectorQos
from repro.net.message import Datagram
from repro.net.udp import encode_datagram
from repro.service import (
    AsyncioScheduler,
    BoundedEventLog,
    HeartbeatFleet,
    LiveCrash,
    MetricsHttpServer,
    MonitorDaemon,
    render_prometheus,
    render_status,
)
from repro.service.registry import EndpointRegistry
from repro.neko.system import NekoSystem

from tests.conftest import RecordingNetwork, socketless_emitter

NETWORK_TIMEOUT = 60.0


def run(coroutine, timeout=NETWORK_TIMEOUT):
    """Run an async test body with a hard timeout (no plugin needed)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


# ----------------------------------------------------------------------
# Runtime substrate
# ----------------------------------------------------------------------
class TestAsyncioScheduler:
    def test_now_is_epoch_anchored_and_advances(self):
        async def main():
            scheduler = AsyncioScheduler()
            first = scheduler.now
            assert first > 1_000_000_000  # UNIX-epoch seconds, not loop time
            await asyncio.sleep(0.02)
            assert scheduler.now > first

        run(main())

    def test_schedule_fires_in_order(self):
        async def main():
            scheduler = AsyncioScheduler()
            fired = []
            scheduler.schedule(0.04, lambda: fired.append("late"))
            scheduler.schedule(0.01, lambda: fired.append("early"))
            await asyncio.sleep(0.15)
            assert fired == ["early", "late"]
            assert scheduler.outstanding == 0

        run(main())

    def test_cancel_prevents_firing(self):
        async def main():
            scheduler = AsyncioScheduler()
            fired = []
            handle = scheduler.schedule(0.02, lambda: fired.append(True))
            assert not handle.cancelled
            handle.cancel()
            assert handle.cancelled
            await asyncio.sleep(0.1)
            assert fired == []
            assert scheduler.outstanding == 0

        run(main())

    def test_close_cancels_everything_and_rejects_new_work(self):
        async def main():
            scheduler = AsyncioScheduler()
            fired = []
            for _ in range(5):
                scheduler.schedule(0.02, lambda: fired.append(True))
            assert scheduler.outstanding == 5
            scheduler.close()
            assert scheduler.closed
            assert scheduler.outstanding == 0
            with pytest.raises(RuntimeError):
                scheduler.schedule(0.01, lambda: None)
            await asyncio.sleep(0.1)
            assert fired == []

        run(main())


class TestBoundedEventLog:
    def test_keeps_only_the_tail(self):
        log = BoundedEventLog(capacity=3)
        for i in range(10):
            log.append(
                StatEvent(time=float(i), kind=EventKind.SENT, site="q", seq=i)
            )
        assert len(log) == 3
        assert [event.seq for event in log] == [7, 8, 9]
        assert log.capacity == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BoundedEventLog(capacity=0)


# ----------------------------------------------------------------------
# Exporter
# ----------------------------------------------------------------------
def _status_fixture():
    qos = DetectorQos(
        detector="Last+CI_med",
        observation_time=100.0,
        up_time=95.0,
        suspected_up_time=1.0,
        td_samples=[0.4, 0.6],
        undetected_crashes=1,
    )
    empty = DetectorQos(detector="Mean+JAC_low", observation_time=100.0, up_time=100.0)
    return render_status(
        uptime_seconds=100.0,
        heartbeats_total=1234,
        dropped_datagrams_total=5,
        endpoints={
            'node"1': {
                "heartbeats": 617,
                "crashes": 2,
                "crashed": True,
                "qos": {
                    "Last+CI_med": (qos, True),
                    "Mean+JAC_low": (empty, False),
                },
            },
        },
    )


class TestExporter:
    def test_status_document_shape(self):
        status = _status_fixture()
        assert status["heartbeats_total"] == 1234
        entry = status["endpoints"]['node"1']
        assert entry["crashed"] is True
        detectors = entry["detectors"]
        assert detectors["Last+CI_med"]["fd_qos_detection_time_seconds"] == (
            pytest.approx(0.5)
        )
        assert detectors["Last+CI_med"]["detection_samples"] == 2
        assert detectors["Last+CI_med"]["fd_suspecting"] == 1
        assert detectors["Mean+JAC_low"]["fd_qos_detection_time_seconds"] is None
        # The document must round-trip through JSON (the /status route).
        json.dumps(status)

    def test_prometheus_rendering(self):
        text = render_prometheus(_status_fixture())
        assert "# TYPE fd_qos_detection_time_seconds gauge" in text
        assert "# TYPE fd_service_heartbeats_total counter" in text
        assert "fd_service_endpoints 1" in text
        # Label values are escaped, samples carry both labels.
        assert (
            'fd_qos_detection_time_seconds{endpoint="node\\"1",'
            'detector="Last+CI_med"} 0.5' in text
        )
        # Series with no observation render as NaN, not 0.
        assert (
            'fd_qos_detection_time_seconds{endpoint="node\\"1",'
            'detector="Mean+JAC_low"} NaN' in text
        )
        assert 'fd_endpoint_crashed{endpoint="node\\"1"} 1' in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# HTTP routing (no sockets: _route is synchronous)
# ----------------------------------------------------------------------
class _StubDaemon:
    def __init__(self):
        self.endpoints = {"existing"}
        self.full = False

    def metrics_text(self):
        return "fd_service_endpoints 1\n"

    def status(self):
        return {"endpoints": sorted(self.endpoints)}

    def add_endpoint(self, name):
        if self.full:
            raise RuntimeError("endpoint limit reached")
        if name in self.endpoints:
            raise ValueError("duplicate")
        self.endpoints.add(name)

    def remove_endpoint(self, name):
        if name not in self.endpoints:
            raise KeyError(name)
        self.endpoints.discard(name)


class TestHttpRouting:
    def _server(self):
        return MetricsHttpServer(_StubDaemon())

    def test_metrics_and_status_and_healthz(self):
        server = self._server()
        status, content_type, body = server._route("GET", "/metrics", b"")
        assert status == 200 and "0.0.4" in content_type
        assert b"fd_service_endpoints" in body
        status, content_type, body = server._route("GET", "/status?x=1", b"")
        assert status == 200
        assert json.loads(body)["endpoints"] == ["existing"]
        assert server._route("GET", "/healthz", b"")[0] == 200

    def test_endpoint_registration_routes(self):
        server = self._server()
        daemon = server._daemon
        assert server._route("POST", "/endpoints", b'{"name": "n1"}')[0] == 201
        assert "n1" in daemon.endpoints
        assert server._route("POST", "/endpoints", b'{"name": "n1"}')[0] == 409
        assert server._route("POST", "/endpoints", b"not json")[0] == 400
        assert server._route("POST", "/endpoints", b'{"name": ""}')[0] == 400
        daemon.full = True
        assert server._route("POST", "/endpoints", b'{"name": "n2"}')[0] == 503
        assert server._route("DELETE", "/endpoints/n1", b"")[0] == 200
        assert "n1" not in daemon.endpoints
        assert server._route("DELETE", "/endpoints/ghost", b"")[0] == 404

    def test_unknown_routes_and_methods(self):
        server = self._server()
        assert server._route("GET", "/nope", b"")[0] == 404
        assert server._route("PUT", "/metrics", b"")[0] == 405
        assert server._route("GET", "/endpoints", b"")[0] == 405


# ----------------------------------------------------------------------
# Registry (scheduler-backed, socket-less)
# ----------------------------------------------------------------------
class TestEndpointRegistry:
    def _registry(self, max_endpoints=10):
        scheduler = AsyncioScheduler()
        system = NekoSystem(scheduler, RecordingNetwork())
        return scheduler, EndpointRegistry(
            system,
            eta=0.5,
            detector_ids=["Last+CI_med", "Mean+JAC_low"],
            initial_timeout=5.0,
            max_endpoints=max_endpoints,
        )

    def test_add_remove_lifecycle(self):
        async def main():
            scheduler, registry = self._registry()
            monitor = registry.add("ep1")
            assert len(registry) == 1 and "ep1" in registry
            assert sorted(monitor.detectors) == ["Last+CI_med", "Mean+JAC_low"]
            # Registration armed the endpoint's one timer (fused bank).
            assert scheduler.outstanding == 1
            with pytest.raises(ValueError):
                registry.add("ep1")
            removed = registry.remove("ep1")
            assert removed is monitor and removed.closed
            assert scheduler.outstanding == 0  # detectors quiesced
            with pytest.raises(KeyError):
                registry.remove("ep1")
            scheduler.close()

        run(main())

    def test_endpoint_limit(self):
        async def main():
            scheduler, registry = self._registry(max_endpoints=2)
            registry.add("a")
            registry.add("b")
            with pytest.raises(RuntimeError):
                registry.add("c")
            registry.close()
            scheduler.close()

        run(main())

    def test_crash_notifications_are_idempotent(self):
        async def main():
            scheduler, registry = self._registry()
            monitor = registry.add("ep1")
            monitor.record_crash()
            monitor.record_crash()  # duplicated control datagram
            assert monitor.crashes == 1 and monitor.crashed
            monitor.record_restore()
            monitor.record_restore()
            assert not monitor.crashed
            qos = monitor.snapshot()["Last+CI_med"]
            # One crash window, no detector transition yet: undetected.
            assert qos.undetected_crashes == 1
            registry.close()
            scheduler.close()

        run(main())

    def test_closed_monitor_ignores_traffic(self):
        async def main():
            scheduler, registry = self._registry()
            monitor = registry.remove_name = registry.add("ep1")
            registry.remove("ep1")
            monitor.deliver(
                Datagram(source="ep1", destination="monitor", kind="heartbeat",
                         seq=0, timestamp=scheduler.now)
            )
            monitor.record_crash()
            assert monitor.heartbeats == 0 and monitor.crashes == 0
            scheduler.close()

        run(main())


# ----------------------------------------------------------------------
# Daemon dispatch (binds an ephemeral loopback socket, no traffic)
# ----------------------------------------------------------------------
@pytest.mark.network
class TestDaemonDispatch:
    def test_routing_and_drop_accounting(self):
        async def main():
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.5,
                detector_ids=["Last+CI_med"], auto_register=True,
            )
            await daemon.start()
            try:
                now = daemon.scheduler.now
                hb = Datagram(source="ep1", destination="monitor",
                              kind="heartbeat", seq=0, timestamp=now)
                daemon.dispatch(hb)  # auto-registers
                assert daemon.registry.names() == ["ep1"]
                assert daemon.heartbeats_total == 1
                daemon.dispatch(Datagram(source="ep1", destination="monitor",
                                         kind="crash"))
                assert daemon.registry.get("ep1").crashed
                daemon.dispatch(Datagram(source="ep1", destination="monitor",
                                         kind="restore"))
                assert not daemon.registry.get("ep1").crashed
                # Unknown kinds and control messages for unknown sources drop.
                dropped = daemon.dropped_datagrams
                daemon.dispatch(Datagram(source="ep1", destination="monitor",
                                         kind="gossip"))
                daemon.dispatch(Datagram(source="ghost", destination="monitor",
                                         kind="crash"))
                daemon.network._on_datagram(b"not json at all", ("127.0.0.1", 1))
                assert daemon.dropped_datagrams == dropped + 3
            finally:
                await daemon.stop()
            assert daemon.scheduler.outstanding == 0

        run(main())

    def test_auto_register_disabled_drops_unknown_sources(self):
        async def main():
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.5,
                detector_ids=["Last+CI_med"], auto_register=False,
            )
            await daemon.start()
            try:
                daemon.dispatch(Datagram(source="ep1", destination="monitor",
                                         kind="heartbeat", seq=0,
                                         timestamp=daemon.scheduler.now))
                assert len(daemon.registry) == 0
                assert daemon.dropped_datagrams == 1
                daemon.add_endpoint("ep1")
                daemon.dispatch(Datagram(source="ep1", destination="monitor",
                                         kind="heartbeat", seq=1,
                                         timestamp=daemon.scheduler.now))
                assert daemon.heartbeats_total == 1
            finally:
                await daemon.stop()

        run(main())

    def test_heartbeat_without_seq_or_timestamp_is_dropped_at_intake(self):
        """The wire format admits ``null`` for both fields; such a heartbeat
        is counted as a drop before it can register its source."""
        async def main():
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"],
                                   auto_register=True)
            await daemon.start()
            try:
                dropped = daemon.dropped_datagrams
                for raw in (
                    b'{"source":"ep1","destination":"monitor",'
                    b'"kind":"heartbeat","seq":null,"timestamp":null}',
                    b'{"source":"ep1","destination":"monitor",'
                    b'"kind":"heartbeat","seq":3}',
                    b'{"source":"ep1","destination":"monitor",'
                    b'"kind":"heartbeat","timestamp":1.5}',
                ):
                    daemon.network._on_datagram(raw, ("127.0.0.1", 9))
                    dropped += 1
                    assert len(daemon.registry) == 0
                    assert daemon.heartbeats_total == 0
                    assert daemon.dropped_datagrams == dropped
            finally:
                await daemon.stop()

        run(main())

    def test_stop_is_idempotent(self):
        async def main():
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"])
            await daemon.start()
            await daemon.stop()
            await daemon.stop()
            assert not daemon.running

        run(main())

    def test_every_datagram_is_counted_exactly_once(self):
        """Raw bytes straight into the network's intake (no traffic): each
        lands in exactly one of heartbeats, control acks, drops or sheds."""
        async def main():
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"],
                                   max_intake_rate=4.0)
            await daemon.start()
            try:
                now = daemon.scheduler.now

                def wire(source, kind, destination="monitor", **fields):
                    return encode_datagram(Datagram(
                        source=source, destination=destination, kind=kind,
                        **fields,
                    ))

                script = [
                    wire("ep", "heartbeat", seq=0, timestamp=now),
                    b"not json at all",
                    wire("ep", "heartbeat", "elsewhere", seq=1, timestamp=now),
                    # The bank's own process name is not an address.
                    wire("ep", "heartbeat", "monitor[ep]", seq=2, timestamp=now),
                    wire("ghost", "crash"),
                    wire("ep", "gossip"),
                    wire("ep", "crash", payload={"ctl": 1}),
                    # The fifth datagram for the daemon within a second of
                    # a four-token bucket.
                    wire("ep", "heartbeat", seq=3, timestamp=now),
                ]
                for raw in script:
                    # Port 9 (discard): the crash's ack goes nowhere.
                    daemon.network._on_datagram(raw, ("127.0.0.1", 9))
                assert daemon.heartbeats_total == 1
                assert daemon.control_acks_sent == 1
                assert daemon.dropped_datagrams == 5
                assert daemon.shed_datagrams == 1
                assert daemon.registry.get("ep").heartbeats == 1
            finally:
                await daemon.stop()

        run(main())

    def test_no_dispatch_once_stop_begins(self):
        async def main():
            daemon = MonitorDaemon(port=0, http_port=0, eta=0.5,
                                   detector_ids=["Last+CI_med"])
            await daemon.start()
            # An HTTP request still in flight holds stop() in its drain.
            _reader, writer = await asyncio.open_connection(
                *daemon.http_endpoint
            )
            await asyncio.sleep(0.05)  # accepted
            stopping = asyncio.ensure_future(daemon.stop(drain=0.5))
            await asyncio.sleep(0.05)  # stop() is now inside the drain
            assert not stopping.done() and not daemon.scheduler.closed
            daemon.network._on_datagram(
                encode_datagram(Datagram(
                    source="late", destination="monitor", kind="heartbeat",
                    seq=0, timestamp=daemon.scheduler.now,
                )),
                ("127.0.0.1", 9),
            )
            await stopping
            writer.close()
            assert daemon.heartbeats_total == 0
            assert daemon.registry.get("late") is None
            assert daemon.scheduler.outstanding == 0

        run(main())

    def test_failed_start_can_be_retried(self):
        async def main():
            loop = asyncio.get_running_loop()
            holder, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
            )
            port = holder.get_extra_info("sockname")[1]
            daemon = MonitorDaemon(port=port, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"])
            with pytest.raises(OSError):
                await daemon.start()
            assert not daemon.running
            with pytest.raises(RuntimeError):
                daemon.registry  # the failed bind built nothing
            holder.close()
            await asyncio.sleep(0)
            await daemon.start()
            try:
                assert daemon.udp_endpoint == ("127.0.0.1", port)
                # One exporter, subscribed once.
                assert len(daemon.obs._dirty_listeners) == 1
            finally:
                await daemon.stop()

        run(main())


# ----------------------------------------------------------------------
# Emitter semantics: Heartbeater / LiveCrash on the asyncio scheduler
# (socket-less: the network is a list)
# ----------------------------------------------------------------------
class TestHeartbeatEmitter:
    def test_first_heartbeat_is_seq_zero(self):
        """With the default ``start`` the first tick is anchored when the
        timer starts, so real time passing since construction cannot
        make tick 0 look missed."""
        async def main():
            scheduler = AsyncioScheduler()
            sent = socketless_emitter(
                scheduler, "q", [Heartbeater("monitor", 0.02), LiveCrash("monitor")]
            )
            await asyncio.sleep(0.05)
            scheduler.close()
            seqs = [m.seq for m in sent if m.kind == "heartbeat"]
            assert seqs and seqs[0] == 0

        run(main())

    def test_seq_advances_across_crash(self):
        async def main():
            scheduler = AsyncioScheduler()
            heartbeater, crash = Heartbeater("monitor", 0.02), LiveCrash("monitor")
            sent = socketless_emitter(scheduler, "q", [heartbeater, crash])
            await asyncio.sleep(0.08)
            crash.crash()
            await asyncio.sleep(0.06)
            crash.restore()
            await asyncio.sleep(0.06)
            scheduler.close()
            kinds = [m.kind for m in sent]
            assert "crash" in kinds and "restore" in kinds
            beats = [m for m in sent if m.kind == "heartbeat"]
            assert crash.dropped_messages >= 1
            assert len(beats) == heartbeater.sent - crash.dropped_messages
            # SimCrash semantics: numbering keeps advancing while silent,
            # so the post-restore seq jumps over the suppressed beats.
            seqs = [m.seq for m in beats]
            assert seqs == sorted(seqs)
            assert max(seqs) >= len(beats)  # gap proves suppression

        run(main())

    def test_injector_drives_crash_cycles(self):
        async def main():
            import numpy as np

            scheduler = AsyncioScheduler()
            crash = LiveCrash(
                "monitor", mttc=0.06, ttr=0.02, rng=np.random.default_rng(7)
            )
            sent = socketless_emitter(
                scheduler, "q", [Heartbeater("monitor", 0.05), crash]
            )
            await asyncio.sleep(0.5)
            scheduler.close()
            assert crash.crash_count >= 2
            # Every injected CRASH/RESTORE was announced, in order.
            controls = [m for m in sent if m.kind != "heartbeat"][:4]
            assert [m.kind for m in controls] == ["crash", "restore"] * 2
            assert [m.payload["ctl"] for m in controls] == [1, 2, 3, 4]

        run(main())

    def test_loop_stall_skips_ticks_instead_of_sending_a_backlog(self):
        """The simulator's PeriodicTimer semantics win on the real clock
        too: ticks that elapsed while the loop was blocked are skipped —
        a sequence gap, as across a crash — not sent late in a burst."""
        async def main():
            import time

            scheduler = AsyncioScheduler()
            eta = 0.02
            sent = socketless_emitter(
                scheduler, "q", [Heartbeater("monitor", eta), LiveCrash("monitor")]
            )
            await asyncio.sleep(3.5 * eta)
            before = len(sent)
            # fdlint: disable=async-blocking (the stall under test)
            time.sleep(5 * eta)
            await asyncio.sleep(3.5 * eta)
            scheduler.close()
            seqs = [m.seq for m in sent]
            assert len(sent) - before <= 5  # no backlog of 5 late beats on top
            gaps = [b - a for a, b in zip(seqs, seqs[1:])]
            assert max(gaps) >= 4  # the stalled ticks are simply missing
            assert all(gap >= 1 for gap in gaps)

        run(main())


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
FLEET_SIZE = 50
FLEET_ETA = 0.05
CRASHED_ENDPOINT = "ep00"


async def _fleet_scenario():
    daemon = MonitorDaemon(
        port=0, http_port=0, eta=FLEET_ETA, initial_timeout=0.6,
    )
    await daemon.start()
    names = [f"ep{i:02d}" for i in range(FLEET_SIZE)]
    fleet = HeartbeatFleet(names, daemon.udp_endpoint, eta=FLEET_ETA, seed=11)
    await fleet.start()
    try:
        # Warm-up: every endpoint auto-registers and the predictors see
        # a stretch of normal traffic.
        await asyncio.sleep(1.2)
        assert len(daemon.registry) == FLEET_SIZE

        # Injected crash/recovery cycle on one endpoint.
        fleet.crash(CRASHED_ENDPOINT)
        await asyncio.sleep(1.0)
        fleet.restore(CRASHED_ENDPOINT)
        await asyncio.sleep(0.4)

        status = daemon.status()
        assert len(status["endpoints"]) == FLEET_SIZE
        all_ids = set(combination_ids())
        assert len(all_ids) == 30
        for name in names:
            entry = status["endpoints"][name]
            assert set(entry["detectors"]) == all_ids
            assert entry["heartbeats"] > 0

        crashed = status["endpoints"][CRASHED_ENDPOINT]
        assert crashed["crashes"] == 1
        assert crashed["crashed"] is False
        detected = [
            detector_id
            for detector_id, entry in crashed["detectors"].items()
            if entry["detection_samples"] >= 1
            and entry["fd_qos_detection_time_seconds"] is not None
            and 0.0 <= entry["fd_qos_detection_time_seconds"] < 10.0
        ]
        # The crash lasted ~20 heartbeat periods: every live combination
        # had ample time to raise a permanent suspicion.
        assert len(detected) >= 25, f"only {len(detected)} detected: {detected}"

        # Metrics over real HTTP.
        host, port = daemon.http_endpoint
        status_code, body = await _http(host, port, "GET", "/metrics")
        assert status_code == 200
        text = body.decode()
        assert f"fd_service_endpoints {FLEET_SIZE}" in text
        assert (
            f'fd_qos_detection_time_seconds{{endpoint="{CRASHED_ENDPOINT}",'
            in text
        )
        status_code, body = await _http(host, port, "GET", "/healthz")
        assert status_code == 200 and body == b"ok\n"

        # Runtime endpoint management over HTTP.
        status_code, _ = await _http(
            host, port, "POST", "/endpoints",
            body=json.dumps({"name": "late-joiner"}).encode(),
        )
        assert status_code == 201
        assert "late-joiner" in daemon.registry
        status_code, _ = await _http(
            host, port, "DELETE", "/endpoints/late-joiner"
        )
        assert status_code == 200
        assert "late-joiner" not in daemon.registry

        heartbeats_received = daemon.heartbeats_total
        assert heartbeats_received > 0
        assert fleet.total_sent() >= heartbeats_received  # loopback may drop
    finally:
        await fleet.stop()
        await daemon.stop()

    # Clean shutdown: no timers, no socket, scheduler refuses new work.
    assert daemon.scheduler.outstanding == 0
    assert daemon.scheduler.closed
    assert daemon.http_endpoint is None
    with pytest.raises(RuntimeError):
        daemon.udp_endpoint


async def _http(host, port, method, path, body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.0\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    header_block, _, payload = raw.partition(b"\r\n\r\n")
    return int(header_block.split()[1]), payload


@pytest.mark.network
class TestFleetIntegration:
    def test_fifty_endpoints_crash_cycle_and_clean_shutdown(self):
        baseline_threads = threading.active_count()
        run(_fleet_scenario())
        # asyncio.run joins its default executor on exit; anything above
        # the baseline would be a thread leaked by the service itself.
        assert threading.active_count() <= baseline_threads
