"""Service-level observability tests.

Covers the three daemon-side pieces of the observability layer:

* the crash-oracle hardening in the registry (a restore is inferred when
  heartbeats resume after a crash whose restore datagram was lost);
* the incremental ``/metrics`` exporter (dirty-set invalidation, body
  caching, histogram/summary exposition, meta-metrics);
* the traced loopback run: every suspect/trust transition shows up in
  the JSONL trace with a heartbeat sequence number that was actually
  received, ``/qos`` and ``/trace`` are served over real HTTP, and
  ``repro serve-monitor --trace`` survives a subprocess smoke test.
"""

import asyncio
import json
import os
import re
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.net.message import Datagram
from repro.obs import TraceRecorder, WindowedQosStore
from repro.service import HeartbeatFleet, MonitorDaemon

from tests.test_service import _http, run

pytestmark = pytest.mark.obs

DETECTOR = "Last+CI_med"


def _heartbeat(daemon, seq):
    daemon.dispatch(
        Datagram(
            source="ep",
            destination="monitor",
            kind="heartbeat",
            seq=seq,
            timestamp=daemon.scheduler.now,
        )
    )


def _control(daemon, kind):
    daemon.dispatch(
        Datagram(source="ep", destination="monitor", kind=kind)
    )


# ----------------------------------------------------------------------
# Crash-oracle hardening (socket-less: dispatch() is the test entry)
# ----------------------------------------------------------------------
class TestLostRestoreInference:
    async def _daemon(self, **kwargs):
        daemon = MonitorDaemon(
            port=0, http_port=None, eta=0.5, detector_ids=[DETECTOR], **kwargs
        )
        await daemon.start()
        return daemon

    def test_resumed_heartbeats_infer_the_lost_restore(self):
        async def main():
            daemon = await self._daemon()
            try:
                _heartbeat(daemon, 0)
                _control(daemon, "crash")
                monitor = daemon.registry.get("ep")
                assert monitor.crashed
                # The restore datagram is lost; beating simply resumes.
                # SimCrash numbering advances while silent, so the first
                # post-restore heartbeat carries a strictly higher seq.
                _heartbeat(daemon, 5)
                assert not monitor.crashed
                assert monitor.inferred_restores == 1
                assert daemon.inferred_restores_total() == 1
                assert monitor.crashes == 1
            finally:
                await daemon.stop()

        run(main())

    def test_stale_inflight_heartbeat_does_not_infer(self):
        async def main():
            daemon = await self._daemon()
            try:
                _heartbeat(daemon, 7)
                _control(daemon, "crash")
                monitor = daemon.registry.get("ep")
                # A heartbeat that was in flight when the crash hit has a
                # seq at or below the pre-crash high-water mark: it must
                # not resurrect the endpoint.
                _heartbeat(daemon, 3)
                assert monitor.crashed
                assert monitor.inferred_restores == 0
                _heartbeat(daemon, 8)
                assert not monitor.crashed
                assert monitor.inferred_restores == 1
            finally:
                await daemon.stop()

        run(main())

    def test_seqless_heartbeat_never_infers(self):
        async def main():
            daemon = await self._daemon()
            try:
                _heartbeat(daemon, 5)
                _control(daemon, "crash")
                monitor = daemon.registry.get("ep")
                dropped = daemon.dropped_datagrams
                # A seqless heartbeat is malformed: dispatch drops it
                # before it reaches the monitor, so the inference guard
                # never runs — the endpoint stays crashed.
                daemon.dispatch(
                    Datagram(
                        source="ep", destination="monitor",
                        kind="heartbeat",
                    )
                )
                assert daemon.dropped_datagrams == dropped + 1
                assert monitor.crashed
                assert monitor.inferred_restores == 0
            finally:
                await daemon.stop()

        run(main())

    def test_explicit_restore_is_not_counted_as_inferred(self):
        async def main():
            daemon = await self._daemon()
            try:
                _heartbeat(daemon, 0)
                _control(daemon, "crash")
                _control(daemon, "restore")
                monitor = daemon.registry.get("ep")
                assert not monitor.crashed
                _heartbeat(daemon, 5)
                assert monitor.inferred_restores == 0
                assert monitor.crashes == 1
            finally:
                await daemon.stop()

        run(main())

    def test_inference_reaches_trace_and_history(self):
        async def main():
            tracer = TraceRecorder(ring_capacity=64)
            history = WindowedQosStore(":memory:")
            daemon = await self._daemon(tracer=tracer, history=history)
            try:
                _heartbeat(daemon, 0)
                _control(daemon, "crash")
                _heartbeat(daemon, 5)
                kinds = [e["kind"] for e in tracer.tail(64)]
                assert "receive" in kinds
                assert "crash" in kinds and "restore" in kinds
                # crash + restore rows (detector transitions need timers).
                assert history.stats()["transitions_total"] == 2
            finally:
                await daemon.stop()
            assert tracer.closed and history.closed  # daemon owned them

        run(main())


# ----------------------------------------------------------------------
# Incremental exporter (socket-less)
# ----------------------------------------------------------------------
class TestIncrementalExporterCache:
    async def _daemon(self, **kwargs):
        daemon = MonitorDaemon(
            port=0, http_port=None, eta=0.5, detector_ids=[DETECTOR], **kwargs
        )
        await daemon.start()
        return daemon

    def test_unchanged_scrape_reuses_the_cached_body(self):
        async def main():
            daemon = await self._daemon()
            try:
                daemon.add_endpoint("ep")
                exporter = daemon.exporter
                first = daemon.metrics_text()
                assert exporter.series_renders_total == 1
                assert exporter.body_cache_hits_total == 0
                second = daemon.metrics_text()
                assert exporter.series_renders_total == 1  # nothing redrawn
                assert exporter.body_cache_hits_total == 1
                # Only the volatile head may differ between the scrapes.
                body = first[first.index("# HELP fd_qos_"):]
                assert second.endswith(body)
            finally:
                await daemon.stop()

        run(main())

    def test_transition_redraws_exactly_one_series(self):
        async def main():
            daemon = await self._daemon()
            try:
                daemon.add_endpoint("ep1")
                daemon.add_endpoint("ep2")
                exporter = daemon.exporter
                daemon.metrics_text()
                assert exporter.series_renders_total == 2
                daemon.obs.on_detector_transition(
                    "ep1", DETECTOR, True, daemon.scheduler.now
                )
                daemon.metrics_text()
                assert exporter.series_renders_total == 3
            finally:
                await daemon.stop()

        run(main())

    def test_endpoint_removal_drops_its_series(self):
        async def main():
            daemon = await self._daemon()
            try:
                daemon.add_endpoint("ep1")
                daemon.add_endpoint("ep2")
                assert 'endpoint="ep2"' in daemon.metrics_text()
                daemon.remove_endpoint("ep2")
                text = daemon.metrics_text()
                assert 'endpoint="ep2"' not in text
                assert "fd_service_endpoints 1" in text
            finally:
                await daemon.stop()

        run(main())

    def test_histogram_and_summary_exposition(self):
        async def main():
            daemon = await self._daemon()
            try:
                monitor = daemon.add_endpoint("ep")
                accumulator = monitor.accumulators[DETECTOR]
                t = daemon.scheduler.now
                # One 0.5 s mistake, a crash detected in 0.2 s, then a
                # full recovery so every sample precedes the cached
                # snapshot point (the accumulator's last transition).
                accumulator.observe_suspect(t + 1.0)
                accumulator.observe_trust(t + 1.5)
                accumulator.observe_crash(t + 2.0)
                accumulator.observe_suspect(t + 2.2)
                accumulator.observe_restore(t + 3.0)
                accumulator.observe_trust(t + 3.1)
                daemon.obs.on_detector_transition(
                    "ep", DETECTOR, False, t + 3.1
                )
                text = daemon.metrics_text()
                labels = f'endpoint="ep",detector="{DETECTOR}"'
                assert (
                    f'fd_detection_latency_seconds_bucket{{{labels},le="0.1"}} 0'
                    in text
                )
                assert (
                    f'fd_detection_latency_seconds_bucket{{{labels},le="0.25"}} 1'
                    in text
                )
                assert (
                    f'fd_detection_latency_seconds_bucket{{{labels},le="+Inf"}} 1'
                    in text
                )
                assert f"fd_detection_latency_seconds_count{{{labels}}} 1" in text
                # Wall-clock epochs make exact float strings fragile:
                # parse the quantile back and compare with a tolerance.
                match = re.search(
                    r'fd_mistake_length_seconds\{' + re.escape(labels)
                    + r',quantile="0\.5"\} ([0-9.eE+-]+)',
                    text,
                )
                assert match is not None
                assert abs(float(match.group(1)) - 0.5) < 1e-5
                assert f"fd_mistake_length_seconds_count{{{labels}}} 1" in text
                assert f"fd_qos_mistakes_total{{{labels}}} 1" in text
                assert f"fd_suspecting{{{labels}}} 0" in text
            finally:
                await daemon.stop()

        run(main())

    def test_meta_metrics_and_inferred_restores_in_head(self):
        async def main():
            tracer = TraceRecorder(ring_capacity=64)
            history = WindowedQosStore(":memory:")
            daemon = await self._daemon(tracer=tracer, history=history)
            try:
                _heartbeat(daemon, 0)
                _control(daemon, "crash")
                _heartbeat(daemon, 5)
                text = daemon.metrics_text()
                assert "fd_service_inferred_restores_total 1" in text
                assert "fd_obs_trace_events_total" in text
                assert "fd_obs_history_transitions_total 2" in text
                assert "fd_metrics_scrapes_total 1" in text
                assert "fd_metrics_body_cache_hits_total" in text
            finally:
                await daemon.stop()

        run(main())


# ----------------------------------------------------------------------
# Traced loopback integration
# ----------------------------------------------------------------------
TRACE_ETA = 0.05
TRANSITION_KINDS = {"suspect", "trust", "crash", "restore"}


async def _traced_loopback(trace_path):
    tracer = TraceRecorder(str(trace_path), ring_capacity=8192)
    history = WindowedQosStore(":memory:")
    daemon = MonitorDaemon(
        port=0,
        http_port=0,
        eta=TRACE_ETA,
        detector_ids=[DETECTOR, "Mean+JAC_low"],
        initial_timeout=0.6,
        tracer=tracer,
        history=history,
        snapshot_interval=0.3,
    )
    await daemon.start()
    fleet = HeartbeatFleet(["ep"], daemon.udp_endpoint, eta=TRACE_ETA, seed=3)
    await fleet.start()
    try:
        await asyncio.sleep(1.0)  # warm-up: predictors see normal traffic
        fleet.crash("ep")
        await asyncio.sleep(1.0)  # ~20 missed periods: both detectors fire
        fleet.restore("ep")
        await asyncio.sleep(0.5)

        # /trace over real HTTP.
        host, port = daemon.http_endpoint
        status_code, body = await _http(host, port, "GET", "/trace?limit=50")
        assert status_code == 200
        payload = json.loads(body)
        assert 0 < len(payload["events"]) <= 50
        assert payload["recorder"]["events_total"] > 0

        # /qos over real HTTP agrees in shape and sanity with the live
        # accumulators (numeric equivalence with batch extract_qos is
        # property-tested in tests/test_qos_history.py).
        status_code, body = await _http(host, port, "GET", "/qos?window=30")
        assert status_code == 200
        windows = json.loads(body)
        assert windows["window_seconds"] == 30.0
        entry = windows["endpoints"]["ep"]
        assert set(entry) == {DETECTOR, "Mean+JAC_low"}
        detected = [
            d for d, w in entry.items() if w["detection_samples"] >= 1
        ]
        assert detected, f"no detector produced a T_D sample: {entry}"
        for d in detected:
            assert entry[d]["detection_time_mean"] >= 0.0
            assert 0.0 <= entry[d]["query_accuracy_probability"] <= 1.0

        # Periodic snapshots were persisted while running.
        history_stats = history.stats()
        assert history_stats["snapshots_total"] > 0
        transitions_recorded = history_stats["transitions_total"]
    finally:
        await fleet.stop()
        await daemon.stop()

    assert daemon.scheduler.outstanding == 0
    assert daemon.scheduler.closed
    assert tracer.closed and history.closed
    return transitions_recorded


@pytest.mark.network
class TestTracedLoopbackIntegration:
    def test_every_transition_is_traced_with_a_real_heartbeat_seq(
        self, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        transitions_recorded = run(_traced_loopback(trace_path), timeout=60.0)

        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert events, "trace file is empty"
        received = {e["seq"] for e in events if e["kind"] == "receive"}
        suspects = [e for e in events if e["kind"] == "suspect"]
        trusts = [e for e in events if e["kind"] == "trust"]
        assert suspects, "no suspicion was ever traced"
        # Every transition cites a heartbeat seq that really arrived.
        for event in suspects + trusts:
            assert event["endpoint"] == "ep"
            assert event["detector"] in (DETECTOR, "Mean+JAC_low")
            assert event["seq"] in received
        # Trust always resolves an earlier suspicion of the same
        # detector, and its heartbeat is strictly newer.
        for trust in trusts:
            earlier = [
                s for s in suspects
                if s["detector"] == trust["detector"] and s["t"] < trust["t"]
            ]
            assert earlier
            assert trust["seq"] > max(s["seq"] for s in earlier)
        # The history store saw exactly the transitions that were traced:
        # same code path (EndpointMonitor -> hub), same count.
        traced_transitions = sum(
            1 for e in events if e["kind"] in TRANSITION_KINDS
        )
        assert traced_transitions == transitions_recorded
        # A heartbeat's journey is three spans: the bank writes one
        # freshness span per fresh heartbeat, not one per detector, and
        # each suspicion names the freshness point that expired.
        journey = [e for e in events if e["kind"] not in TRANSITION_KINDS]
        assert {e["kind"] for e in journey} == {"receive", "fanout", "freshness"}
        freshness = [e["seq"] for e in journey if e["kind"] == "freshness"]
        assert len(freshness) == len(set(freshness))
        assert len(journey) <= 3 * sum(1 for e in journey if e["kind"] == "receive")
        for suspect in suspects:
            # The deadline passed by the suspicion (the loop may run a
            # timer a clock tick early).
            assert suspect["deadline"] < suspect["t"] + 1e-3
            assert suspect["timeout"] > 0.0


# ----------------------------------------------------------------------
# /trace query filters and /drift over real HTTP
# ----------------------------------------------------------------------
@pytest.mark.network
class TestTraceRouteFilters:
    def test_trace_route_endpoint_and_kind_filters(self):
        async def main():
            tracer = TraceRecorder(None, ring_capacity=256)
            daemon = MonitorDaemon(
                port=0, http_port=0, eta=0.5, detector_ids=[DETECTOR],
                tracer=tracer,
            )
            await daemon.start()
            try:
                for seq in range(3):
                    _heartbeat(daemon, seq)
                daemon.dispatch(
                    Datagram(
                        source="other", destination="monitor",
                        kind="heartbeat", seq=0,
                        timestamp=daemon.scheduler.now,
                    )
                )
                host, port = daemon.http_endpoint

                async def fetch(path):
                    status, body = await _http(host, port, "GET", path)
                    return status, body

                status, body = await fetch("/trace?endpoint=ep")
                assert status == 200
                events = json.loads(body)["events"]
                assert events
                assert {e["endpoint"] for e in events} == {"ep"}

                status, body = await fetch("/trace?kind=receive")
                assert status == 200
                events = json.loads(body)["events"]
                assert {e["kind"] for e in events} == {"receive"}
                assert {e["endpoint"] for e in events} == {"ep", "other"}

                status, body = await fetch(
                    "/trace?endpoint=other&kind=receive&limit=2"
                )
                assert status == 200
                events = json.loads(body)["events"]
                assert len(events) == 1
                assert events[0]["endpoint"] == "other"

                status, body = await fetch("/trace?limit=bogus")
                assert status == 400
            finally:
                await daemon.stop()

        run(main(), timeout=30.0)

    def test_drift_route_serves_when_enabled(self):
        async def main():
            daemon = MonitorDaemon(
                port=0, http_port=0, eta=0.5, detector_ids=[DETECTOR],
                drift_window=8,
            )
            await daemon.start()
            try:
                for seq in range(4):
                    _heartbeat(daemon, seq)
                host, port = daemon.http_endpoint
                status, body = await _http(host, port, "GET", "/drift")
                assert status == 200
                payload = json.loads(body)
                assert payload["window_samples"] == 8
                assert "ep" in payload["endpoints"]
                # /drift evaluates fresh on every request.
                status, body = await _http(host, port, "GET", "/drift")
                assert json.loads(body)["evaluations_total"] > (
                    payload["evaluations_total"]
                )
                # The gauges ride the same exporter head as everything
                # else once an evaluation has happened.
                metrics = daemon.metrics_text()
                assert "fd_service_drift_evaluations_total" in metrics
            finally:
                await daemon.stop()

        run(main(), timeout=30.0)


# ----------------------------------------------------------------------
# `repro serve-monitor --trace` subprocess smoke test
# ----------------------------------------------------------------------
_HTTP_LINE = re.compile(r"monitor: metrics on http://([\d.]+):(\d+)/metrics")


@pytest.mark.network
class TestServeMonitorSmoke:
    def test_serve_monitor_with_tracing_serves_and_exits_cleanly(
        self, tmp_path
    ):
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ, PYTHONPATH=repo_src)
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve-monitor",
                "--port", "0", "--http-port", "0", "--eta", "0.05",
                "--duration", "8", "--trace", "trace.jsonl",
                "--endpoints", "ep1", "--detectors", DETECTOR,
            ],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        lines = []
        found = threading.Event()

        def reader():
            for line in process.stdout:
                lines.append(line)
                if _HTTP_LINE.search(line):
                    found.set()
            found.set()  # EOF: unblock the waiter either way

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            assert found.wait(timeout=20.0), "no HTTP line in stdout"
            match = next(
                (m for line in lines for m in [_HTTP_LINE.search(line)] if m),
                None,
            )
            assert match is not None, f"stdout was: {lines!r}"
            host, port = match.group(1), int(match.group(2))
            routes_line = match.string
            assert "/qos" in routes_line and "/trace" in routes_line

            def get(path):
                with urllib.request.urlopen(
                    f"http://{host}:{port}{path}", timeout=5.0
                ) as response:
                    return response.status, response.read()

            status, body = get("/healthz")
            assert status == 200 and body == b"ok\n"
            status, body = get("/trace?limit=10")
            assert status == 200
            assert "recorder" in json.loads(body)
            status, body = get("/qos?window=5")
            assert status == 200
            payload = json.loads(body)
            assert "ep1" in payload["endpoints"]

            returncode = process.wait(timeout=30.0)
        except BaseException:
            process.kill()
            process.wait(timeout=10.0)
            raise
        finally:
            thread.join(timeout=5.0)
            stderr = process.stderr.read()
            process.stdout.close()
            process.stderr.close()
        assert returncode == 0, f"stderr: {stderr}"
        assert stderr == ""

        trace_file = tmp_path / "trace.jsonl"
        assert trace_file.exists()
        for line in trace_file.read_text().splitlines():
            json.loads(line)
        assert any("tracing heartbeat spans" in line for line in lines)
