"""Online drift monitoring: KS statistic, verdicts, metrics, live /drift.

The unit layer feeds the :class:`DriftMonitor` hand-built delay streams
(stable vs spiked) and checks verdicts, loss estimation, span emission
on flips, and the Prometheus rendering.  The live layer (network/chaos
marked) runs the real loopback daemon twice — fault-free and under an
injected delay spike — and asserts ``/drift`` separates the two, the
second half of the PR's acceptance criterion.
"""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import TraceRecorder
from repro.obs.drift import DriftMonitor, ks_distance

pytestmark = pytest.mark.obs


class TestKsDistance:
    def test_identical_samples_are_zero(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        assert ks_distance(xs, xs) == 0.0

    def test_disjoint_samples_are_one(self):
        assert ks_distance([1.0, 2.0], [10.0, 20.0]) == pytest.approx(1.0)

    def test_half_overlap(self):
        # b is a's upper half: F_a - F_b peaks at 0.5 at the median.
        a = [1.0, 2.0, 3.0, 4.0]
        b = [3.0, 4.0]
        assert ks_distance(a, b) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_samples(self, rng):
        a = rng.normal(0.1, 0.02, size=200)
        b = rng.normal(0.12, 0.03, size=150)
        grid = np.concatenate([a, b])
        brute = max(
            abs((a <= x).mean() - (b <= x).mean()) for x in grid
        )
        assert ks_distance(a, b) == pytest.approx(brute)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])


def feed(monitor, endpoint, delays, *, start_seq=0, t0=0.0, eta=0.1):
    for offset, delay in enumerate(delays):
        monitor.observe(
            endpoint, t0 + offset * eta, float(delay), seq=start_seq + offset
        )


class TestDriftMonitor:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(window_samples=1)
        with pytest.raises(ValueError):
            DriftMonitor(baseline_samples=1)
        with pytest.raises(ValueError):
            DriftMonitor(min_samples=0)
        with pytest.raises(ValueError):
            DriftMonitor(ks_threshold=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(baseline=[0.1])
        with pytest.raises(ValueError):
            DriftMonitor(min_effect=-0.001)

    def test_self_baseline_freezes_then_window_fills(self, rng):
        monitor = DriftMonitor(
            window_samples=64, baseline_samples=64, min_samples=16
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=32))
        report = monitor.evaluate(10.0)
        assert report["endpoints"]["q"]["status"] == "collecting-baseline"
        feed(monitor, "q", rng.normal(0.1, 0.01, size=32), start_seq=32)
        # Baseline frozen at 64; the window is still empty.
        assert monitor.evaluate(20.0)["endpoints"]["q"]["status"] == (
            "filling-window"
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=32), start_seq=64)
        entry = monitor.evaluate(30.0)["endpoints"]["q"]
        assert entry["status"] == "ok"
        assert entry["drifted"] is False
        assert entry["ks"] < 0.35

    def test_shared_baseline_skips_collection(self, rng):
        baseline = rng.normal(0.1, 0.01, size=256)
        monitor = DriftMonitor(
            window_samples=64, baseline=baseline, min_samples=16
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=32))
        entry = monitor.evaluate(5.0)["endpoints"]["q"]
        assert entry["status"] == "ok"
        assert entry["baseline_count"] == 256
        assert not entry["drifted"]

    def test_delay_spike_flags_drift_and_recovers(self, rng):
        baseline = rng.normal(0.1, 0.01, size=256)
        monitor = DriftMonitor(
            window_samples=64, baseline=baseline, min_samples=32
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=64))
        assert not monitor.evaluate(1.0)["endpoints"]["q"]["drifted"]
        # A +300ms spike floods the rolling window.
        feed(monitor, "q", rng.normal(0.4, 0.01, size=64), start_seq=64)
        report = monitor.evaluate(2.0)
        assert report["drifted"] == ["q"]
        entry = report["endpoints"]["q"]
        assert entry["ks"] >= 0.35
        assert entry["mean_shift_sigmas"] > 3.0
        assert entry["window_mean"] == pytest.approx(0.4, abs=0.02)
        # The spike passes; the window refills with baseline-like delays.
        feed(monitor, "q", rng.normal(0.1, 0.01, size=64), start_seq=128)
        assert monitor.evaluate(3.0)["drifted"] == []

    def test_mean_shift_triggers_on_near_constant_baseline(self):
        monitor = DriftMonitor(
            window_samples=16, baseline=[0.1] * 64, min_samples=8
        )
        feed(monitor, "q", [0.105] * 16)
        entry = monitor.evaluate(1.0)["endpoints"]["q"]
        # KS saturates on any shift of a constant; the verdict is
        # reached either way, with an enormous reported sigma shift
        # (the baseline std is zero up to float rounding).
        assert entry["drifted"]
        assert entry["mean_shift_sigmas"] > 1e6
        assert entry["effect_seconds"] == pytest.approx(0.005)

    def test_shift_below_the_effect_floor_is_not_drift(self):
        """The same saturated KS and sigma count, but 0.1 ms: both
        triggers trip and the absolute floor (1 ms) holds the verdict."""
        monitor = DriftMonitor(
            window_samples=16, baseline=[0.1] * 64, min_samples=8
        )
        feed(monitor, "q", [0.1001] * 16)
        entry = monitor.evaluate(1.0)["endpoints"]["q"]
        assert entry["ks"] == 1.0 and entry["mean_shift_sigmas"] > 1e6
        assert not entry["drifted"]
        assert DriftMonitor(min_effect=0.0).min_effect == 0.0

    def test_false_positive_rate_on_a_stationary_loopback_stream(self, rng):
        """A 40-sample loopback baseline (σ ≈ 15 µs), then 4 000 delays
        of the same network seen through a busier interpreter: the level
        wanders by tens of microseconds and one delay in a hundred is a
        multi-millisecond stall.  Re-tested every five heartbeats — 800
        verdicts — none may be drift; without the floor most are."""

        def run(min_effect):
            monitor = DriftMonitor(
                window_samples=40, baseline_samples=40, min_samples=40,
                min_effect=min_effect,
            )
            stream = np.random.default_rng(20050628)
            feed(monitor, "q", stream.normal(120e-6, 15e-6, size=40))
            wander = 50e-6 * (1 + np.sin(np.arange(4000) / 180.0))
            delays = stream.normal(120e-6, 15e-6, size=4000) + wander
            stalls = stream.random(4000) < 0.01
            delays[stalls] += stream.uniform(0.003, 0.03, size=int(stalls.sum()))
            flagged = verdicts = 0
            for start in range(0, 4000, 5):
                feed(monitor, "q", delays[start:start + 5], start_seq=40 + start)
                entry = monitor.evaluate(float(start))["endpoints"]["q"]
                if entry["status"] == "ok":
                    verdicts += 1
                    flagged += entry["drifted"]
            return flagged, verdicts, monitor

        flagged, verdicts, monitor = run(0.001)
        assert verdicts > 700
        assert flagged == 0
        without_floor, _, _ = run(0.0)
        assert without_floor > verdicts // 2
        # The floor does not blind it: a real 5 ms shift is flagged as
        # soon as it fills the window.
        feed(monitor, "q", rng.normal(5.12e-3, 15e-6, size=40), start_seq=5000)
        assert monitor.evaluate(9999.0)["drifted"] == ["q"]

    def test_loss_rate_from_sequence_gaps(self, rng):
        baseline = rng.normal(0.1, 0.01, size=64)
        monitor = DriftMonitor(
            window_samples=32, baseline=baseline, min_samples=8
        )
        # Every other heartbeat lost: seqs 0, 2, 4, ... -> 50% loss.
        for i in range(32):
            monitor.observe("q", i * 0.1, 0.1, seq=2 * i)
        entry = monitor.evaluate(5.0)["endpoints"]["q"]
        assert entry["window_loss_rate"] == pytest.approx(0.5, abs=0.02)

    def test_verdict_flip_emits_calibration_drift_span(self, rng):
        tracer = TraceRecorder(ring_capacity=64)
        baseline = rng.normal(0.1, 0.01, size=128)
        monitor = DriftMonitor(
            window_samples=32, baseline=baseline, min_samples=8,
            tracer=tracer,
        )
        feed(monitor, "q", rng.normal(0.5, 0.01, size=32))
        monitor.evaluate(1.0)
        monitor.evaluate(2.0)  # still drifted: no second span
        feed(monitor, "q", rng.normal(0.1, 0.01, size=32), start_seq=32)
        monitor.evaluate(3.0)  # recovered
        spans = tracer.tail(64, kind="calibration-drift")
        assert [s["seq"] for s in spans] == [1, 0]
        drifted_span = spans[0]
        assert drifted_span["endpoint"] == "q"
        assert drifted_span["delay"] == pytest.approx(0.5, abs=0.02)
        assert drifted_span["timeout"] == pytest.approx(0.1, abs=0.02)
        assert drifted_span["deadline"] >= 0.35

    def test_calibration_delta_appears_past_calibrate_min(self, rng):
        baseline = np.maximum(rng.normal(0.1, 0.005, size=1200), 0.001)
        monitor = DriftMonitor(
            window_samples=1200, baseline=baseline, min_samples=64,
            calibrate_min=1000,
        )
        feed(monitor, "q", np.maximum(rng.normal(0.2, 0.005, size=1200), 0.001))
        entry = monitor.evaluate(1.0)["endpoints"]["q"]
        assert "calibration" in entry
        delta = entry["calibration"]
        assert set(delta) == {"floor", "base_queue", "white_std"}
        assert delta["floor"]["window"] > delta["floor"]["baseline"]

    def test_small_windows_skip_calibration(self, rng):
        monitor = DriftMonitor(
            window_samples=64, baseline=rng.normal(0.1, 0.01, size=64),
            min_samples=8,
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=64))
        assert "calibration" not in monitor.evaluate(1.0)["endpoints"]["q"]

    def test_report_caches_last_evaluation(self, rng):
        monitor = DriftMonitor(
            window_samples=16, baseline=rng.normal(0.1, 0.01, size=64),
            min_samples=8,
        )
        assert monitor.report() is None
        feed(monitor, "q", rng.normal(0.1, 0.01, size=16))
        report = monitor.evaluate(9.0)
        assert monitor.report() is report
        assert monitor.endpoints() == ["q"]

    def test_render_metrics_exposes_gauges(self, rng):
        monitor = DriftMonitor(
            window_samples=16, baseline=rng.normal(0.1, 0.01, size=64),
            min_samples=8,
        )
        feed(monitor, "q", rng.normal(0.4, 0.01, size=16))
        monitor.evaluate(1.0)
        lines, helps = [], []
        monitor.render_metrics(lines, lambda name, kind, text: helps.append(name))
        text = "\n".join(lines)
        assert "fd_service_drift_evaluations_total 1" in text
        assert 'fd_service_drift_drifted{endpoint="q"} 1' in text
        assert 'fd_service_drift_ks{endpoint="q"}' in text
        assert 'fd_service_drift_window_mean_seconds{endpoint="q"}' in text
        assert "fd_service_drift_evaluations_total" in helps

    def test_unevaluated_endpoints_render_no_series(self, rng):
        monitor = DriftMonitor(window_samples=16, min_samples=8)
        feed(monitor, "q", rng.normal(0.1, 0.01, size=4))
        monitor.evaluate(1.0)  # still collecting-baseline
        lines = []
        monitor.render_metrics(lines, lambda *args: None)
        assert not any("endpoint=" in line for line in lines)

    def test_json_serialisable_report(self, rng):
        monitor = DriftMonitor(
            window_samples=16, baseline=rng.normal(0.1, 0.01, size=64),
            min_samples=8,
        )
        feed(monitor, "q", rng.normal(0.1, 0.01, size=16))
        json.dumps(monitor.evaluate(1.0))

    def test_unbounded_mean_shift_is_null_and_still_drift(self):
        """A baseline without spread: any shift is infinitely many sigmas,
        which strict JSON cannot carry; the verdict stands."""
        monitor = DriftMonitor(window_samples=8, baseline=[0.5] * 3, min_samples=4)
        feed(monitor, "q", [0.75] * 8)
        report = monitor.evaluate(1.0)
        entry = report["endpoints"]["q"]
        assert entry["mean_shift_sigmas"] is None
        assert entry["drifted"] and report["drifted"] == ["q"]
        json.dumps(report, allow_nan=False)
        # No shift at all stays a finite zero.
        feed(monitor, "q", [0.5] * 8)
        assert monitor.evaluate(2.0)["endpoints"]["q"]["mean_shift_sigmas"] == 0.0


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


@pytest.mark.network
def test_drift_route_serves_strict_json():
    from repro.service import MonitorDaemon
    from tests.test_service import _http, run

    async def main():
        daemon = MonitorDaemon(
            port=0, http_port=0, eta=0.1, detector_ids=["Last+CI_med"],
            drift_window=8, drift_baseline=[0.5] * 3,
        )
        await daemon.start()
        try:
            for seq in range(8):
                daemon.drift.observe("q", float(seq), 0.75, seq=seq)
            host, port = daemon.http_endpoint
            return await _http(host, port, "GET", "/drift")
        finally:
            await daemon.stop()

    status, payload = run(main())
    assert status == 200
    report = json.loads(payload, parse_constant=_reject_constant)
    entry = report["endpoints"]["q"]
    assert entry["mean_shift_sigmas"] is None
    assert entry["drifted"] and report["drifted"] == ["q"]


@pytest.mark.network
@pytest.mark.chaos
class TestLiveDrift:
    """The acceptance criterion, live: /drift separates spike from calm."""

    TIMEOUT = 60.0

    def _run(self, coroutine):
        return asyncio.run(
            asyncio.wait_for(coroutine, timeout=self.TIMEOUT)
        )

    async def _daemon_drift_run(self, plan, *, duration):
        from repro.chaos import ChaosEngine, attach_backend
        from repro.service import HeartbeatFleet, MonitorDaemon

        daemon = MonitorDaemon(
            port=0, http_port=0, eta=0.05,
            detector_ids=["Last+CI_med"], initial_timeout=0.8,
            drift_window=40, drift_interval=0.25,
        )
        engine = ChaosEngine(plan) if plan is not None else None
        if engine is not None:
            intake = attach_backend(engine, daemon.network, name="daemon")
        await daemon.start()
        if engine is not None:
            intake.arm(daemon.scheduler.now)
        fleet = HeartbeatFleet(["node-1"], daemon.udp_endpoint, eta=0.05)
        if engine is not None:
            attach_backend(engine, fleet.network)
        await fleet.start()
        try:
            # fdlint: disable=clock-discipline (live loopback scenario runs in real time by contract)
            await asyncio.sleep(duration)
            host, port = daemon.http_endpoint
            url = f"http://{host}:{port}/drift"
            payload = await asyncio.to_thread(
                lambda: urllib.request.urlopen(url, timeout=5.0).read()
            )
            return json.loads(payload)
        finally:
            await fleet.stop()
            await daemon.stop()

    def test_fault_free_run_stays_within_baseline(self):
        report = self._run(self._daemon_drift_run(None, duration=6.0))
        assert report["drifted"] == []
        entry = report["endpoints"]["node-1"]
        assert entry["status"] == "ok"
        # Loopback jitter may move the KS distance of a 40-sample window;
        # it cannot move a quantile by a millisecond.
        assert entry["effect_seconds"] < report["min_effect"]

    def test_injected_delay_spike_is_flagged(self):
        from repro.chaos import FaultPlan

        # Self-baseline freezes over the calm first ~2s (40 beats at
        # 20Hz); the +400ms spike then floods the rolling window.
        plan = (
            FaultPlan.build(name="drift-spike", seed=1)
            .delay_spike(2.5, 60.0, 0.4)
            .done()
        )
        report = self._run(self._daemon_drift_run(plan, duration=7.0))
        assert report["drifted"] == ["node-1"]
        entry = report["endpoints"]["node-1"]
        assert entry["window_mean"] > entry["baseline_mean"] + 0.2

    def test_drift_route_404_when_disabled(self):
        async def main():
            from repro.service import MonitorDaemon

            daemon = MonitorDaemon(port=0, http_port=0, eta=0.1)
            await daemon.start()
            try:
                host, port = daemon.http_endpoint
                url = f"http://{host}:{port}/drift"

                def fetch():
                    try:
                        urllib.request.urlopen(url, timeout=5.0)
                    except urllib.error.HTTPError as error:
                        return error.code
                    return 200

                assert await asyncio.to_thread(fetch) == 404
            finally:
                await daemon.stop()

        self._run(main())
