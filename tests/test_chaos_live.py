"""The chaos invariant suite, live side.

The same fault plans replayed over real loopback UDP: the daemon never
crashes under any fault family, its online accumulators stay consistent
with the recorded trace, detectors re-trust within bounded time after a
partition heals, degraded mode is observable on ``/qos`` and
``/metrics``, and the ``repro chaos`` CLI replays one plan JSON against
both the simulator and the live path.
"""

import asyncio
import json

import pytest

from repro.chaos import (
    ChaosEngine,
    FaultEvent,
    FaultPlan,
    attach_backend,
    run_daemon_scenario_async,
)
from repro.nekostat.metrics import OnlineQosAccumulator
from repro.obs import TraceRecorder
from repro.service import HeartbeatFleet, MonitorDaemon

pytestmark = [pytest.mark.chaos, pytest.mark.network]

NETWORK_TIMEOUT = 90.0
DETECTOR = "Last+CI_med"


def run(coroutine, timeout=NETWORK_TIMEOUT):
    """Run an async test body with a hard timeout (no plugin needed)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def eventually(predicate, *, timeout=30.0, interval=0.02):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


def full_fault_matrix_plan() -> FaultPlan:
    """Every fault family the engine knows, packed into ~5 seconds."""
    return FaultPlan(
        events=[
            FaultEvent("loss-burst", 0.0, 1.0, rate=0.6),
            FaultEvent("duplicate", 0.5, 1.5, copies=3),
            FaultEvent("reorder", 1.0, 2.0, rate=0.8, magnitude=0.2),
            FaultEvent("corrupt", 1.5, 2.5, rate=0.5),
            FaultEvent("truncate", 2.0, 3.0, rate=0.5),
            FaultEvent("delay-spike", 2.5, 3.5, magnitude=0.3),
            FaultEvent("clock-skew", 3.0, 4.0, magnitude=0.15),
            FaultEvent("partition", 3.5, 4.5, source="node-2", destination="monitor"),
            FaultEvent("pause", 4.0, 5.0, source="node-1"),
        ],
        name="matrix",
    )


class TestDaemonSurvivesChaos:
    def test_full_fault_matrix_never_crashes_the_daemon(self):
        report = run(run_daemon_scenario_async(
            full_fault_matrix_plan(),
            duration=8.0,
            eta=0.15,
            endpoints=("node-1", "node-2"),
        ))
        assert report["survived"]
        stats = report["chaos"]["stats"]
        assert stats["decisions"] > 0
        # Every family in the plan actually touched traffic.
        assert set(stats["by_kind"]) == {
            "loss-burst", "duplicate", "reorder", "corrupt", "truncate",
            "delay-spike", "clock-skew", "partition", "pause",
        }
        daemon = report["daemon"]
        assert daemon["heartbeats_total"] > 0
        # Faults ended 3s before the run did: both endpoints are
        # re-trusted by the end.
        for endpoint in report["endpoints"].values():
            assert endpoint["heartbeats"] > 0
            assert not endpoint["suspecting_at_end"]

    def test_accumulators_stay_consistent_with_recorded_trace(self):
        async def main():
            tracer = TraceRecorder(None, ring_capacity=8192)
            plan = FaultPlan(
                events=[
                    FaultEvent("loss-burst", 0.5, 2.0, rate=0.7),
                    FaultEvent(
                        "partition", 2.5, 4.0, source="node-1", destination="monitor"
                    ),
                ],
                seed=4,
                name="consistency",
            )
            engine = ChaosEngine(plan)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.15,
                detector_ids=[DETECTOR], initial_timeout=0.8,
                tracer=tracer,
            )
            intake = attach_backend(engine, daemon.network, name="daemon")
            await daemon.start()
            intake.arm(daemon.scheduler.now)
            fleet = HeartbeatFleet(
                ["node-1", "node-2"], daemon.udp_endpoint, eta=0.15
            )
            attach_backend(engine, fleet.network)
            await fleet.start()
            try:
                # fdlint: disable=clock-seed-taint (live loopback scenario runs in real time by contract)
                await asyncio.sleep(6.0)
                events = tracer.tail(8192)
                for monitor in daemon.registry:
                    accumulator = monitor.accumulators[DETECTOR]
                    detector = monitor.detectors[DETECTOR]
                    # The accumulator mirrors the live detector verdict...
                    assert accumulator.suspecting == detector.suspecting
                    # ...and replaying the recorded suspect/trust trace
                    # into a fresh accumulator reproduces it exactly.
                    transitions = [
                        e for e in events
                        if e["endpoint"] == monitor.name
                        and e.get("detector") == DETECTOR
                        and e["kind"] in ("suspect", "trust")
                    ]
                    replayed = OnlineQosAccumulator(
                        DETECTOR, start_time=monitor.registered_at
                    )
                    for event in transitions:
                        replayed.observe_transition(
                            event["kind"] == "suspect", event["t"]
                        )
                    assert replayed.transitions == accumulator.transitions
                    now = daemon.scheduler.now
                    live = accumulator.snapshot(now)
                    mirror = replayed.snapshot(now)
                    assert live.td_samples == mirror.td_samples
                    assert len(live.mistakes) == len(mirror.mistakes)
                    # Live scheduler: emit and observe read `now` a few
                    # microseconds apart, so the integral is approximate.
                    assert live.suspected_up_time == pytest.approx(
                        mirror.suspected_up_time, abs=0.01
                    )
            finally:
                await fleet.stop()
                await daemon.stop()
                tracer.close()

        run(main())

    def test_detectors_retrust_within_bounded_time_after_heal(self):
        async def main():
            plan = FaultPlan(
                events=[FaultEvent(
                    "partition", 0.0, 2.5, source="node-1", destination="monitor"
                )],
                name="heal",
            )
            engine = ChaosEngine(plan)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.1,
                detector_ids=[DETECTOR], initial_timeout=0.8,
            )
            intake = attach_backend(engine, daemon.network, name="daemon")
            await daemon.start()
            # Keep the plan dormant until the endpoint is registered.
            intake.arm(float("inf"))
            fleet = HeartbeatFleet(["node-1"], daemon.udp_endpoint, eta=0.1)
            await fleet.start()
            try:
                def detector():
                    monitor = daemon.registry.get("node-1")
                    return (
                        monitor.detectors[DETECTOR] if monitor else None
                    )

                assert await eventually(
                    lambda: detector() is not None
                    and detector().heartbeats_seen >= 3
                )
                intake.arm(daemon.scheduler.now)  # partition starts now
                assert await eventually(
                    lambda: detector().suspecting, timeout=10.0
                ), "partition must drive the detector to suspect"
                # After the heal the detector must re-trust in bounded
                # time (first fresh heartbeat through the healed link).
                assert await eventually(
                    lambda: not detector().suspecting, timeout=10.0
                ), "healed partition must restore trust"
            finally:
                await fleet.stop()
                await daemon.stop()

        run(main())

    def test_recorded_trace_reproduces_online_qos(self, tmp_path):
        """The PR's acceptance criterion: ``repro trace-analyze`` on a
        trace recorded from a chaos-scenario daemon run reproduces the
        online accumulators' QoS numbers from spans alone."""
        import os

        import repro.obs.analyze as obs_analyze
        from repro.nekostat.metrics import DetectorQos

        # CI points CHAOS_TRACE_DIR at a workspace directory so the
        # recorded trace survives the run and is uploaded as an
        # artifact when the chaos suite fails.
        trace_dir = os.environ.get("CHAOS_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "acceptance-fd-trace.jsonl")
        else:
            trace_path = str(tmp_path / "fd-trace.jsonl")
        plan = FaultPlan(
            events=[
                FaultEvent("loss-burst", 0.5, 2.0, rate=0.7),
                FaultEvent("delay-spike", 2.5, 3.5, magnitude=0.4),
            ],
            seed=2,
            name="acceptance",
        )
        report = run(run_daemon_scenario_async(
            plan, duration=6.0, eta=0.15,
            endpoints=("node-1", "node-2"), trace_path=trace_path,
        ))
        assert report["survived"]
        events = obs_analyze.load_events([trace_path])
        assert events, "the scenario must have recorded spans"
        analysis = obs_analyze.analyze(events, end_time=report["now"])
        # The reference is the report's accumulator snapshots.
        problems = []
        for endpoint, entry in report["endpoints"].items():
            for detector, live in entry["qos"].items():
                span_qos = analysis.qos.get((endpoint, detector))
                if span_qos is None:
                    if live.mistakes or live.td_samples:
                        problems.append(f"{endpoint}/{detector} missing")
                    continue
                qos = span_qos.qos
                if len(qos.mistakes) != len(live.mistakes):
                    problems.append(
                        f"{endpoint}/{detector} mistakes "
                        f"{len(qos.mistakes)} != {len(live.mistakes)}"
                    )
                if len(qos.td_samples) != len(live.td_samples):
                    problems.append(f"{endpoint}/{detector} td count")
                if abs(qos.p_a - live.p_a) > 1e-3:
                    problems.append(
                        f"{endpoint}/{detector} P_A {qos.p_a} "
                        f"vs {live.p_a}"
                    )
                assert span_qos.inconsistencies == 0
        assert not problems, problems
        # At least one series actually exercised the mistake machinery
        # (the loss burst lasts ~10 heartbeat periods per endpoint).
        assert any(
            live.mistakes
            for entry in report["endpoints"].values()
            for live in entry["qos"].values()
        ), "chaos plan should have induced at least one mistake"
        # cross_check agrees with the same data via the public surface.
        reference = {
            (endpoint, detector): (report["now"], live)
            for endpoint, entry in report["endpoints"].items()
            for detector, live in entry["qos"].items()
        }
        assert isinstance(next(iter(reference.values()))[1], DetectorQos)
        assert obs_analyze.cross_check(analysis, reference) == []

    def test_load_shedding_is_bounded_and_counted(self):
        report = run(run_daemon_scenario_async(
            FaultPlan(name="empty"),
            duration=3.0,
            eta=0.02,
            endpoints=("n1", "n2", "n3"),
            max_intake_rate=20.0,
        ))
        assert report["survived"]
        daemon = report["daemon"]
        # 3 emitters at 50 Hz against a 20/s budget: intake shed load
        # instead of falling over, and counted every shed datagram.
        assert daemon["shed_datagrams"] > 0
        assert daemon["heartbeats_total"] > 0


class TestDegradedMode:
    def test_sqlite_failure_degrades_but_keeps_serving(self):
        async def main():
            from repro.obs import WindowedQosStore

            history = WindowedQosStore(":memory:", retention=3600.0)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.1,
                detector_ids=[DETECTOR], initial_timeout=0.8,
                history=history, snapshot_interval=0.0,
            )
            await daemon.start()
            fleet = HeartbeatFleet(["node-1"], daemon.udp_endpoint, eta=0.1)
            await fleet.start()
            try:
                assert await eventually(
                    lambda: daemon.registry.get("node-1") is not None
                )
                assert not daemon.qos_window(10.0)["degraded"]
                assert "fd_service_degraded 0" in daemon.metrics_text()

                # Chaos hook: the next sqlite statement fails.  The
                # store falls back to in-memory and keeps serving.
                history.inject_sqlite_failures(1)
                daemon._take_snapshots()
                payload = daemon.qos_window(10.0)
                assert payload["degraded"] is True
                assert payload["endpoints"], "degraded /qos still serves"
                metrics = daemon.metrics_text()
                assert "fd_service_degraded 1" in metrics
                assert history.degradations_total == 1
                # The degraded store still records new windows.
                daemon._take_snapshots()
                assert daemon.qos_window(10.0)["degraded"] is True
            finally:
                await fleet.stop()
                await daemon.stop()

        run(main())


class TestCliReplay:
    def test_same_plan_json_replays_against_sim_and_live(self, tmp_path):
        from repro.cli import main

        plan = FaultPlan(
            events=[
                FaultEvent("loss-burst", 0.5, 2.0, rate=0.5),
                FaultEvent("delay-spike", 2.0, 3.0, magnitude=0.2),
            ],
            seed=6,
            name="replay",
        )
        plan_path = tmp_path / "plan.json"
        plan.save(str(plan_path))
        sim_out = tmp_path / "sim.json"
        live_out = tmp_path / "live.json"
        assert main([
            "chaos", "--plan", str(plan_path), "--target", "sim",
            "--duration", "10", "--output", str(sim_out),
        ]) == 0
        assert main([
            "chaos", "--plan", str(plan_path), "--target", "daemon",
            "--duration", "4", "--output", str(live_out),
        ]) == 0
        sim_report = json.loads(sim_out.read_text())
        live_report = json.loads(live_out.read_text())
        assert sim_report["target"] == "sim"
        assert live_report["target"] == "daemon"
        for report in (sim_report, live_report):
            assert report["survived"]
            assert report["chaos"]["plan"] == "replay"
            assert report["chaos"]["seed"] == 6
            assert report["chaos"]["stats"]["decisions"] > 0
