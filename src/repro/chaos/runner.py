"""Scenario runners: one :class:`~repro.chaos.plan.FaultPlan`, three targets.

The same plan JSON can be replayed against

* the discrete-event QoS campaign system (:func:`run_sim_scenario`) —
  the :func:`~repro.experiments.runner.build_qos_system` architecture
  with every link routed through a :class:`~repro.chaos.link.ChaosLink`;
* the live asyncio loopback service (:func:`run_daemon_scenario`) — a
  real :class:`~repro.service.daemon.MonitorDaemon` and
  :class:`~repro.service.heartbeat.HeartbeatFleet` over real UDP
  sockets, with chaos intake shims on both sides;
* the simulated replicated KV store (:func:`run_kv_scenario`) — the
  :func:`~repro.kv.sim.run_kv_sim` system under a ``fault_plan``.

Each runner returns a JSON-able report with the same top-level shape
(``target``, ``survived``, ``chaos`` plus target-specific sections), so
the ``repro chaos`` CLI and the invariant tests can treat them uniformly.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.link import install_chaos
from repro.chaos.plan import FaultPlan
from repro.chaos.shim import attach_backend

DEFAULT_DETECTOR = "Last+CI_med"


def run_sim_scenario(
    plan: FaultPlan,
    *,
    duration: Optional[float] = None,
    eta: float = 0.1,
    detector_ids: Optional[Sequence[str]] = None,
    profile_name: str = "italy-japan",
    seed: int = 2005,
    mttc: float = 1e9,
    ttr: float = 0.0,
) -> Dict[str, Any]:
    """Replay ``plan`` against the batch QoS experiment system.

    Crash injection is effectively disabled by default (``mttc=1e9``) so
    every detector mistake is attributable to the plan's faults.  The
    run covers at least the plan horizon plus a recovery tail.
    """
    from repro.experiments.runner import build_qos_system
    from repro.kv.sim import qos_brief
    from repro.neko.config import ExperimentConfig
    from repro.neko.system import SimulatedNetwork
    from repro.nekostat.metrics import extract_qos

    ids = list(detector_ids) if detector_ids else [DEFAULT_DETECTOR]
    if duration is None:
        duration = max(plan.horizon * 1.5, 60.0)
    config = ExperimentConfig(
        num_cycles=max(1, math.ceil(duration / eta)),
        mttc=mttc,
        ttr=ttr,
        eta=eta,
        profile_name=profile_name,
        seed=seed,
    )
    parts = build_qos_system(config, ids)
    engine = ChaosEngine(plan)
    network = parts["system"].network  # type: ignore[attr-defined]
    assert isinstance(network, SimulatedNetwork)
    install_chaos(network, engine)
    parts["system"].run(until=config.duration)  # type: ignore[attr-defined]
    qos = extract_qos(
        parts["event_log"], end_time=config.duration, detectors=ids
    )
    detectors = parts["detectors"]
    link = parts["link"]
    return {
        "target": "sim",
        "survived": True,
        "chaos": engine.report(),
        "duration": config.duration,
        "eta": eta,
        "heartbeats_sent": parts["heartbeater"].sent,  # type: ignore[attr-defined]
        "link": {
            "delivered": link.stats.delivered,  # type: ignore[attr-defined]
            "loss_rate": link.stats.loss_rate,  # type: ignore[attr-defined]
        },
        "qos": {
            detector_id: qos_brief(qos[detector_id]) for detector_id in ids
        },
        "suspecting_at_end": {
            detector_id: bool(detector.suspecting)
            for detector_id, detector in detectors.items()  # type: ignore[attr-defined]
        },
    }


async def run_daemon_scenario_async(
    plan: FaultPlan,
    *,
    duration: float = 8.0,
    eta: float = 0.25,
    endpoints: Sequence[str] = ("node-1", "node-2"),
    detector_ids: Optional[Sequence[str]] = None,
    with_history: bool = False,
    max_intake_rate: Optional[float] = None,
    trace_path: Optional[str] = None,
    drift_window: int = 0,
    drift_interval: float = 1.0,
) -> Dict[str, Any]:
    """Run the live loopback service under ``plan`` (coroutine form).

    A real :class:`MonitorDaemon` and a real :class:`HeartbeatFleet`
    exchange UDP datagrams on loopback for ``duration`` wall-clock
    seconds; chaos intake shims on both components replay the plan.

    ``trace_path`` records every span — emitter ``send`` spans included,
    the fleet shares the daemon's recorder — to a JSONL file, and the
    report then carries per-series online QoS so ``repro trace-analyze``
    output can be checked against the live accumulators.
    ``drift_window > 0`` runs the online drift monitor and appends its
    final evaluation to the report.
    """
    from repro.service.daemon import MonitorDaemon
    from repro.service.heartbeat import HeartbeatFleet

    history = None
    if with_history:
        from repro.obs.history import WindowedQosStore

        history = WindowedQosStore(":memory:", retention=3600.0)
    tracer = None
    if trace_path is not None:
        from repro.obs.trace import TraceRecorder

        tracer = TraceRecorder(trace_path)
    daemon = MonitorDaemon(
        port=0,
        http_port=None,
        eta=eta,
        detector_ids=list(detector_ids) if detector_ids else [DEFAULT_DETECTOR],
        tracer=tracer,
        history=history,
        snapshot_interval=1.0 if with_history else 0.0,
        max_intake_rate=max_intake_rate,
        drift_window=drift_window,
        drift_interval=drift_interval,
    )
    engine = ChaosEngine(plan)
    daemon_intake = attach_backend(engine, daemon.network, name="daemon")
    await daemon.start()
    daemon_intake.arm(daemon.scheduler.now)
    host, port = daemon.udp_endpoint
    fleet = HeartbeatFleet(list(endpoints), (host, port), eta=eta, tracer=tracer)
    attach_backend(engine, fleet.network, name="fleet")
    await fleet.start()
    try:
        # fdlint: disable=clock-discipline (live loopback scenario; duration is wall-clock by contract)
        await asyncio.sleep(duration)
        survived = daemon.running and fleet.running
        now = daemon.scheduler.now
        per_endpoint: Dict[str, Any] = {}
        for monitor in daemon.registry:
            suspecting = monitor.suspecting()
            entry: Dict[str, Any] = {
                "heartbeats": monitor.heartbeats,
                "suspecting_at_end": any(suspecting.values()),
            }
            if trace_path is not None:
                entry["qos"] = {
                    detector_id: qos_brief_live(qos)
                    for detector_id, qos in monitor.snapshot(now).items()
                }
            per_endpoint[monitor.name] = entry
        report: Dict[str, Any] = {
            "target": "daemon",
            "survived": survived,
            "chaos": engine.report(),
            "duration": duration,
            "eta": eta,
            "now": now,
            "fleet_sent": fleet.total_sent(),
            "daemon": {
                "heartbeats_total": daemon.heartbeats_total,
                "dropped_datagrams": daemon.dropped_datagrams,
                "shed_datagrams": daemon.shed_datagrams,
                "send_errors_total": daemon.send_errors_total,
                "component_restarts": dict(daemon.component_restarts),
                "uptime": max(0.0, now - daemon.started_at),
            },
            "endpoints": per_endpoint,
        }
        if trace_path is not None:
            report["trace_path"] = trace_path
        if daemon.drift is not None:
            report["drift"] = daemon.drift.evaluate(now)
        if history is not None:
            report["history"] = {
                "degraded": history.degraded,
                "degradations_total": history.degradations_total,
            }
        return report
    finally:
        await fleet.stop()
        await daemon.stop()


def qos_brief_live(qos: Any) -> Dict[str, Any]:
    """A JSON-able brief of one online accumulator snapshot."""
    t_d = qos.t_d
    t_m = qos.t_m
    return {
        "mistakes": len(qos.mistakes),
        "td_samples": len(qos.td_samples),
        "t_d_mean": t_d.mean if t_d else None,
        "t_m_mean": t_m.mean if t_m else None,
        "p_a": qos.p_a,
        "undetected_crashes": qos.undetected_crashes,
    }


def run_daemon_scenario(plan: FaultPlan, **kwargs: Any) -> Dict[str, Any]:
    """Blocking wrapper around :func:`run_daemon_scenario_async`."""
    duration = float(kwargs.get("duration", 8.0))
    return asyncio.run(
        asyncio.wait_for(
            run_daemon_scenario_async(plan, **kwargs), timeout=duration + 60.0
        )
    )


def run_kv_scenario(
    plan: FaultPlan,
    *,
    nodes: int = 3,
    clients: int = 2,
    duration: Optional[float] = None,
    eta: float = 0.1,
    detector_id: str = DEFAULT_DETECTOR,
    profile_name: str = "italy-japan",
    seed: int = 0,
    write_concern: Optional[int] = None,
    crashes: Tuple[Tuple[int, float, float], ...] = (),
) -> Dict[str, Any]:
    """Replay ``plan`` against the simulated replicated KV store.

    Defaults to full write concern (every backup acks) and no process
    crashes, so any acked-write loss or unavailability in the report is
    the plan's doing.
    """
    from repro.kv.sim import KvSimConfig, run_kv_sim

    if duration is None:
        duration = max(plan.horizon * 1.5, 60.0)
    if write_concern is None:
        write_concern = nodes - 1
    config = KvSimConfig(
        nodes=nodes,
        clients=clients,
        duration=duration,
        eta=eta,
        detector_id=detector_id,
        profile_name=profile_name,
        seed=seed,
        write_concern=write_concern,
        crashes=tuple(crashes),
        fault_plan=plan,
    )
    result = run_kv_sim(config)
    return {
        "target": "kv",
        "survived": True,
        "chaos": result.chaos,
        "duration": duration,
        "eta": eta,
        "summary": result.summary.to_dict(),
        "views": len(result.views),
        "detector_qos": {
            name: {"mistakes": len(qos.mistakes)}
            for name, qos in sorted(result.detector_qos.items())
        },
    }


__all__ = [
    "DEFAULT_DETECTOR",
    "run_daemon_scenario",
    "run_daemon_scenario_async",
    "run_kv_scenario",
    "run_sim_scenario",
]
