"""Deterministic end-to-end KV runs on the simulated WAN.

:func:`run_kv_sim` assembles the whole system on one discrete-event
engine — replicas, failure-detector-driven controller, seeded closed-loop
clients — over the paper's calibrated WAN delay/loss models, runs it for
a configured duration with a crash schedule, and returns both layers of
QoS:

* the **user-visible** :class:`~repro.kv.metrics.KvRunSummary`
  (unavailability, failed/stale reads, write loss, promotion delay);
* the **raw detector** :class:`~repro.nekostat.metrics.DetectorQos` per
  node (T_D, T_M, T_MR), extracted from one event log per node so the
  same combination id never collides across replicas.

The wiring mirrors :func:`repro.apps.harness.build_consensus_group`:

* node stack (top→bottom): ``KvNodeLayer`` /
  ``Heartbeater(→controller)`` / ``SimCrash`` — a crash silences both
  the replica protocol and its heartbeats;
* controller stack: ``FailoverControllerLayer`` / ``MultiPlexer`` over
  a one-row detector bank per node, all built via
  :func:`repro.fd.bank.make_detector_bank`;
* client stacks: a bare ``KvClientLayer``.

Everything random flows from one :class:`~repro.sim.random.RandomStreams`
root, so the run is a pure function of its config — the property the
hypothesis byte-stability test asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.link import install_chaos
from repro.chaos.plan import FaultPlan
from repro.fd.bank import make_detector_bank
from repro.fd.combinations import parse_combination_id
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.kv.client import KvClientLayer, OpRecord
from repro.kv.failover import FailoverControllerLayer, ViewChange
from repro.kv.metrics import KvRunSummary, compute_summary, primary_at
from repro.kv.node import KvNodeCore, KvNodeLayer
from repro.kv.workload import WorkloadSpec
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem, SimulatedNetwork
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import DetectorQos, extract_qos
from repro.net.wan import get_profile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

CONTROLLER = "controller"


@dataclass(frozen=True)
class KvSimConfig:
    """Everything one simulated KV run depends on."""

    nodes: int = 3
    clients: int = 2
    duration: float = 120.0
    eta: float = 0.1
    detector_id: str = "Last+CI_med"
    profile_name: str = "italy-japan"
    seed: int = 0
    write_concern: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    initial_timeout: float = 1.0
    rebroadcast_interval: float = 2.0
    #: Explicit crash schedule: ``(node_index, crash_time, restore_time)``
    #: tuples.  ``None`` selects the default single primary crash at 40%
    #: of the run, restored at 70%.
    crashes: Optional[Tuple[Tuple[int, float, float], ...]] = None
    #: Optional chaos scenario injected into every link of the run.
    #: The plan timeline is anchored at sim time 0.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.nodes!r}")
        if self.clients < 1:
            raise ValueError(f"need at least 1 client, got {self.clients!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta!r}")
        if not 0 <= self.write_concern < self.nodes:
            raise ValueError(
                f"write_concern must be in [0, {self.nodes - 1}], "
                f"got {self.write_concern!r}"
            )
        parse_combination_id(self.detector_id)  # Raises on unknown ids.
        for node_index, crash_time, restore_time in self.crashes or ():
            if not 0 <= node_index < self.nodes:
                raise ValueError(f"crash index {node_index!r} out of range")
            if not 0 <= crash_time <= restore_time:
                raise ValueError(
                    f"crash schedule must satisfy 0 <= crash <= restore, "
                    f"got ({crash_time!r}, {restore_time!r})"
                )

    @property
    def node_names(self) -> List[str]:
        return [f"node{index}" for index in range(self.nodes)]

    @property
    def client_names(self) -> List[str]:
        return [f"client{index}" for index in range(self.clients)]

    def crash_schedule(self) -> Tuple[Tuple[int, float, float], ...]:
        """The effective schedule (default: one primary crash)."""
        if self.crashes is not None:
            return self.crashes
        return ((0, 0.4 * self.duration, 0.7 * self.duration),)


def qos_brief(qos: DetectorQos) -> Dict[str, Any]:
    """A compact JSON-able digest of one detector's raw QoS."""
    t_d = qos.t_d
    t_m = qos.t_m
    return {
        "td_mean": t_d.mean if t_d is not None else None,
        "td_max": qos.t_d_upper,
        "td_samples": len(qos.td_samples),
        "tm_mean": t_m.mean if t_m is not None else None,
        "mistakes": len(qos.mistakes),
        "mistake_rate": qos.mistake_rate,
        "empirical_p_a": qos.empirical_p_a,
        "undetected_crashes": qos.undetected_crashes,
    }


@dataclass
class KvSimResult:
    """One run's outputs: both QoS layers plus the raw materials."""

    config: KvSimConfig
    summary: KvRunSummary
    detector_qos: Dict[str, DetectorQos]
    records: List[OpRecord]
    views: List[Tuple[float, ViewChange]]
    primary_crash_times: List[float]
    #: Fault-injection report when the config carried a ``fault_plan``.
    chaos: Optional[Dict[str, Any]] = None

    def canonical_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-able digest of the entire run."""
        return {
            "summary": self.summary.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "views": [
                [installed_at, view.epoch, view.primary]
                for installed_at, view in self.views
            ],
            "detector_qos": {
                node: qos_brief(qos) for node, qos in sorted(self.detector_qos.items())
            },
        }

    def canonical_json(self) -> str:
        """The byte-stability fixture: same config ⇒ identical string."""
        return json.dumps(self.canonical_dict(), sort_keys=True)


def run_kv_sim(config: KvSimConfig) -> KvSimResult:
    """Run one deterministic simulated KV experiment."""
    sim = Simulator()
    streams = RandomStreams(config.seed)
    network = SimulatedNetwork(
        sim, get_profile(config.profile_name), streams, record_delays=False
    )
    system = NekoSystem(sim, network)

    node_names = config.node_names
    client_names = config.client_names

    chaos_engine: Optional[ChaosEngine] = None
    if config.fault_plan is not None:
        chaos_engine = ChaosEngine(config.fault_plan)
        install_chaos(network, chaos_engine)

    # Controller: one detector per node, each writing suspicion events
    # into that node's own event log (combination ids collide across
    # nodes otherwise — see repro.fd.bank).
    controller = FailoverControllerLayer(
        node_names,
        node_names + client_names,
        rebroadcast_interval=config.rebroadcast_interval,
    )
    node_logs: Dict[str, EventLog] = {name: EventLog() for name in node_names}
    banks = []
    for name in node_names:
        bank = make_detector_bank(
            name,
            config.eta,
            node_logs[name],
            [config.detector_id],
            initial_timeout=config.initial_timeout,
            on_transition_factory=lambda _detector_id, node=name: (
                lambda suspected: controller.on_transition(node, suspected)
            ),
        )
        banks.append(bank)
    system.create_process(
        CONTROLLER, ProtocolStack([controller, MultiPlexer(banks, EventLog())])
    )

    # Replicas: protocol layer over a heartbeater over crash injection.
    schedules: Dict[int, List[Tuple[float, float]]] = {}
    for node_index, crash_time, restore_time in config.crash_schedule():
        schedules.setdefault(node_index, []).append((crash_time, restore_time))
    cores: Dict[str, KvNodeCore] = {}
    for index, name in enumerate(node_names):
        core = KvNodeCore(name, node_names, write_concern=config.write_concern)
        cores[name] = core
        layers: List[Layer] = [
            KvNodeLayer(core),
            Heartbeater(CONTROLLER, config.eta, node_logs[name]),
            SimCrash(
                1.0, 0.0, None, node_logs[name],
                schedule=sorted(schedules.get(index, [])),
            ),
        ]
        system.create_process(name, ProtocolStack(layers))

    # Clients: seeded closed-loop traffic.
    client_layers: Dict[str, KvClientLayer] = {}
    for name in client_names:
        client = KvClientLayer(
            node_names, config.workload, streams.get(f"kv.client.{name}")
        )
        client_layers[name] = client
        system.create_process(name, ProtocolStack([client]))

    system.start()
    sim.run(until=config.duration)

    for client in client_layers.values():
        client.flush(config.duration)
    controller.stop()

    views = list(controller.view_log)
    primary_crash_times = [
        crash_time
        for node_index, crash_time, _restore in config.crash_schedule()
        if primary_at(views, crash_time) == node_names[node_index]
    ]
    records: List[OpRecord] = []
    for name in client_names:
        records.extend(client_layers[name].records)
    summary = compute_summary(
        records,
        views,
        {name: cores[name].store for name in node_names},
        primary_crash_times=primary_crash_times,
    )
    detector_qos = {
        name: extract_qos(
            node_logs[name],
            end_time=config.duration,
            detectors=[config.detector_id],
        )[config.detector_id]
        for name in node_names
    }
    return KvSimResult(
        config=config,
        summary=summary,
        detector_qos=detector_qos,
        records=records,
        views=views,
        primary_crash_times=primary_crash_times,
        chaos=chaos_engine.report() if chaos_engine is not None else None,
    )


__all__ = ["CONTROLLER", "KvSimConfig", "KvSimResult", "qos_brief", "run_kv_sim"]
