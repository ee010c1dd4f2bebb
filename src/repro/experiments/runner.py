"""Builds and runs the paper's experimental architecture (Figure 3).

The distributed system has two Neko processes:

* ``monitored`` — stack ``[Heartbeater, SimCrash]``; the heartbeater sends
  every ``eta``, SimCrash injects crash/repair cycles;
* ``monitor`` — stack ``[MultiPlexer(DetectorBank, extras...)]``; the
  fused bank holds all failure-detector combinations, so they perceive
  identical network conditions by construction, and the MultiPlexer feeds
  any extra monitor layers the same arrivals.

The two are connected by a fair-lossy link built from the configured
:class:`~repro.net.wan.WanProfile`.  An :class:`~repro.nekostat.log.EventLog`
plus :class:`~repro.nekostat.handler.FDStatHandler` collect everything the
QoS metrics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.clocks.clock import Clock, DriftingClock, PerfectClock
from repro.fd.bank import make_detector_bank
from repro.fd.combinations import combination_ids
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.neko.config import ExperimentConfig
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem, SimulatedNetwork
from repro.nekostat.handler import FDStatHandler
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import DetectorQos, extract_qos, query_accuracy
from repro.nekostat.stats import SummaryStats, summarize
from repro.net.wan import get_profile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

MONITORED = "monitored"
MONITOR = "monitor"


@dataclass
class QosRunResult:
    """Everything produced by one experiment run."""

    config: ExperimentConfig
    qos: Dict[str, DetectorQos]
    event_log: EventLog
    heartbeats_sent: int
    heartbeats_delivered: int
    link_loss_rate: float
    crashes: int


@dataclass
class QosRunSummary:
    """A pickle-light :class:`QosRunResult`: QoS samples and counters only.

    Worker processes of the parallel campaign runner return these instead
    of full results — shipping the :class:`EventLog` (hundreds of
    thousands of events per run) back through the pickle pipe would cost
    more than the run itself.  Everything :func:`aggregate_runs` and the
    reporting layer consume is preserved.
    """

    config: ExperimentConfig
    qos: Dict[str, DetectorQos]
    heartbeats_sent: int
    heartbeats_delivered: int
    link_loss_rate: float
    crashes: int

    @classmethod
    def from_result(cls, result: QosRunResult) -> "QosRunSummary":
        """Strip the event log off a full run result."""
        return cls(
            config=result.config,
            qos=result.qos,
            heartbeats_sent=result.heartbeats_sent,
            heartbeats_delivered=result.heartbeats_delivered,
            link_loss_rate=result.link_loss_rate,
            crashes=result.crashes,
        )


@dataclass
class AggregatedQos:
    """QoS samples pooled over several independent runs of one detector."""

    detector: str
    td_samples: List[float] = field(default_factory=list)
    tm_samples: List[float] = field(default_factory=list)
    tmr_samples: List[float] = field(default_factory=list)
    undetected_crashes: int = 0
    up_time: float = 0.0
    suspected_up_time: float = 0.0

    @property
    def t_d(self) -> Optional[SummaryStats]:
        """Pooled detection-time summary."""
        return summarize(self.td_samples) if self.td_samples else None

    @property
    def t_d_upper(self) -> Optional[float]:
        """Pooled maximum observed detection time."""
        return max(self.td_samples) if self.td_samples else None

    @property
    def t_m(self) -> Optional[SummaryStats]:
        """Pooled mistake-duration summary."""
        return summarize(self.tm_samples) if self.tm_samples else None

    @property
    def t_mr(self) -> Optional[SummaryStats]:
        """Pooled mistake-recurrence summary."""
        return summarize(self.tmr_samples) if self.tmr_samples else None

    @property
    def p_a(self) -> float:
        """Query accuracy probability from the pooled means."""
        return query_accuracy(self.t_m, self.t_mr)

    @property
    def empirical_p_a(self) -> float:
        """Pooled fraction of up-time spent trusting."""
        if self.up_time <= 0:
            return 1.0
        return max(0.0, 1.0 - self.suspected_up_time / self.up_time)


def build_qos_system(
    config: ExperimentConfig,
    detector_ids: Sequence[str],
    *,
    extra_monitor_layers: Optional[Callable[[EventLog], Sequence[Layer]]] = None,
    record_events: bool = False,
) -> Dict[str, object]:
    """Assemble the experiment; returns the wired components by name.

    Keys of the returned dict: ``sim``, ``system``, ``event_log``,
    ``handler``, ``heartbeater``, ``simcrash``, ``multiplexer``,
    ``detectors`` (the :class:`~repro.fd.bank.DetectorBank`, a mapping
    from detector id to its view), ``link``.
    """
    sim = Simulator()
    streams = RandomStreams(config.seed)
    profile = get_profile(config.profile_name)
    event_log = EventLog()
    handler = FDStatHandler(event_log)

    system = NekoSystem(sim)
    network = system.network
    assert isinstance(network, SimulatedNetwork)
    link = network.set_link_profile(
        MONITORED, MONITOR, profile, streams, record_delays=False
    )
    # Reverse path for protocols that need it (pull detectors, NTP).
    network.set_link_profile(MONITOR, MONITORED, profile, streams, record_delays=False)

    heartbeater = Heartbeater(
        MONITOR, config.eta, event_log, record_sent_events=record_events
    )
    simcrash = SimCrash(
        config.mttc,
        config.ttr,
        streams.get("simcrash"),
        event_log,
    )
    monitored_stack = ProtocolStack([heartbeater, simcrash])

    initial_timeout = config.extras.get("initial_timeout", 10.0 * config.eta)
    detectors = make_detector_bank(
        MONITORED,
        config.eta,
        event_log,
        detector_ids,
        initial_timeout=initial_timeout,
    )
    uppers: List[Layer] = [detectors]
    if extra_monitor_layers is not None:
        uppers.extend(extra_monitor_layers(event_log))
    multiplexer = MultiPlexer(uppers, event_log, record_received_events=record_events)
    monitor_stack = ProtocolStack([multiplexer])

    system.create_process(MONITORED, monitored_stack, clock=PerfectClock(sim))
    monitor_clock: Clock
    if config.clock_offset or config.clock_drift:
        monitor_clock = DriftingClock(
            sim, offset=config.clock_offset, drift=config.clock_drift
        )
    else:
        monitor_clock = PerfectClock(sim)
    system.create_process(MONITOR, monitor_stack, clock=monitor_clock)

    return {
        "sim": sim,
        "system": system,
        "event_log": event_log,
        "handler": handler,
        "heartbeater": heartbeater,
        "simcrash": simcrash,
        "multiplexer": multiplexer,
        "detectors": detectors,
        "link": link,
    }


def run_qos_experiment(
    config: ExperimentConfig,
    detector_ids: Optional[Sequence[str]] = None,
    **build_kwargs,
) -> QosRunResult:
    """Run one complete QoS experiment and extract per-detector QoS."""
    if detector_ids is None:
        detector_ids = combination_ids()
    parts = build_qos_system(config, detector_ids, **build_kwargs)
    system: NekoSystem = parts["system"]  # type: ignore[assignment]
    system.run(until=config.duration)
    event_log: EventLog = parts["event_log"]  # type: ignore[assignment]
    qos = extract_qos(event_log, end_time=config.duration, detectors=list(detector_ids))
    heartbeater: Heartbeater = parts["heartbeater"]  # type: ignore[assignment]
    simcrash: SimCrash = parts["simcrash"]  # type: ignore[assignment]
    link = parts["link"]
    return QosRunResult(
        config=config,
        qos=qos,
        event_log=event_log,
        heartbeats_sent=heartbeater.sent,
        heartbeats_delivered=link.stats.delivered,  # type: ignore[attr-defined]
        link_loss_rate=link.stats.loss_rate,  # type: ignore[attr-defined]
        crashes=simcrash.crash_count,
    )


def run_repetitions(
    config: ExperimentConfig,
    runs: int,
    detector_ids: Optional[Sequence[str]] = None,
    *,
    workers: Optional[int] = 1,
    engine: str = "simulator",
    **build_kwargs,
) -> List[QosRunResult]:
    """Run ``runs`` independent repetitions (the paper performed 13).

    With ``workers`` > 1 (or ``workers=None`` = one per core) the
    repetitions are fanned out over a process pool (see
    :mod:`repro.experiments.parallel`) and the returned list holds
    pickle-light :class:`QosRunSummary` objects instead of full
    :class:`QosRunResult` — same seeds, same per-run QoS, same order, but
    without the per-run event logs.  ``build_kwargs`` (which may carry
    arbitrary callables) are only supported on the serial path.

    ``engine="replay"`` routes every repetition through the vectorized
    trace-replay fast path (:mod:`repro.experiments.replay_engine`):
    same seeds, same traces, same pooled QoS — orders of magnitude
    faster — but restricted to crash-free, perfect-clock configurations
    and replay-supported combinations (all 30 paper ones are).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if engine not in ("simulator", "replay"):
        raise ValueError(
            f'engine must be "simulator" or "replay", got {engine!r}'
        )
    if engine == "replay":
        if build_kwargs:
            raise ValueError(
                'engine="replay" does not support build_kwargs '
                f"(got {sorted(build_kwargs)}); they configure the "
                "event-driven system"
            )
        from repro.experiments.replay_engine import run_repetitions_replay

        return run_repetitions_replay(  # type: ignore[return-value]
            config, runs, detector_ids, workers=workers
        )
    if workers is None or workers > 1:
        if build_kwargs:
            raise ValueError(
                "workers > 1 does not support build_kwargs "
                f"(got {sorted(build_kwargs)}); run serially instead"
            )
        from repro.experiments.parallel import run_repetitions_parallel

        return run_repetitions_parallel(  # type: ignore[return-value]
            config, runs, detector_ids, workers=workers
        )
    return [
        run_qos_experiment(config.with_run(run_id), detector_ids, **build_kwargs)
        for run_id in range(runs)
    ]


def aggregate_runs(
    results: Sequence[Union[QosRunResult, QosRunSummary]],
) -> Dict[str, AggregatedQos]:
    """Pool the QoS samples of several runs, per detector.

    Accepts full results and the parallel runner's light summaries alike —
    only the per-detector QoS samples are consumed.
    """
    if not results:
        raise ValueError("no results to aggregate")
    pooled: Dict[str, AggregatedQos] = {}
    for result in results:
        for detector_id, qos in result.qos.items():
            aggregate = pooled.setdefault(detector_id, AggregatedQos(detector_id))
            aggregate.td_samples.extend(qos.td_samples)
            aggregate.tm_samples.extend([end - start for start, end in qos.mistakes])
            aggregate.tmr_samples.extend(qos.tmr_samples)
            aggregate.undetected_crashes += qos.undetected_crashes
            aggregate.up_time += qos.up_time
            aggregate.suspected_up_time += qos.suspected_up_time
    return pooled


__all__ = [
    "AggregatedQos",
    "MONITOR",
    "MONITORED",
    "QosRunResult",
    "QosRunSummary",
    "aggregate_runs",
    "build_qos_system",
    "run_qos_experiment",
    "run_repetitions",
]
