"""Wiring helpers for multi-process application experiments.

:func:`build_consensus_group` assembles the full mesh a consensus
experiment needs:

* every ordered pair of processes gets a fair-lossy link from the chosen
  network profile (built when it first carries a datagram);
* every process heartbeats every other process (one
  :class:`~repro.fd.heartbeat.Heartbeater` per destination) through a
  :class:`~repro.fd.simcrash.SimCrash` layer, so injected crashes silence
  a process entirely;
* every process runs one :class:`~repro.fd.detector.PushFailureDetector`
  per peer, built from a caller-supplied strategy factory (so the FD
  tuning under study is a single argument);
* a :class:`~repro.apps.consensus.ConsensusLayer` sits on top, consuming
  the local detectors as its ◇S oracle.

The per-process stack, top to bottom::

    ConsensusLayer
    Heartbeater(to peer 1) ... Heartbeater(to peer n-1)
    SimCrash
    MultiPlexer(PushFailureDetector per peer)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.consensus import ConsensusLayer, ConsensusResult
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem, SimulatedNetwork
from repro.nekostat.log import EventLog
from repro.net.wan import WanProfile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


@dataclass
class ConsensusGroup:
    """Everything :func:`build_consensus_group` wires together."""

    system: NekoSystem
    event_log: EventLog
    consensus: Dict[str, ConsensusLayer]
    detectors: Dict[Tuple[str, str], PushFailureDetector]
    simcrash: Dict[str, SimCrash]

    def propose_all(self, values: Dict[str, object]) -> None:
        """Have every process propose its value (skipping crashed ones)."""
        for address, layer in self.consensus.items():
            layer.propose(values[address])

    def decisions(self) -> Dict[str, Optional[ConsensusResult]]:
        """Current decision (or None) of every process."""
        return {address: layer.decision for address, layer in self.consensus.items()}

    def decided_values(self) -> List[object]:
        """The distinct values decided so far (agreement => length <= 1)."""
        values = {
            layer.decision.value
            for layer in self.consensus.values()
            if layer.decision is not None
        }
        return sorted(values, key=repr)


def build_consensus_group(
    sim: Simulator,
    group: Sequence[str],
    profile: WanProfile,
    strategy_factory: Callable[[], TimeoutStrategy],
    *,
    seed: int = 0,
    eta: float = 1.0,
    initial_timeout: float = 10.0,
    crash_schedules: Optional[Dict[str, Sequence[Tuple[float, float]]]] = None,
    retransmit_interval: float = 1.0,
) -> ConsensusGroup:
    """Assemble an N-process consensus group over a network profile.

    Parameters
    ----------
    group:
        Process addresses in coordinator-rotation order.
    strategy_factory:
        Builds a fresh :class:`TimeoutStrategy` for every (watcher,
        watched) detector — this is the FD tuning under study.
    crash_schedules:
        Optional per-process explicit ``(crash, restore)`` schedules for
        the SimCrash layers (processes without an entry never crash).
    """
    if len(group) < 2:
        raise ValueError("a consensus group needs at least 2 processes")
    event_log = EventLog()
    system = NekoSystem(
        sim,
        SimulatedNetwork(sim, profile, RandomStreams(seed), record_delays=False),
    )

    consensus_layers: Dict[str, ConsensusLayer] = {}
    detectors: Dict[Tuple[str, str], PushFailureDetector] = {}
    crash_layers: Dict[str, SimCrash] = {}

    for address in group:
        peers = [peer for peer in group if peer != address]
        local_detectors: Dict[str, PushFailureDetector] = {}

        consensus = ConsensusLayer(
            group,
            suspects=lambda peer, dets=local_detectors: (
                dets[peer].suspecting if peer in dets else False
            ),
            retransmit_interval=retransmit_interval,
        )

        for peer in peers:
            detector = PushFailureDetector(
                strategy_factory(),
                peer,
                eta,
                event_log,
                detector_id=f"{address}->{peer}",
                initial_timeout=initial_timeout,
                on_transition=lambda suspected, c=consensus, p=peer: (
                    c.on_suspicion_change(p, suspected)
                ),
            )
            local_detectors[peer] = detector
            detectors[(address, peer)] = detector

        heartbeaters: List[Layer] = [
            Heartbeater(peer, eta, event_log) for peer in peers
        ]
        schedule = (crash_schedules or {}).get(address)
        simcrash = SimCrash(
            1.0, 0.0, None, event_log,
            schedule=list(schedule) if schedule is not None else [],
        )
        crash_layers[address] = simcrash
        multiplexer = MultiPlexer(list(local_detectors.values()), event_log)
        stack = ProtocolStack(
            [consensus, *heartbeaters, simcrash, multiplexer]
        )
        system.create_process(address, stack)
        consensus_layers[address] = consensus

    return ConsensusGroup(
        system=system,
        event_log=event_log,
        consensus=consensus_layers,
        detectors=detectors,
        simcrash=crash_layers,
    )


__all__ = ["ConsensusGroup", "build_consensus_group"]
