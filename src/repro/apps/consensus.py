"""Rotating-coordinator consensus over an unreliable failure detector.

The paper's reference [6] (Coccoli, Urbán, Bondavalli & Schiper, DSN
2002) studies how failure-detector QoS shapes the QoS of a consensus
algorithm built on it.  This module implements the algorithm family in
question — Chandra–Toueg style ◇S consensus with a rotating coordinator —
on the Neko framework, consuming the reproduction's failure detectors as
live oracles, so the same relation can be measured here (see
``benchmarks/test_bench_consensus.py``).

The protocol, per round ``r`` with coordinator ``c = group[r mod n]``:

1. every process sends its current ``(estimate, ts)`` to the coordinator;
2. the coordinator waits for a majority of estimates, adopts the one with
   the highest timestamp, and broadcasts it as the round's *proposal*;
3. a process that receives the proposal adopts it (``ts = r``) and ACKs;
   a process whose failure detector suspects the coordinator NACKs and
   moves to the next round (the ◇S escape hatch);
4. on a majority of ACKs the coordinator decides and floods the decision;
   any process receiving a decision adopts it, re-floods once, and stops.

Two engineering additions keep the protocol live on *fair-lossy* links
(Chandra–Toueg assume reliable channels):

* every process retransmits its current-phase message every
  ``retransmit_interval`` until the phase advances;
* decisions are flooded (each process forwards the first decision it
  sees to everyone), which makes decision delivery reliable with
  overwhelming probability under independent or bursty loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.neko.layer import Layer
from repro.net.message import Datagram
from repro.sim.process import PeriodicTimer


@dataclass
class ConsensusResult:
    """Outcome of one consensus instance at one process."""

    value: Any
    round: int
    decided_at: float


class ConsensusLayer(Layer):
    """One process's consensus module.

    Parameters
    ----------
    group:
        All member addresses, in coordinator-rotation order; must be
        identical at every process.
    suspects:
        Oracle ``suspects(address) -> bool`` giving the local failure
        detector's current opinion of ``address``.  Wire it to
        :attr:`~repro.fd.detector.DetectorView.suspecting` (one
        detector row per peer) or to any other detector implementation.
    on_decide:
        Optional callback ``on_decide(result)`` fired once, on decision.
    retransmit_interval:
        Period of the phase retransmission timer, seconds.
    """

    def __init__(
        self,
        group: Sequence[str],
        suspects: Callable[[str], bool],
        *,
        on_decide: Optional[Callable[[ConsensusResult], None]] = None,
        retransmit_interval: float = 1.0,
    ) -> None:
        super().__init__(name="Consensus")
        if len(group) < 2:
            raise ValueError("consensus needs a group of at least 2")
        if len(set(group)) != len(group):
            raise ValueError("group members must be distinct")
        if retransmit_interval <= 0:
            raise ValueError("retransmit_interval must be > 0")
        self.group = list(group)
        self._suspects = suspects
        self._on_decide = on_decide
        self._retransmit_interval = float(retransmit_interval)

        self.round = 0
        self._estimate: Any = None
        self._estimate_ts = -1
        self._proposed = False
        self._phase = "idle"  # idle | estimate | ack | done
        self._acked_round: Optional[int] = None
        self._collected_estimates: Dict[int, Dict[str, Tuple[Any, int]]] = {}
        self._collected_acks: Dict[int, Set[str]] = {}
        self._proposals_sent: Set[int] = set()
        self._decision_forwarded = False
        self._retransmit_timer: Optional[PeriodicTimer] = None
        self.decision: Optional[ConsensusResult] = None
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def majority(self) -> int:
        """Messages needed for a majority quorum."""
        return len(self.group) // 2 + 1

    @property
    def decided(self) -> bool:
        """Whether this process has decided."""
        return self.decision is not None

    def coordinator(self, round_number: Optional[int] = None) -> str:
        """The coordinator of ``round_number`` (default: current round)."""
        r = self.round if round_number is None else round_number
        return self.group[r % len(self.group)]

    def propose(self, value: Any) -> None:
        """Start this consensus instance with an initial value."""
        if self._proposed:
            raise RuntimeError("propose() may be called only once")
        self._proposed = True
        self._estimate = value
        self._estimate_ts = 0
        self._enter_round(0)
        if self._retransmit_timer is None:
            self._retransmit_timer = self.process.periodic_timer(
                self._retransmit_interval, self._retransmit, name="cons-retx"
            )
            self._retransmit_timer.start()

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------
    def _enter_round(self, round_number: int) -> None:
        if self.decided:
            return
        self.round = round_number
        coordinator = self.coordinator()
        if self._suspects(coordinator) and coordinator != self.process.address:
            # Skip rounds whose coordinator is already suspected.
            self._send(coordinator, "cons-nack", round_number)
            self._enter_round(round_number + 1)
            return
        self._phase = "estimate"
        self._send(coordinator, "cons-estimate", round_number,
                   payload=[self._estimate, self._estimate_ts])

    def on_suspicion_change(self, peer: str, suspected: bool) -> None:
        """Feed a live FD transition (wire to the detector's callback).

        Only a *new suspicion of the current coordinator* matters: it makes
        the process NACK and move on (the ◇S escape).
        """
        if self.decided or not self._proposed:
            return
        if suspected and peer == self.coordinator():
            self._send(peer, "cons-nack", self.round)
            self._enter_round(self.round + 1)

    def _retransmit(self, _tick: int) -> None:
        if self.decided or not self._proposed:
            return
        # Check the oracle (covers suspicions raised while we were idle in
        # a phase) and retransmit the current phase message.
        coordinator = self.coordinator()
        if self._suspects(coordinator) and coordinator != self.process.address:
            self._send(coordinator, "cons-nack", self.round)
            self._enter_round(self.round + 1)
            return
        if self._phase == "estimate":
            self._send(coordinator, "cons-estimate", self.round,
                       payload=[self._estimate, self._estimate_ts])
        elif self._phase == "ack" and self._acked_round is not None:
            self._send(self.coordinator(self._acked_round), "cons-ack",
                       self._acked_round)
        if coordinator == self.process.address and self.round in self._proposals_sent:
            self._broadcast("cons-propose", self.round, payload=self._estimate)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Datagram) -> None:
        if not message.kind.startswith("cons-"):
            self.deliver_up(message)
            return
        if message.seq is None:
            raise ValueError(f"consensus message without round: {message!r}")
        handler = {
            "cons-estimate": self._on_estimate,
            "cons-propose": self._on_propose,
            "cons-ack": self._on_ack,
            "cons-nack": self._on_nack,
            "cons-decide": self._on_decision,
        }.get(message.kind)
        if handler is None:
            raise ValueError(f"unknown consensus message kind {message.kind!r}")
        handler(message)

    def _on_estimate(self, message: Datagram) -> None:
        if self.decided:
            self._send_decision_to(message.source)
            return
        round_number = message.seq
        value, ts = message.payload
        estimates = self._collected_estimates.setdefault(round_number, {})
        estimates[message.source] = (value, ts)
        self._maybe_propose(round_number)

    def _maybe_propose(self, round_number: int) -> None:
        if self.coordinator(round_number) != self.process.address:
            return
        if round_number in self._proposals_sent:
            return
        estimates = self._collected_estimates.get(round_number, {})
        if len(estimates) < self.majority:
            return
        # Adopt the estimate with the highest timestamp (CT rule).
        value, _ts = max(estimates.values(), key=lambda item: item[1])
        self._estimate = value
        self._estimate_ts = round_number
        self._proposals_sent.add(round_number)
        self._broadcast("cons-propose", round_number, payload=value)

    def _on_propose(self, message: Datagram) -> None:
        if self.decided:
            self._send_decision_to(message.source)
            return
        round_number = message.seq
        if round_number < self.round:
            return  # stale round
        if round_number > self.round:
            self._enter_round(round_number)
        self._estimate = message.payload
        self._estimate_ts = round_number
        self._phase = "ack"
        self._acked_round = round_number
        self._send(message.source, "cons-ack", round_number)

    def _on_ack(self, message: Datagram) -> None:
        if self.decided:
            return
        round_number = message.seq
        if self.coordinator(round_number) != self.process.address:
            return
        acks = self._collected_acks.setdefault(round_number, set())
        acks.add(message.source)
        # The coordinator's own adoption counts towards the quorum.
        acks.add(self.process.address)
        if len(acks) >= self.majority and round_number in self._proposals_sent:
            self._decide(self._estimate, round_number)

    def _on_nack(self, message: Datagram) -> None:
        if self.decided:
            self._send_decision_to(message.source)
            return
        round_number = message.seq
        if self.coordinator(round_number) != self.process.address:
            return
        if round_number >= self.round and self.process.address in self.group:
            # Our round failed; move on with everyone else.
            if round_number + 1 > self.round:
                self._enter_round(round_number + 1)

    def _on_decision(self, message: Datagram) -> None:
        self._adopt_decision(message.payload[0], message.payload[1])

    # ------------------------------------------------------------------
    # Deciding
    # ------------------------------------------------------------------
    def _decide(self, value: Any, round_number: int) -> None:
        self._adopt_decision(value, round_number)
        self._broadcast("cons-decide", round_number, payload=[value, round_number])

    def _adopt_decision(self, value: Any, round_number: int) -> None:
        if self.decided:
            return
        self.decision = ConsensusResult(
            value=value, round=round_number, decided_at=self.process.sim.now
        )
        self._phase = "done"
        if self._retransmit_timer is not None:
            self._retransmit_timer.stop()
        if not self._decision_forwarded:
            self._decision_forwarded = True
            self._broadcast("cons-decide", round_number, payload=[value, round_number])
        if self._on_decide is not None:
            self._on_decide(self.decision)

    def _send_decision_to(self, destination: str) -> None:
        assert self.decision is not None
        self._send(
            destination, "cons-decide", self.decision.round,
            payload=[self.decision.value, self.decision.round],
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(self, destination: str, kind: str, round_number: int,
              payload: Any = None) -> None:
        if destination == self.process.address:
            # Local loopback: handle immediately without touching the net.
            self.deliver(Datagram(
                source=destination, destination=destination, kind=kind,
                seq=round_number, payload=payload,
            ))
            return
        self.messages_sent += 1
        self.send_down(Datagram(
            source=self.process.address, destination=destination, kind=kind,
            seq=round_number, payload=payload,
        ))

    def _broadcast(self, kind: str, round_number: int, payload: Any = None) -> None:
        for member in self.group:
            self._send(member, kind, round_number, payload=payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"decided={self.decision.value!r}" if self.decided else f"round={self.round}"
        return f"ConsensusLayer({self.process.address if self.attached else '?'}, {state})"


__all__ = ["ConsensusLayer", "ConsensusResult"]
