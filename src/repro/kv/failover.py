"""FD-driven failover: suspect/trust transitions become view changes.

:class:`FailoverState` is the pure election rule of the controller
layer here: nodes are ranked by a fixed priority order (their configuration order),
and leadership is *sticky* — the primary only changes when the current
primary is suspected (or there is none), in which case the
highest-priority unsuspected node is promoted.  A higher-priority node
coming back from a crash therefore does **not** depose a healthy
primary; failback churn would charge every detector mistake twice.

Every view change bumps the epoch, which is the first component of every
write version (:mod:`repro.kv.store`) — promotion is what makes a new
primary's writes dominate a deposed one's.

The controller (:class:`FailoverControllerLayer`) sits on top
of a :class:`~repro.fd.multiplexer.MultiPlexer` fanning heartbeats into
one one-row :class:`~repro.fd.detector.PushFailureDetector` per node.
View changes are broadcast as
``kv-view`` datagrams to every node and client, and re-broadcast
periodically so a lost view datagram delays — never wedges —
convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.kv.node import KV_VIEW
from repro.neko.layer import Layer
from repro.net.message import Datagram
from repro.sim.process import PeriodicTimer


@dataclass(frozen=True)
class ViewChange:
    """One installed view: ``primary`` may be ``None`` (total outage)."""

    epoch: int
    primary: Optional[str]


class FailoverState:
    """The election rule: priority order + sticky leadership."""

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("failover needs at least one node")
        self.nodes = list(nodes)
        self.suspected: Set[str] = set()
        self.epoch = 0
        self.primary: Optional[str] = self.nodes[0]

    @property
    def view(self) -> ViewChange:
        """The currently installed view."""
        return ViewChange(epoch=self.epoch, primary=self.primary)

    def on_transition(self, node: str, suspected: bool) -> Optional[ViewChange]:
        """Feed one detector transition; returns the new view if it changed."""
        if node not in self.nodes:
            raise ValueError(f"unknown node {node!r}")
        if suspected:
            self.suspected.add(node)
        else:
            self.suspected.discard(node)
        if self.primary is not None and self.primary not in self.suspected:
            # Sticky leadership: a healthy primary stays primary.
            return None
        candidate = next(
            (node for node in self.nodes if node not in self.suspected), None
        )
        if candidate == self.primary:
            return None
        self.epoch += 1
        self.primary = candidate
        return self.view


class FailoverControllerLayer(Layer):
    """The controller: detector transitions in, view broadcasts out.

    Parameters
    ----------
    nodes:
        Replica addresses in promotion-priority order.
    listeners:
        Every address that should hear ``kv-view`` broadcasts (nodes and
        clients).
    rebroadcast_interval:
        Period of the view re-broadcast that repairs lost view datagrams.

    Every installed view is appended to :attr:`view_log` with its time.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        listeners: Sequence[str],
        *,
        rebroadcast_interval: float = 2.0,
    ) -> None:
        super().__init__(name="FailoverController")
        if rebroadcast_interval <= 0:
            raise ValueError(
                f"rebroadcast_interval must be > 0, got {rebroadcast_interval!r}"
            )
        self.state = FailoverState(nodes)
        self.listeners = list(listeners)
        self.rebroadcast_interval = float(rebroadcast_interval)
        self._rebroadcast: Optional[PeriodicTimer] = None
        self.view_log: List[Tuple[float, ViewChange]] = []

    def on_attach(self) -> None:
        process = self.process
        self._sim = process.sim
        self._address = process.address

    def on_start(self) -> None:
        self.view_log.append((self._sim.now, self.state.view))
        self._rebroadcast = self.process.periodic_timer(
            self.rebroadcast_interval, self._tick, name="kv-view-rebroadcast"
        )
        self._rebroadcast.start()

    def stop(self) -> None:
        """Stop the re-broadcast timer (end of experiment)."""
        if self._rebroadcast is not None:
            self._rebroadcast.stop()

    def on_transition(self, node: str, suspected: bool) -> None:
        """Detector transition hook (``on_transition_factory`` of each
        node's :class:`~repro.fd.detector.PushFailureDetector`)."""
        change = self.state.on_transition(node, suspected)
        if change is None:
            return
        self.view_log.append((self._sim.now, change))
        self.broadcast_view()

    def broadcast_view(self) -> None:
        """Send the current view to every listener."""
        payload: Dict[str, Any] = {
            "epoch": self.state.epoch,
            "primary": self.state.primary,
        }
        for listener in self.listeners:
            self.send_down(
                Datagram(
                    source=self._address,
                    destination=listener,
                    kind=KV_VIEW,
                    payload=dict(payload),
                )
            )

    def _tick(self, _seq: int) -> None:
        self.broadcast_view()


__all__ = ["FailoverControllerLayer", "FailoverState", "ViewChange"]
