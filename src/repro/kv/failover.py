"""FD-driven failover: suspect/trust transitions become view changes.

:class:`FailoverState` is the pure election rule shared by the simulated
controller layer here and the live controller in :mod:`repro.kv.live`:
nodes are ranked by a fixed priority order (their configuration order),
and leadership is *sticky* — the primary only changes when the current
primary is suspected (or there is none), in which case the
highest-priority unsuspected node is promoted.  A higher-priority node
coming back from a crash therefore does **not** depose a healthy
primary; failback churn would charge every detector mistake twice.

Every view change bumps the epoch, which is the first component of every
write version (:mod:`repro.kv.store`) — promotion is what makes a new
primary's writes dominate a deposed one's.

The simulated controller (:class:`FailoverControllerLayer`) sits on top
of a :class:`~repro.fd.multiplexer.MultiPlexer` fanning heartbeats into
one one-row detector bank per node, all built via
:func:`repro.fd.bank.make_detector_bank`.  View changes are broadcast as
``kv-view`` datagrams to every node and client, and re-broadcast
periodically so a lost view datagram delays — never wedges —
convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    """Simulated controller: detector transitions in, view broadcasts out.

    Parameters
    ----------
    nodes:
        Replica addresses in promotion-priority order.
    listeners:
        Every address that should hear ``kv-view`` broadcasts (nodes and
        clients).
    rebroadcast_interval:
        Period of the view re-broadcast that repairs lost view datagrams.
    on_view_change:
        Optional hook ``(time, view)`` — the sim runner records the view
        log for promotion-delay metrics through it.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        listeners: Sequence[str],
        *,
        rebroadcast_interval: float = 2.0,
        on_view_change: Optional[Callable[[float, ViewChange], None]] = None,
    ) -> None:
        super().__init__(name="FailoverController")
        if rebroadcast_interval <= 0:
            raise ValueError(
                f"rebroadcast_interval must be > 0, got {rebroadcast_interval!r}"
            )
        self.state = FailoverState(nodes)
        self.listeners = list(listeners)
        self.rebroadcast_interval = float(rebroadcast_interval)
        self._on_view_change = on_view_change
        self._rebroadcast: Optional[PeriodicTimer] = None
        self.view_log: List[Tuple[float, ViewChange]] = []

    def on_start(self) -> None:
        self.view_log.append((self.process.sim.now, self.state.view))
        self._rebroadcast = self.process.periodic_timer(
            self.rebroadcast_interval, self._tick, name="kv-view-rebroadcast"
        )
        self._rebroadcast.start()

    def stop(self) -> None:
        """Stop the re-broadcast timer (end of experiment)."""
        if self._rebroadcast is not None:
            self._rebroadcast.stop()

    def on_transition(self, node: str, suspected: bool) -> None:
        """Detector transition hook (wired via ``make_detector_bank``)."""
        change = self.state.on_transition(node, suspected)
        if change is None:
            return
        self.view_log.append((self.process.sim.now, change))
        if self._on_view_change is not None:
            self._on_view_change(self.process.sim.now, change)
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
                    source=self.process.address,
                    destination=listener,
                    kind=KV_VIEW,
                    payload=dict(payload),
                )
            )

    def _tick(self, _seq: int) -> None:
        self.broadcast_view()


__all__ = ["FailoverControllerLayer", "FailoverState", "ViewChange"]
