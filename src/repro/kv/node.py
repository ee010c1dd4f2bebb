"""Replica protocol: the primary/backup state machine of one KV node.

The protocol logic lives in :class:`KvNodeCore`, a transport-agnostic
state machine whose handlers take a decoded request and return the
datagram-shaped replies to transmit.  :class:`KvNodeLayer` wraps it as
a :class:`~repro.neko.layer.Layer`, which
:func:`~repro.kv.sim.build_kv_cluster` stacks on a simulated and on a
real UDP network alike — the hypothesis byte-stability test exercises
the exact code a live cluster runs.

Protocol sketch (primary + backups, client-driven retry):

* ``kv-set`` / ``kv-get`` — client requests.  Only the node that
  believes itself primary serves them; everyone else answers
  ``kv-redirect`` with its current view so the client can re-aim.
* ``kv-rep`` / ``kv-rep-ack`` — primary→backup replication of one write
  and the backup's acknowledgement.  With ``write_concern`` > 0 the
  primary delays the client's ``kv-set-ok`` until that many backups
  acked; with 0 it acks immediately (fast but lossy across failover —
  exactly the trade-off the sweep measures).
* ``kv-view`` — the failover controller's view broadcast
  ``(epoch, primary)``.  Nodes adopt strictly newer epochs; a freshly
  promoted primary restarts its write sequence at 0 in the new epoch so
  its versions ``(epoch, seq)`` dominate everything the deposed primary
  stamped (see :mod:`repro.kv.store`).

Crash/recovery follows the paper's model: a crashed replica is silent
but keeps its state (stable storage), so recovery needs no state
transfer for the metrics we report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.kv.store import VersionedStore, decode_version, encode_version
from repro.neko.layer import Layer
from repro.net.message import Datagram

# Protocol datagram kinds.
KV_SET = "kv-set"
KV_GET = "kv-get"
KV_SET_OK = "kv-set-ok"
KV_GET_OK = "kv-get-ok"
KV_REDIRECT = "kv-redirect"
KV_REP = "kv-rep"
KV_REP_ACK = "kv-rep-ack"
KV_VIEW = "kv-view"

#: Kinds a KV node consumes (everything else passes through untouched).
NODE_KINDS = frozenset({KV_SET, KV_GET, KV_REP, KV_REP_ACK, KV_VIEW})

#: An outgoing reply: (destination, kind, payload).
Outgoing = Tuple[str, str, Dict[str, Any]]

#: Cap on remembered completed-write uids (idempotent retry window).
COMPLETED_WINDOW = 4096

#: What reading a payload this protocol never sends raises (the wire
#: admits any JSON): a layer drops and counts such a datagram.
MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


@dataclass
class PendingWrite:
    """A primary-side write awaiting ``write_concern`` backup acks."""

    key: str
    value: Any
    version: Tuple[int, int]
    client: str
    acks: Set[str] = field(default_factory=set)


class KvNodeCore:
    """The replica state machine, independent of any transport."""

    def __init__(
        self,
        name: str,
        nodes: Sequence[str],
        *,
        write_concern: int = 0,
    ) -> None:
        if name not in nodes:
            raise ValueError(f"node {name!r} must be a member of {list(nodes)!r}")
        backups = len(nodes) - 1
        if not 0 <= write_concern <= backups:
            raise ValueError(
                f"write_concern must be in [0, {backups}], got {write_concern!r}"
            )
        self.name = name
        self.nodes = list(nodes)
        self.peers = [node for node in nodes if node != name]
        self.write_concern = int(write_concern)
        self.store = VersionedStore()
        # View state: every member starts in epoch 0 with the first node
        # primary, matching the controller's initial view.
        self.epoch = 0
        self.primary: Optional[str] = self.nodes[0]
        self.write_seq = 0
        self._pending: Dict[str, PendingWrite] = {}
        self._completed: Dict[str, Tuple[int, int]] = {}
        self.served_reads = 0
        self.served_writes = 0
        self.redirects_sent = 0
        self.dropped_pending = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        """Whether this node currently believes itself primary."""
        return self.primary == self.name

    @property
    def pending_writes(self) -> int:
        """Writes awaiting backup acks (primary only)."""
        return len(self._pending)

    def _view_payload(self) -> Dict[str, Any]:
        return {"epoch": self.epoch, "primary": self.primary}

    def _redirect(self, source: str, uid: str) -> Outgoing:
        self.redirects_sent += 1
        payload = self._view_payload()
        payload["uid"] = uid
        return (source, KV_REDIRECT, payload)

    # ------------------------------------------------------------------
    # Request handlers — each returns the replies to transmit
    # ------------------------------------------------------------------
    def handle(self, source: str, kind: str, payload: Dict[str, Any]) -> List[Outgoing]:
        """Dispatch one inbound KV datagram."""
        if kind == KV_SET:
            return self.handle_set(source, payload)
        if kind == KV_GET:
            return self.handle_get(source, payload)
        if kind == KV_REP:
            return self.handle_rep(source, payload)
        if kind == KV_REP_ACK:
            return self.handle_rep_ack(source, payload)
        if kind == KV_VIEW:
            return self.handle_view(payload)
        raise ValueError(f"KV node cannot handle datagram kind {kind!r}")

    def handle_set(self, source: str, payload: Dict[str, Any]) -> List[Outgoing]:
        """A client write: accept if primary, else redirect."""
        uid = payload["uid"]
        if not self.is_primary:
            return [self._redirect(source, uid)]
        done = self._completed.get(uid)
        if done is not None:
            # Idempotent retry of an already-acknowledged write: re-ack
            # with the original version (the first ack was lost in
            # flight).  Only acknowledged writes live in ``_completed``,
            # so this fast path can never release an ack that the
            # write_concern gate is still withholding.
            return [
                (source, KV_SET_OK, {"uid": uid, "key": payload["key"],
                                     "version": encode_version(done)})
            ]
        pending = self._pending.get(uid)
        if pending is not None:
            # Retry of a write still awaiting backup acks: the client ack
            # stays withheld.  Re-drive replication to the peers that have
            # not acked — the original kv-rep may have been lost, and only
            # their acks can release the client.
            pending.client = source
            return [
                (peer, KV_REP, {"key": pending.key, "value": pending.value,
                                "version": encode_version(pending.version),
                                "uid": uid})
                for peer in self.peers
                if peer not in pending.acks
            ]
        key, value = payload["key"], payload["value"]
        self.write_seq += 1
        version = (self.epoch, self.write_seq)
        self.store.apply(key, value, version)
        self.served_writes += 1
        out: List[Outgoing] = [
            (peer, KV_REP, {"key": key, "value": value,
                            "version": encode_version(version), "uid": uid})
            for peer in self.peers
        ]
        if self.write_concern == 0:
            self._remember_completed(uid, version)
            out.append((source, KV_SET_OK, {"uid": uid, "key": key,
                                            "version": encode_version(version)}))
        else:
            self._pending[uid] = PendingWrite(
                key=key, value=value, version=version, client=source
            )
        return out

    def handle_get(self, source: str, payload: Dict[str, Any]) -> List[Outgoing]:
        """A client read: serve from the local store if primary."""
        uid = payload["uid"]
        if not self.is_primary:
            return [self._redirect(source, uid)]
        key = payload["key"]
        entry = self.store.get(key)
        self.served_reads += 1
        if entry is None:
            reply = {"uid": uid, "key": key, "value": None, "version": None}
        else:
            reply = {"uid": uid, "key": key, "value": entry[0],
                     "version": encode_version(entry[1])}
        return [(source, KV_GET_OK, reply)]

    def handle_rep(self, source: str, payload: Dict[str, Any]) -> List[Outgoing]:
        """A replication record from a primary: apply by version, ack."""
        version = decode_version(payload["version"])
        key = payload["key"]
        applied = self.store.apply(key, payload["value"], version)
        if not applied and not self.store.has_seen(key, version):
            # A superseded record this backup never held: acking it would
            # let a deposed-but-unaware primary count rejections towards
            # its write concern and release a client ack for a version
            # durable nowhere.  Retransmits of records applied earlier
            # (has_seen) stay harmless and are re-acked below.
            return []
        return [
            (source, KV_REP_ACK, {"uid": payload["uid"], "key": key,
                                  "version": payload["version"]})
        ]

    def handle_rep_ack(self, source: str, payload: Dict[str, Any]) -> List[Outgoing]:
        """A backup acked a replicated write: maybe release the client ack."""
        pending = self._pending.get(payload["uid"])
        if pending is None:
            return []
        pending.acks.add(source)
        if len(pending.acks) < self.write_concern:
            return []
        del self._pending[payload["uid"]]
        self._remember_completed(payload["uid"], pending.version)
        return [
            (pending.client, KV_SET_OK, {"uid": payload["uid"], "key": pending.key,
                                         "version": encode_version(pending.version)})
        ]

    def handle_view(self, payload: Dict[str, Any]) -> List[Outgoing]:
        """Adopt a strictly newer view from the failover controller."""
        epoch = int(payload["epoch"])
        if epoch <= self.epoch:
            return []
        primary = payload["primary"]
        was_primary = self.is_primary
        self.epoch = epoch
        self.primary = primary
        if self.is_primary and not was_primary:
            # Fresh epoch, fresh write sequence: versions stamped here
            # dominate every version of any earlier epoch.
            self.write_seq = 0
        elif was_primary and not self.is_primary:
            # Deposed: writes still awaiting backup acks will never be
            # acknowledged under the old epoch — drop them so the client
            # times out and retries against the new primary.
            self.dropped_pending += len(self._pending)
            self._pending.clear()
        return []

    def _remember_completed(self, uid: str, version: Tuple[int, int]) -> None:
        if len(self._completed) >= COMPLETED_WINDOW:
            # Drop the oldest half wholesale; uid retries arrive within a
            # few op timeouts, far inside the window.
            for stale in list(self._completed)[: COMPLETED_WINDOW // 2]:
                del self._completed[stale]
        self._completed[uid] = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "primary" if self.is_primary else "backup"
        return f"KvNodeCore({self.name!r}, {role}, epoch={self.epoch})"


class KvNodeLayer(Layer):
    """A :class:`KvNodeCore` as a protocol layer.

    A KV datagram whose payload the core cannot read is dropped and
    counted in :attr:`dropped_malformed`, like a lost datagram.
    """

    def __init__(self, core: KvNodeCore) -> None:
        super().__init__(name=f"KvNode({core.name})")
        self.core = core
        self.dropped_malformed = 0

    def on_attach(self) -> None:
        self._address = self.process.address

    def deliver(self, message: Datagram) -> None:
        if message.kind not in NODE_KINDS:
            self.deliver_up(message)
            return
        try:
            replies = self.core.handle(
                message.source, message.kind, message.payload
            )
        except MALFORMED:
            self.dropped_malformed += 1
            return
        for destination, kind, payload in replies:
            self.send_down(
                Datagram(
                    source=self._address,
                    destination=destination,
                    kind=kind,
                    payload=payload,
                )
            )


__all__ = [
    "COMPLETED_WINDOW",
    "KV_GET",
    "KV_GET_OK",
    "KV_REDIRECT",
    "KV_REP",
    "KV_REP_ACK",
    "KV_SET",
    "KV_SET_OK",
    "KV_VIEW",
    "KvNodeCore",
    "KvNodeLayer",
    "MALFORMED",
    "NODE_KINDS",
    "Outgoing",
    "PendingWrite",
]
