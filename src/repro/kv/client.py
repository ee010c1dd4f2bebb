"""The closed-loop KV client layer: one outstanding operation at a time.

Each client runs the retry/redirect protocol a real SDK would: send to
the believed primary, follow ``kv-redirect`` answers, rotate through the
replicas on timeout, give up after the retry budget.  Every finished
operation becomes an :class:`OpRecord`, the raw material of the
user-visible QoS metrics in :mod:`repro.kv.metrics` — latency, failed
operations, unavailability windows, and stale reads (a read returning a
version below one this client already observed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.kv.node import (
    KV_GET,
    KV_GET_OK,
    KV_REDIRECT,
    KV_SET,
    KV_SET_OK,
    KV_VIEW,
)
from repro.kv.store import Version, decode_version
from repro.kv.workload import WorkloadSpec
from repro.neko.layer import Layer
from repro.net.message import Datagram
from repro.sim.process import Timer


@dataclass(frozen=True)
class OpRecord:
    """One finished client operation (JSON-able via ``to_dict``)."""

    op: str
    key: str
    uid: str
    start: float
    end: float
    ok: bool
    stale: bool = False
    retries: int = 0
    timeouts: int = 0
    version: Optional[Version] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Wall-clock duration of the operation, retries included."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (byte-stability fixture)."""
        return {
            "op": self.op,
            "key": self.key,
            "uid": self.uid,
            "start": self.start,
            "end": self.end,
            "ok": self.ok,
            "stale": self.stale,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "version": list(self.version) if self.version is not None else None,
            "error": self.error,
        }


@dataclass
class _ActiveOp:
    op: str
    key: str
    uid: str
    value: Optional[str]
    start: float
    attempts: int = 0
    timeouts: int = 0
    #: Offset from the believed primary the next transmit targets.  Runs
    #: with ``attempts`` for timeout-driven rotation but resets to 0 when
    #: a redirect installs a strictly newer view, so the retransmit goes
    #: straight to the primary the redirect named.
    rotation: int = 0


class ClientView:
    """What a client believes about the cluster and has seen of its data.

    The one copy of the view-adoption, replica-rotation and stale-read
    rules, shared by the simulated :class:`KvClientLayer` and the live
    :class:`~repro.kv.live.AsyncKvClient`.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("client needs at least one node")
        self.nodes = list(nodes)
        self.epoch = 0
        self.primary: Optional[str] = self.nodes[0]
        self.high_version: Dict[str, Version] = {}

    def _target(self, rotation: int) -> str:
        """The replica ``rotation`` places past the believed primary."""
        anchor = self.primary if self.primary is not None else self.nodes[0]
        try:
            base = self.nodes.index(anchor)
        except ValueError:
            base = 0
        return self.nodes[(base + rotation) % len(self.nodes)]

    def _adopt_view(self, payload: Dict[str, Any], rotation: int = 0) -> int:
        """Adopt a strictly newer view (a broadcast or a redirect's).

        Returns the rotation a retransmit after a redirect should use:
        0 — straight at the primary the redirect named — when the view
        was newer, one onward from ``rotation`` when a stale node
        re-named the view already held (e.g. the primary is dead but
        undetected), so the client does not ping-pong between the same
        two replicas.
        """
        epoch = int(payload["epoch"])
        if epoch > self.epoch:
            self.epoch = epoch
            self.primary = payload["primary"]
            return 0
        return rotation + 1

    def observe(self, key: str, version: Optional[Version]) -> bool:
        """Note the version a reply carried; ``True`` when it is stale.

        Stale means below a version this client already observed for
        ``key`` (``None`` — the key is absent — is below everything).
        """
        high = self.high_version.get(key)
        if high is None:
            if version is not None:
                self.high_version[key] = version
            return False
        if version is None or version < high:
            return True
        self.high_version[key] = version
        return False


class KvClientLayer(Layer):
    """A seeded closed-loop client as a protocol layer."""

    def __init__(
        self,
        nodes: List[str],
        spec: WorkloadSpec,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(name="KvClient")
        self.view = ClientView(nodes)
        self.spec = spec
        self._rng = rng
        self.records: List[OpRecord] = []
        self._active: Optional[_ActiveOp] = None
        self._op_counter = 0
        self._op_timer: Optional[Timer] = None
        self._think_timer: Optional[Timer] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        self._op_timer = self.process.timer(self._on_op_timeout, name="kv-op-timeout")
        self._think_timer = self.process.timer(self._begin_op, name="kv-think")

    def on_start(self) -> None:
        # Stagger client start-ups so they do not issue in lock-step.
        assert self._think_timer is not None
        self._think_timer.arm(self.spec.next_think(self._rng))

    def flush(self, end_time: float) -> None:
        """End of run: record any still-in-flight operation as incomplete."""
        self._stopped = True
        if self._op_timer is not None:
            self._op_timer.cancel()
        if self._think_timer is not None:
            self._think_timer.cancel()
        active = self._active
        if active is not None:
            self._active = None
            self.records.append(
                OpRecord(
                    op=active.op,
                    key=active.key,
                    uid=active.uid,
                    start=active.start,
                    end=end_time,
                    ok=False,
                    retries=active.attempts,
                    timeouts=active.timeouts,
                    error="incomplete",
                )
            )

    # ------------------------------------------------------------------
    # Operation loop
    # ------------------------------------------------------------------
    def _begin_op(self) -> None:
        if self._stopped or self._active is not None:
            return
        spec = self.spec
        op = spec.choose_op(self._rng)
        key = spec.choose_key(self._rng)
        self._op_counter += 1
        process = self.process
        address = process.address
        uid = f"{address}:{self._op_counter}"
        value = None
        if op == "set":
            value = f"{address}-v{self._op_counter}"
        self._active = _ActiveOp(
            op=op, key=key, uid=uid, value=value, start=process.sim.now
        )
        self._transmit()

    def _transmit(self) -> None:
        active = self._active
        assert active is not None and self._op_timer is not None
        target = self.view._target(active.rotation)
        if active.op == "get":
            payload: Dict[str, Any] = {"key": active.key, "uid": active.uid}
            kind = KV_GET
        else:
            payload = {"key": active.key, "value": active.value, "uid": active.uid}
            kind = KV_SET
        self.send_down(
            Datagram(
                source=self.process.address,
                destination=target,
                kind=kind,
                payload=payload,
            )
        )
        self._op_timer.arm(self.spec.op_timeout)

    def _on_op_timeout(self) -> None:
        active = self._active
        if active is None:
            return
        active.timeouts += 1
        active.attempts += 1
        active.rotation += 1
        if active.attempts > self.spec.max_retries:
            self._finish(ok=False, error="timeout")
            return
        self._transmit()

    def _finish(
        self,
        *,
        ok: bool,
        stale: bool = False,
        version: Optional[Version] = None,
        error: Optional[str] = None,
    ) -> None:
        active = self._active
        assert active is not None
        self._active = None
        assert self._op_timer is not None and self._think_timer is not None
        self._op_timer.cancel()
        self.records.append(
            OpRecord(
                op=active.op,
                key=active.key,
                uid=active.uid,
                start=active.start,
                end=self.process.sim.now,
                ok=ok,
                stale=stale,
                retries=active.attempts,
                timeouts=active.timeouts,
                version=version,
                error=error,
            )
        )
        if not self._stopped:
            self._think_timer.arm(self.spec.next_think(self._rng))

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def deliver(self, message: Datagram) -> None:
        kind = message.kind
        if kind == KV_VIEW:
            self.view._adopt_view(message.payload)
            return
        if kind not in (KV_SET_OK, KV_GET_OK, KV_REDIRECT):
            self.deliver_up(message)
            return
        active = self._active
        if active is None or message.payload.get("uid") != active.uid:
            return  # Late reply of an operation already finished or retried.
        if kind == KV_SET_OK:
            version = decode_version(message.payload["version"])
            self.view.observe(active.key, version)
            self._finish(ok=True, version=version)
        elif kind == KV_GET_OK:
            raw = message.payload["version"]
            version = decode_version(raw) if raw is not None else None
            stale = self.view.observe(active.key, version)
            self._finish(ok=True, stale=stale, version=version)
        else:  # KV_REDIRECT
            rotation = self.view._adopt_view(message.payload, active.rotation)
            if self.view.primary is None:
                return  # No primary known: let the op timeout drive retries.
            active.attempts += 1
            active.rotation = rotation
            if active.attempts > self.spec.max_retries:
                self._finish(ok=False, error="timeout")
            else:
                self._transmit()


__all__ = ["ClientView", "KvClientLayer", "OpRecord"]
