"""Real-network backend: the JSON wire codec and one asyncio UDP backend.

This module delivers the Neko promise for *real* executions: the same
protocol stacks that run on the discrete-event simulator run here over
actual UDP datagrams.  :class:`UdpNetwork` is the
:class:`~repro.neko.system.NetworkBackend` — one socket, one
:class:`~repro.service.runtime.AsyncioScheduler` — that a
:class:`~repro.neko.system.NekoSystem` is built on instead of a
:class:`~repro.neko.system.SimulatedNetwork`::

    network = UdpNetwork()
    await network.open()
    system = NekoSystem(network.scheduler, network)

Everything runs on the event loop's thread, which serialises timer
expiries and datagram deliveries: layers keep the single-threaded
discipline they enjoy in simulation.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.neko.system import NetworkBackend
from repro.net.message import Datagram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder
    from repro.service.runtime import AsyncioScheduler

#: Largest UDP payload (65 535 minus the IP and UDP headers).
MAX_DATAGRAM = 65_507

_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = -_FLOAT_MAX
_NUMBER = (int, float)


def encode_datagram(message: Datagram) -> bytes:
    payload = {
        "source": message.source,
        "destination": message.destination,
        "kind": message.kind,
        "payload": message.payload,
        "seq": message.seq,
        "timestamp": message.timestamp,
        "uid": message.uid,
    }
    return json.dumps(payload).encode("utf-8")


class DatagramDecodeError(ValueError):
    """A wire payload could not be decoded into a :class:`Datagram`.

    This is the *only* exception :func:`decode_datagram` raises: the
    receive paths on the live side treat it as a fair-lossy drop, so any
    other exception type escaping the decoder would crash the event loop
    on attacker-controlled bytes.
    """


def decode_datagram(raw: bytes) -> Datagram:
    """Decode wire bytes into a :class:`Datagram`.

    Raises :class:`DatagramDecodeError` — and nothing else — on
    truncated, oversized, malformed, or type-confused payloads.
    """
    if len(raw) > MAX_DATAGRAM:
        raise DatagramDecodeError(f"datagram too large: {len(raw)} bytes")
    try:
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise DatagramDecodeError(
                f"datagram body is {type(data).__name__}, expected object"
            )
        source = data["source"]
        destination = data["destination"]
        kind = data["kind"]
        if not (
            isinstance(source, str)
            and isinstance(destination, str)
            and isinstance(kind, str)
        ):
            raise DatagramDecodeError("source/destination/kind must be strings")
        # ``type(x) is int`` rather than isinstance: JSON ``true`` decodes
        # to a bool, which *is* an int to isinstance.
        seq = data.get("seq")
        if seq is not None and type(seq) is not int:
            raise DatagramDecodeError("seq must be an integer or null")
        # json.loads accepts NaN/Infinity and integers too large for a
        # float; the chained comparison is false for all of them, so the
        # receiver's ``now - timestamp`` is always a finite float.
        timestamp = data.get("timestamp")
        if timestamp is not None and not (
            type(timestamp) in _NUMBER and _FLOAT_MIN <= timestamp <= _FLOAT_MAX
        ):
            raise DatagramDecodeError("timestamp must be a finite number or null")
        uid = data.get("uid", 0)
        if type(uid) is not int:
            raise DatagramDecodeError("uid must be an integer")
        return Datagram(
            source=source,
            destination=destination,
            kind=kind,
            payload=data.get("payload"),
            seq=seq,
            timestamp=timestamp,
            uid=uid,
        )
    except DatagramDecodeError:
        raise
    except Exception as exc:
        # Funnel every failure mode (bad UTF-8, bad JSON, missing keys,
        # nesting-depth RecursionError, ...) into the one typed error the
        # receive paths are contracted to catch.
        raise DatagramDecodeError(f"undecodable datagram: {exc!r}") from exc


class _NetworkProtocol(asyncio.DatagramProtocol):
    def __init__(self, network: "UdpNetwork") -> None:
        self._network = network

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        # Looked up per datagram: the chaos shim replaces the attribute.
        self._network._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        # The selector loop reports a failed ``sendto`` here, from inside
        # the call, instead of raising it.
        self._network.send_errors += 1


class UdpNetwork(NetworkBackend):
    """A :class:`~repro.neko.system.NetworkBackend` over one UDP socket.

    Any number of local process addresses register on the one socket;
    inbound datagrams are demultiplexed by ``Datagram.destination``.
    Outbound datagrams go to the destination's entry in a name →
    ``(host, port)`` peer table, which is pinned by :meth:`add_peer` or
    learned from the source of an inbound datagram (the last address a
    peer spoke from — the classic NAT-friendly UDP convention).  Pinned
    names are never re-learned: a datagram's claimed source is
    unauthenticated, so a spoofer could otherwise redirect a peer's
    outbound traffic.

    :meth:`open` binds the socket and creates :attr:`scheduler`, the
    :class:`~repro.service.runtime.AsyncioScheduler` a
    :class:`~repro.neko.system.NekoSystem` on this network runs on;
    :meth:`close` cancels its timers and closes the socket.

    ``tracer``, when given, gets one ``send`` span per heartbeat actually
    put on the wire — the sender half of the end-to-end heartbeat trace,
    stamped with the datagram's own timestamp and sequence number — and
    one ``send-error`` span per datagram the socket refused.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        self._bind = (host, port)
        self._tracer = tracer
        self.scheduler: Optional["AsyncioScheduler"] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._receivers: Dict[str, Callable[[Datagram], None]] = {}
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._pinned: Set[str] = set()
        #: Inbound datagrams that were undecodable or addressed to a name
        #: nobody registered here.
        self.dropped_datagrams = 0
        #: Outbound datagrams not put on the wire: the socket was not open
        #: or the destination has no known address.
        self.unroutable = 0
        #: Outbound datagrams handed to the socket.
        self.sent_datagrams = 0
        #: Outbound datagrams the socket refused.
        self.send_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self) -> None:
        """Bind the socket on the running loop and create the scheduler."""
        # Imported here: repro.service imports this module for the codec.
        from repro.service.runtime import AsyncioScheduler

        if self.scheduler is not None:
            raise RuntimeError("network already opened")
        loop = asyncio.get_running_loop()
        # The scheduler only after a successful bind: a taken port leaves
        # the network as it was, so ``open`` can be retried.
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _NetworkProtocol(self), local_addr=self._bind
        )
        self.scheduler = AsyncioScheduler(loop)

    def close(self) -> None:
        """Cancel every timer and close the socket (idempotent)."""
        if self.scheduler is not None:
            self.scheduler.close()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    @property
    def local_endpoint(self) -> Tuple[str, int]:
        """The bound (host, port) of the socket (after :meth:`open`)."""
        if self._transport is None:
            raise RuntimeError("network is not open")
        return self._transport.get_extra_info("sockname")[:2]

    # ------------------------------------------------------------------
    # NetworkBackend interface
    # ------------------------------------------------------------------
    def register(self, address: str, receiver: Callable[[Datagram], None]) -> None:
        """Deliver datagrams addressed to ``address`` to ``receiver``."""
        if address in self._receivers:
            raise ValueError(f"address {address!r} already registered")
        self._receivers[address] = receiver

    def send(self, message: Datagram) -> bool:
        """Serialise and transmit ``message`` to its destination's address.

        Returns whether the datagram was handed to the socket: ``False``
        when the socket is not open, the destination has no known
        address, or the socket refused the datagram.
        """
        transport = self._transport
        if transport is None or transport.is_closing():
            self.unroutable += 1
            return False
        addr = self._peers.get(message.destination)
        if addr is None:
            if message.destination not in self._receivers:
                # Unknown destination: fair-lossy links may drop, and UDP
                # to a closed port is exactly that.
                self.unroutable += 1
                return False
            # Another process of this system: through the socket all the
            # same, so local and remote traffic share one path.
            addr = self.local_endpoint
        raw = encode_datagram(message)
        if len(raw) > MAX_DATAGRAM:
            raise ValueError(f"datagram too large: {len(raw)} bytes")
        errors = self.send_errors
        try:
            transport.sendto(raw, addr)
        except OSError:
            self.send_errors += 1
        tracer = self._tracer
        if self.send_errors != errors:
            # Raised, or reported through ``error_received`` inside the
            # call: either way this datagram never left.
            if tracer is not None:
                assert self.scheduler is not None
                tracer.emit(
                    self.scheduler.now,
                    "send-error",
                    message.destination,
                    detector=message.kind,
                )
            return False
        self.sent_datagrams += 1
        if tracer is not None and message.kind == "heartbeat":
            tracer.emit(
                message.timestamp, "send", message.source, seq=message.seq
            )
        return True

    # ------------------------------------------------------------------
    # Peer table
    # ------------------------------------------------------------------
    def add_peer(self, address: str, addr: Tuple[str, int]) -> None:
        """Pin the UDP address of ``address``, disabling learning for it."""
        self._peers[address] = (addr[0], addr[1])
        self._pinned.add(address)

    def endpoint(self, address: str) -> Tuple[str, int]:
        """The (host, port) ``address`` is reached at."""
        if address in self._peers:
            return self._peers[address]
        if address in self._receivers:
            return self.local_endpoint
        raise KeyError(address)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        try:
            message = decode_datagram(data)
        except DatagramDecodeError:
            self.dropped_datagrams += 1  # corrupted datagram: fair-lossy drop
            return
        if message.source not in self._pinned:
            self._peers[message.source] = (addr[0], addr[1])
        receiver = self._receivers.get(message.destination)
        if receiver is None:
            self.dropped_datagrams += 1
            return
        receiver(message)


__all__ = [
    "DatagramDecodeError",
    "MAX_DATAGRAM",
    "UdpNetwork",
    "decode_datagram",
    "encode_datagram",
]
