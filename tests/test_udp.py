"""Integration tests for the real-network (UDP) backend.

These exercise the Neko promise: the same protocol layers run over real
sockets on localhost.  Kept small and generously timed to stay robust on
loaded machines.
"""

import asyncio

import pytest

from repro.clocks.clock import DriftingClock
from repro.fd.bank import make_detector_bank
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.predictors import LastPredictor
from repro.fd.safety import ConstantMargin
from repro.fd.simcrash import SimCrash
from repro.fd.timeout import TimeoutStrategy
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.net.message import Datagram
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.udp import (
    MAX_DATAGRAM,
    DatagramDecodeError,
    UdpNetwork,
    decode_datagram,
    encode_datagram,
)
from repro.obs import TraceRecorder
from repro.service import MonitorDaemon
from repro.sim.engine import Simulator

NETWORK_TIMEOUT = 60.0


def run(coroutine, timeout=NETWORK_TIMEOUT):
    """Run an async test body with a hard timeout (no plugin needed)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def eventually(predicate, *, timeout=5.0, interval=0.01):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


async def opened(**kwargs):
    network = UdpNetwork(**kwargs)
    await network.open()
    return network


_HEARTBEAT = '{"source": "q", "destination": "monitor", "kind": "heartbeat", '
#: Wire bytes ``json.loads`` accepts but a heartbeat must never carry.
NON_FINITE_OR_BOOL = tuple(
    (_HEARTBEAT + fields + "}").encode()
    for fields in (
        '"seq": 1, "timestamp": NaN',
        '"seq": 1, "timestamp": Infinity',
        '"seq": 1, "timestamp": -Infinity',
        '"seq": 1, "timestamp": 1' + "0" * 400,
        '"seq": 1, "timestamp": true',
        '"seq": true, "timestamp": 1.5',
        '"seq": 1, "timestamp": 1.5, "uid": false',
    )
)


class TestWireFormat:
    """The JSON datagram codec shared by the UDP backend and the
    monitoring daemon."""

    def test_roundtrip_preserves_every_field(self):
        message = Datagram(
            source="q", destination="monitor", kind="heartbeat",
            seq=42, timestamp=12.5, payload={"rtt": 0.003}, uid=7,
        )
        got = decode_datagram(encode_datagram(message))
        assert (got.source, got.destination, got.kind) == ("q", "monitor", "heartbeat")
        assert got.seq == 42 and got.timestamp == 12.5
        assert got.payload == {"rtt": 0.003} and got.uid == 7

    def test_roundtrip_of_control_datagram_without_seq(self):
        message = Datagram(source="q", destination="monitor", kind="crash")
        got = decode_datagram(encode_datagram(message))
        assert got.kind == "crash" and got.seq is None

    def test_malformed_bytes_rejected(self):
        with pytest.raises(DatagramDecodeError):
            decode_datagram(b"\xff\x00 not json")

    def test_missing_required_field_rejected(self):
        with pytest.raises(DatagramDecodeError):
            decode_datagram(b'{"source": "q"}')

    def test_type_confused_fields_rejected(self):
        for raw in (
            b'{"source": 1, "destination": "m", "kind": "heartbeat"}',
            b'{"source": "q", "destination": "m", "kind": "heartbeat", "seq": "x"}',
            b'{"source": "q", "destination": "m", "kind": "heartbeat", "uid": "x"}',
            b'{"source": "q", "destination": "m", "kind": "heartbeat", "timestamp": "x"}',
            b'[1, 2, 3]',
            b'"heartbeat"',
            *NON_FINITE_OR_BOOL,
        ):
            with pytest.raises(DatagramDecodeError):
                decode_datagram(raw)

    def test_non_finite_and_bool_fields_are_counted_drops_at_the_daemon(self):
        """json.loads accepts NaN/Infinity and ``isinstance(True, int)``
        holds: such a heartbeat used to be counted, traced, fed to the
        drift monitor and finally raise out of ``dispatch`` into the
        event loop.  It must be a counted drop (no traffic: the raw
        bytes go straight into the intake)."""
        async def main():
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.1, detector_ids=["Last+CI_med"],
                tracer=TraceRecorder(None, ring_capacity=64), drift_window=8,
            )
            await daemon.start()
            try:
                good = encode_datagram(Datagram(
                    source="q", destination="monitor", kind="heartbeat",
                    seq=0, timestamp=daemon.scheduler.now,
                ))
                daemon.network._on_datagram(good, ("127.0.0.1", 1))
                assert daemon.heartbeats_total == 1
                for raw in NON_FINITE_OR_BOOL:
                    dropped = daemon.dropped_datagrams
                    daemon.network._on_datagram(raw, ("127.0.0.1", 1))
                    assert daemon.dropped_datagrams == dropped + 1, raw
                assert daemon.heartbeats_total == 1
                assert len(daemon.trace_tail(64, kind="receive")["events"]) == 1
            finally:
                await daemon.stop()

        run(main())

    def test_oversized_datagram_rejected(self):
        raw = b"x" * (MAX_DATAGRAM + 1)
        with pytest.raises(DatagramDecodeError):
            decode_datagram(raw)

    def test_decode_error_is_a_value_error(self):
        # Pre-hardening call sites caught ValueError; the typed error
        # must stay substitutable for them.
        assert issubclass(DatagramDecodeError, ValueError)

    @given(raw=st.binary(max_size=512))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_no_other_exception_escapes(self, raw):
        try:
            message = decode_datagram(raw)
        except DatagramDecodeError:
            return
        assert isinstance(message, Datagram)

    @given(
        prefix=st.integers(min_value=0, max_value=200),
        flip=st.integers(min_value=0, max_value=255),
        position=st.integers(min_value=0, max_value=199),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_truncated_and_flipped_real_datagrams(
        self, prefix, flip, position
    ):
        raw = encode_datagram(
            Datagram(
                source="q", destination="monitor", kind="heartbeat",
                seq=3, timestamp=1.25, payload={"k": "v"},
            )
        )
        mangled = bytearray(raw[:prefix] if prefix < len(raw) else raw)
        if mangled:
            mangled[position % len(mangled)] ^= flip
        try:
            message = decode_datagram(bytes(mangled))
        except DatagramDecodeError:
            return
        assert isinstance(message, Datagram)


@pytest.mark.network
class TestUdpNetwork:
    def test_datagram_roundtrip(self):
        async def main():
            network = await opened()
            received = []
            network.register("a", received.append)
            network.register("b", lambda m: None)
            network.send(Datagram(
                source="b", destination="a", kind="heartbeat", seq=3,
                timestamp=1.5, payload={"k": "v"},
            ))
            assert await eventually(lambda: received)
            network.close()
            [got] = received
            assert (got.source, got.destination, got.kind) == ("b", "a", "heartbeat")
            assert got.seq == 3 and got.timestamp == 1.5 and got.payload == {"k": "v"}

        run(main())

    def test_reply_goes_to_the_address_the_peer_spoke_from(self):
        async def main():
            here, there = await opened(), await opened()
            at_a, at_b = [], []
            here.register("a", at_a.append)
            there.register("b", at_b.append)
            there.add_peer("a", here.local_endpoint)
            there.send(Datagram(source="b", destination="a", kind="ping"))
            assert await eventually(lambda: at_a)
            # Nobody told ``here`` where b lives: the datagram did.
            assert here.endpoint("b") == there.local_endpoint
            here.send(at_a[0].reply("pong"))
            assert await eventually(lambda: at_b)
            assert at_b[0].kind == "pong"
            here.close()
            there.close()

        run(main())

    def test_unknown_destination_silently_dropped(self):
        async def main():
            network = await opened()
            network.register("a", lambda m: None)
            network.send(Datagram(source="a", destination="ghost", kind="t"))
            assert network.unroutable == 1
            network.close()

        run(main())

    def test_duplicate_registration_rejected(self):
        network = UdpNetwork()
        network.register("a", lambda m: None)
        with pytest.raises(ValueError):
            network.register("a", lambda m: None)

    def test_endpoint_lookup(self):
        async def main():
            network = await opened()
            network.register("a", lambda m: None)
            host, port = network.endpoint("a")
            assert host == "127.0.0.1" and port > 0
            network.add_peer("remote", ("10.0.0.1", 9999))
            assert network.endpoint("remote") == ("10.0.0.1", 9999)
            with pytest.raises(KeyError):
                network.endpoint("ghost")
            network.close()

        run(main())

    def test_pinned_peer_is_not_relearned(self):
        async def main():
            network = await opened()
            network.register("monitor", lambda m: None)
            pinned = ("127.0.0.1", 40001)
            network.add_peer("ep1", pinned)
            # A datagram merely *claiming* to be ep1 from another address
            # must not redirect ep1's outbound traffic.
            for source in ("ep1", "ep2"):
                network._on_datagram(
                    encode_datagram(Datagram(
                        source=source, destination="monitor", kind="heartbeat",
                    )),
                    ("127.0.0.1", 55555),
                )
            assert network.endpoint("ep1") == pinned
            assert network.endpoint("ep2") == ("127.0.0.1", 55555)
            network.close()

        run(main())

    def test_undecodable_and_unaddressed_datagrams_are_counted(self):
        async def main():
            network = await opened()
            received = []
            network.register("a", received.append)
            network._on_datagram(b"not json at all", ("127.0.0.1", 1))
            assert network.dropped_datagrams == 1
            network._on_datagram(
                encode_datagram(Datagram(source="b", destination="ghost", kind="t")),
                ("127.0.0.1", 1),
            )
            assert network.dropped_datagrams == 2
            assert received == []
            network.close()

        run(main())

    def test_socket_send_error_is_counted_spanned_and_reported(self):
        """The selector loop does not raise from ``sendto``: it hands the
        error to the protocol's ``error_received`` inside the call.  Port 0
        is refused by the kernel (EINVAL) without anything leaving the
        loopback interface."""
        async def main():
            tracer = TraceRecorder(None, ring_capacity=16)
            network = await opened(tracer=tracer)
            network.add_peer("x", ("127.0.0.1", 0))
            message = Datagram(source="monitor", destination="x",
                               kind="control-ack")
            assert network.send(message) is False
            assert network.send_errors == 1
            assert network.sent_datagrams == 0
            [span] = tracer.tail(16, kind="send-error")
            assert span["endpoint"] == "x"
            assert span["detector"] == "control-ack"
            network.close()
            assert network.send(message) is False  # closed: unroutable
            assert network.unroutable == 1

        run(main())

    def test_failed_bind_leaves_the_network_reopenable(self):
        async def main():
            loop = asyncio.get_running_loop()
            holder, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
            )
            port = holder.get_extra_info("sockname")[1]
            network = UdpNetwork(port=port)
            with pytest.raises(OSError):
                await network.open()
            assert network.scheduler is None
            holder.close()
            await asyncio.sleep(0)
            await network.open()
            assert network.local_endpoint == ("127.0.0.1", port)
            network.close()

        run(main())


ETA = 0.1
#: Heartbeats 0-7 leave before the crash, 8-13 inside it, 14-19 after
#: it; every boundary sits half a period from the nearest tick.
CRASH_WINDOW = (0.85, 1.45)
HORIZON = 2.05


def contract_stacks(system, event_log):
    """The one factory both substrates are built from."""
    origin = system.sim.now
    monitored = ProtocolStack([
        Heartbeater(
            "p", ETA, event_log, record_sent_events=True, start=origin + ETA
        ),
        SimCrash(
            1.0, 0.0, None, event_log,
            schedule=[(origin + CRASH_WINDOW[0], origin + CRASH_WINDOW[1])],
        ),
    ])
    bank = make_detector_bank("q", ETA, event_log, ["Last+JAC_med"])
    monitor = ProtocolStack(
        [MultiPlexer([bank], event_log, record_received_events=True)]
    )
    system.create_process("q", monitored)
    # The monitor's clock runs 40 ms behind: every freshness point moves
    # 40 ms later on both substrates — the slack a real event loop's
    # timer jitter needs (no row of the bank has a constant margin).
    system.create_process(
        "p", monitor, clock=DriftingClock(system.sim, offset=-0.04)
    )
    system.start()
    return origin + HORIZON


def contract_outcome(event_log):
    sent = [e.seq for e in event_log.filter(kind=EventKind.SENT)]
    delivered = [e.seq for e in event_log.filter(kind=EventKind.RECEIVED)]
    transitions = [
        e.kind for e in event_log
        if e.kind in (EventKind.START_SUSPECT, EventKind.END_SUSPECT,
                      EventKind.CRASH, EventKind.RESTORE)
    ]
    return delivered, sorted(set(sent) - set(delivered)), transitions


@pytest.mark.network
class TestRealExecution:
    def test_same_stacks_on_the_simulator_and_on_udp(self):
        """The Neko contract itself: one stack factory, two networks,
        the same heartbeats delivered, the same ones suppressed by the
        crash, the same suspicion history."""
        sim, sim_log = Simulator(), EventLog()
        sim.run(until=contract_stacks(NekoSystem(sim), sim_log))

        live_log = EventLog()

        async def main():
            network = await opened()
            system = NekoSystem(network.scheduler, network)
            done = asyncio.get_running_loop().create_future()
            network.scheduler.schedule_at(
                contract_stacks(system, live_log), lambda: done.set_result(None)
            )
            await done
            network.close()

        run(main())

        expected = (
            [*range(0, 8), *range(14, 20)],
            [*range(8, 14)],
            [EventKind.CRASH, EventKind.START_SUSPECT,
             EventKind.RESTORE, EventKind.END_SUSPECT],
        )
        assert contract_outcome(sim_log) == expected
        assert contract_outcome(live_log) == expected

    def test_failure_detector_over_real_udp(self):
        """Unchanged detector layers over real sockets, plain EventLog."""
        async def main():
            network = await opened()
            event_log = EventLog()
            system = NekoSystem(network.scheduler, network)

            eta = 0.05  # fast heartbeats to keep the test short
            heartbeater = Heartbeater("monitor", eta, event_log)
            strategy = TimeoutStrategy(LastPredictor(), ConstantMargin(0.2))
            detector = PushFailureDetector(
                strategy, "monitored", eta, event_log,
                detector_id="udp-fd", initial_timeout=1.0,
            )
            system.create_process("monitored", ProtocolStack([heartbeater]))
            system.create_process("monitor", ProtocolStack([detector]))
            system.start()
            await asyncio.sleep(0.6)
            heartbeater.stop()

            assert detector.heartbeats_seen >= 5
            assert not detector.suspecting
            assert event_log.filter(kind=EventKind.START_SUSPECT) == []

            # Silence (simulated crash): the detector must start suspecting.
            await asyncio.sleep(0.8)
            network.close()
            assert detector.suspecting
            assert len(event_log.filter(kind=EventKind.START_SUSPECT)) == 1

        run(main())
