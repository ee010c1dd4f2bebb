"""Outbound monitor traffic: the peer table and control-ack retransmits.

Covers the two service fixes that ride with the KV subsystem: the
monitor daemon can now transmit over its service socket (peer addresses
auto-learned from inbound datagrams), and crash/restore control
datagrams are retransmitted until acked — a lost crash announcement no
longer costs a ``T_D`` sample.
"""

import asyncio

import pytest

from repro.fd.heartbeat import Heartbeater
from repro.net.message import Datagram
from repro.net.udp import decode_datagram, encode_datagram
from repro.service import (
    AsyncioScheduler,
    HeartbeatFleet,
    LiveCrash,
    MonitorDaemon,
    heartbeat,
)

from tests.conftest import socketless_emitter

NETWORK_TIMEOUT = 60.0


def run(coroutine, timeout=NETWORK_TIMEOUT):
    """Run an async test body with a hard timeout (no plugin needed)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def eventually(predicate, *, timeout=10.0, interval=0.02):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


class _Capture(asyncio.DatagramProtocol):
    """A loopback endpoint that records every datagram it receives."""

    def __init__(self):
        self.received = []

    def datagram_received(self, data, addr):
        self.received.append(decode_datagram(data))


# ----------------------------------------------------------------------
# Control retransmits (no sockets: Heartbeater / LiveCrash on a list)
# ----------------------------------------------------------------------
def _ack(payload):
    return Datagram(source="monitor", destination="ep1", kind="control-ack",
                    payload=payload)


class TestControlRetransmit:
    def test_unacked_control_is_retransmitted_then_given_up(self, monkeypatch):
        monkeypatch.setattr(heartbeat, "CONTROL_RETRANSMIT", 0.03)
        monkeypatch.setattr(heartbeat, "CONTROL_MAX_RETRIES", 2)

        async def main():
            scheduler = AsyncioScheduler()
            crash = LiveCrash("monitor")
            sent = socketless_emitter(
                scheduler, "ep1", [Heartbeater("monitor", 10.0), crash]
            )
            crash.crash()
            assert await eventually(lambda: crash.control_given_up == 1)
            assert crash.control_retransmits == 2
            assert crash.pending_controls == 0
            controls = [m for m in sent if m.kind == "crash"]
            assert len(controls) == 3  # original + 2 retransmits
            assert all(m.payload["ctl"] == 1 for m in controls)
            scheduler.close()

        run(main())

    def test_ack_stops_the_retransmit_loop(self, monkeypatch):
        monkeypatch.setattr(heartbeat, "CONTROL_RETRANSMIT", 0.03)

        async def main():
            scheduler = AsyncioScheduler()
            crash = LiveCrash("monitor")
            sent = socketless_emitter(
                scheduler, "ep1", [Heartbeater("monitor", 10.0), crash]
            )
            crash.crash()
            # The ack reaches the layer mid-crash; junk acks are ignored.
            for junk in (None, {"ctl": [1]}, {"ctl": True}, {"ctl": 7}):
                crash.deliver(_ack(junk))
            assert crash.control_acked == 0
            crash.deliver(_ack({"kind": "crash", "ctl": 1}))
            assert crash.control_acked == 1
            assert crash.pending_controls == 0
            await asyncio.sleep(0.12)
            assert crash.control_retransmits == 0
            assert [m.kind for m in sent] == ["crash"]
            scheduler.close()

        run(main())

    def test_stop_cancels_pending_controls(self, monkeypatch):
        monkeypatch.setattr(heartbeat, "CONTROL_RETRANSMIT", 0.03)

        async def main():
            scheduler = AsyncioScheduler()
            crash = LiveCrash("monitor")
            sent = socketless_emitter(
                scheduler, "ep1", [Heartbeater("monitor", 10.0), crash]
            )
            crash.crash()
            assert crash.pending_controls == 1
            # Stopping an emitter is closing its scheduler: the pending
            # retransmit dies with every other timer.
            scheduler.close()
            assert scheduler.outstanding == 0
            await asyncio.sleep(0.12)
            assert crash.control_retransmits == 0
            assert [m.kind for m in sent] == ["crash"]

        run(main())


# ----------------------------------------------------------------------
# Peer table and outbound sends (real loopback sockets)
# ----------------------------------------------------------------------
@pytest.mark.network
class TestDaemonOutbound:
    def test_send_datagram_uses_pinned_peer_address(self):
        async def main():
            loop = asyncio.get_running_loop()
            transport, capture = await loop.create_datagram_endpoint(
                _Capture, local_addr=("127.0.0.1", 0)
            )
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"])
            await daemon.start()
            try:
                message = Datagram(source="monitor", destination="peer1",
                                   kind="kv-view",
                                   payload={"epoch": 1, "primary": "a"})
                # Unknown destination: dropped, accounted.
                dropped = daemon.dropped_datagrams
                assert not daemon.network.send(message)
                assert daemon.dropped_datagrams == dropped + 1
                # Pinned destination: delivered.
                daemon.network.add_peer(
                    "peer1", transport.get_extra_info("sockname")
                )
                assert daemon.network.send(message)
                assert daemon.sent_datagrams == 1
                assert await eventually(lambda: capture.received)
                assert capture.received[0].kind == "kv-view"
                assert capture.received[0].payload == {"epoch": 1,
                                                       "primary": "a"}
            finally:
                await daemon.stop()
                transport.close()

        run(main())

    def test_pinned_peer_ignores_spoofed_source_address(self):
        async def main():
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5,
                                   detector_ids=["Last+CI_med"])
            await daemon.start()
            try:
                pinned = ("127.0.0.1", 40001)
                daemon.network.add_peer("ep1", pinned)
                # A datagram merely *claiming* to be ep1 from another
                # address must not redirect ep1's outbound traffic.
                spoof = Datagram(source="ep1", destination="monitor",
                                 kind="heartbeat", seq=1, timestamp=0.0)
                daemon.network._on_datagram(encode_datagram(spoof),
                                            ("127.0.0.1", 55555))
                assert daemon.network.endpoint("ep1") == pinned
                # Unpinned names keep the auto-learning convention.
                other = Datagram(source="ep2", destination="monitor",
                                 kind="heartbeat", seq=1, timestamp=0.0)
                daemon.network._on_datagram(encode_datagram(other),
                                            ("127.0.0.1", 55556))
                assert daemon.network.endpoint("ep2") == ("127.0.0.1", 55556)
            finally:
                await daemon.stop()

        run(main())

    def test_crash_control_roundtrip_learns_peer_and_acks(self):
        async def main():
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.1,
                                   detector_ids=["Last+CI_med"],
                                   auto_register=True)
            await daemon.start()
            fleet = HeartbeatFleet(["ep1"], daemon.udp_endpoint, eta=0.1)
            await fleet.start()
            try:
                assert await eventually(lambda: daemon.heartbeats_total > 0)
                # The inbound heartbeat taught the daemon ep1's address.
                learned = daemon.network.endpoint("ep1")
                assert learned[1] == fleet.network.local_endpoint[1]
                # A fleet emitter is the simulator's stack in a NekoProcess.
                assert [type(layer) for layer in fleet.emitters["ep1"].stack.layers] == [
                    Heartbeater, LiveCrash
                ]
                fleet.crash("ep1")
                emitter = fleet.emitters["ep1"].stack.find(LiveCrash)
                # The daemon records the crash and acks it back over the
                # same socket, which stops the emitter's retransmit loop.
                assert await eventually(lambda: emitter.control_acked == 1)
                assert emitter.pending_controls == 0
                assert daemon.registry.get("ep1").crashed
                assert daemon.control_acks_sent >= 1
            finally:
                await fleet.stop()
                await daemon.stop()

        run(main())
