#!/usr/bin/env python3
"""Neko's "real execution" mode: the same detector over real UDP sockets.

The framework's defining promise (inherited from Neko) is that protocol
code runs unchanged on a simulated or a real network.  This example runs
the heartbeater and a push failure detector as two processes exchanging
real UDP datagrams on localhost — single-threaded, on one asyncio event
loop — stops the heartbeater to emulate a crash, and watches the detector
react in wall-clock time.

Run with::

    python examples/real_udp.py
"""

import asyncio

from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.log import EventLog
from repro.net.udp import UdpNetwork


async def main() -> None:
    eta = 0.1  # 100 ms heartbeats: fast enough to watch live
    event_log = EventLog()

    network = UdpNetwork()
    await network.open()  # one socket, one scheduler on this event loop
    scheduler = network.scheduler
    system = NekoSystem(scheduler, network)  # type: ignore[arg-type]
    heartbeater = Heartbeater("monitor", eta, event_log)
    detector = PushFailureDetector(
        make_strategy("Last", "JAC_med"),
        "monitored",
        eta,
        event_log,
        detector_id="Last+JAC_med",
        initial_timeout=1.0,
    )
    system.create_process("monitored", ProtocolStack([heartbeater]))
    system.create_process("monitor", ProtocolStack([detector]))

    print(f"both processes share the socket {network.endpoint('monitor')}")
    system.start()

    print("\nHeartbeating over real UDP for 2 seconds...")
    await asyncio.sleep(2.0)
    print(f"  heartbeats seen : {detector.heartbeats_seen}")
    print(f"  suspecting      : {detector.suspecting}")
    print(f"  timeout in force: {detector.current_timeout() * 1e3:.2f} ms")

    print("\nStopping the heartbeater (simulated crash)...")
    crash_time = scheduler.now
    heartbeater.stop()
    while not detector.suspecting and scheduler.now - crash_time < 5.0:
        await asyncio.sleep(0.005)
    detection = scheduler.now - crash_time
    print(f"  detector suspected after {detection * 1e3:.0f} ms "
          f"(eta = {eta * 1e3:.0f} ms)")
    network.close()

    print("\nEvent log:")
    for event in list(event_log)[-4:]:
        print(f"  t={event.time:.3f}s {event.kind.value:>14} "
              f"{event.detector or event.site}")


if __name__ == "__main__":
    asyncio.run(main())
