"""Live-mode KV smoke test: one real-UDP failover, fully observable.

The acceptance scenario of the KV subsystem's live mode: a monitor
daemon with a live detector bank, two `LiveKvNode` replicas heartbeating
it over loopback UDP, a `LiveFailoverController` driving view changes
from suspect/trust transitions, and an `AsyncKvClient` writing through
the failover.  Every state transition must be visible in the `repro.obs`
trace and the `/metrics` exposition.
"""

import asyncio

import pytest

from repro.chaos import ChaosEngine, FaultPlan, attach_backend
from repro.fd.heartbeat import Heartbeater
from repro.fd.simcrash import SimCrash
from repro.kv.live import AsyncKvClient, LiveFailoverController, LiveKvNode
from repro.kv.node import KvNodeLayer
from repro.obs import TraceRecorder
from repro.service import LiveCrash, MonitorDaemon

pytestmark = [pytest.mark.kv, pytest.mark.network]

NETWORK_TIMEOUT = 90.0


def run(coroutine, timeout=NETWORK_TIMEOUT):
    """Run an async test body with a hard timeout (no plugin needed)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def eventually(predicate, *, timeout=30.0, interval=0.02):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


def _learned(network, name):
    """Whether ``network``'s peer table has an address for ``name``."""
    try:
        network.endpoint(name)
    except KeyError:
        return False
    return True


class TestLiveFailover:
    def test_real_udp_failover_is_fully_observable(self):
        async def main():
            tracer = TraceRecorder(None, ring_capacity=8192)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.1,
                detector_ids=["Last+CI_med"], initial_timeout=0.8,
                auto_register=True, tracer=tracer,
            )
            await daemon.start()
            names = ["kv-a", "kv-b"]
            nodes = [
                LiveKvNode(
                    name, names, daemon.udp_endpoint, eta=0.1, tracer=tracer
                )
                for name in names
            ]
            client = None
            try:
                for node in nodes:
                    await node.start()
                for node in nodes:
                    for other in nodes:
                        if other is not node:
                            node.add_peer(other.name, other.udp_endpoint)
                controller = LiveFailoverController(
                    daemon, names, detector_id="Last+CI_med"
                )
                assert daemon.kv_controller is controller
                client = AsyncKvClient(
                    "c1",
                    {node.name: node.udp_endpoint for node in nodes},
                    names,
                    op_timeout=0.4,
                    max_retries=30,
                )
                await client.start()

                # A live replica is the simulator's stack in a NekoProcess.
                assert [type(layer) for layer in nodes[0].process.stack.layers] == [
                    KvNodeLayer, Heartbeater, LiveCrash
                ]
                assert issubclass(LiveCrash, SimCrash)

                # Both replicas heartbeat the daemon, which learns their
                # service addresses from the inbound datagrams.
                assert await eventually(
                    lambda: all(_learned(daemon.network, n) for n in names)
                )

                # A write against the initial view lands on kv-a.
                before = await client.set("k", "before-crash")
                assert before == (0, 1)

                # Crash the primary: the detector suspects it and the
                # controller installs a view naming kv-b.
                nodes[0].crash()
                assert await eventually(
                    lambda: controller.view.primary == "kv-b"
                )
                assert controller.failovers_total >= 1

                # Writes and reads continue against the new primary; the
                # new-epoch version dominates the pre-crash one.
                after = await client.set("k", "after-failover")
                assert after > before and after[0] >= 1
                value, version, stale = await client.get("k")
                assert value == "after-failover"
                assert version == after and not stale

                # Every transition is visible in the trace...
                kinds = {event["kind"] for event in tracer.tail(8192)}
                assert {"crash", "suspect", "kv-demote", "kv-promote",
                        "kv-view"} <= kinds
                # ...including send spans from the KV replicas' own
                # heartbeat emitters (the shared tracer is threaded
                # through LiveKvNode), wall-time and seq on every one.
                kv_sends = [
                    event for event in tracer.tail(8192, kind="send")
                    if event["endpoint"] in names
                ]
                assert kv_sends
                assert all(
                    "seq" in event and "t" in event for event in kv_sends
                )
                # ...and on /metrics.
                metrics = daemon.exporter.render()
                assert "fd_kv_epoch" in metrics
                assert "fd_kv_failovers_total" in metrics
                assert 'fd_kv_primary{endpoint="kv-b"} 1' in metrics
                assert "fd_service_sent_datagrams_total" in metrics
                assert controller.views_broadcast > 0
            finally:
                if client is not None:
                    await client.stop()
                for node in nodes:
                    await node.stop()
                await daemon.stop()
                tracer.close()

        run(main())


class TestLivePartitionHeal:
    def test_partition_demotes_and_heal_readopts_primary(self):
        """A healed primary is re-adopted and clients converge.

        The chaos shim on the daemon intake drops kv-a's heartbeats for
        a 4s window — a pure network partition, the node itself stays
        healthy.  The controller must demote to kv-b while kv-a is
        unreachable, then re-promote kv-a (priority order) once its
        heartbeats flow again, and a client must see its writes land on
        whichever primary the view names at the time.
        """
        async def main():
            plan = (
                FaultPlan.build(name="kv-heal", seed=0)
                .partition("kv-a", "*", 0.0, 4.0, bidirectional=False)
                .done()
            )
            engine = ChaosEngine(plan)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.1,
                detector_ids=["Last+CI_med"], initial_timeout=0.8,
                auto_register=True,
            )
            intake = attach_backend(engine, daemon.network, name="daemon")
            await daemon.start()
            # Keep the partition dormant until the steady state exists.
            intake.arm(float("inf"))
            names = ["kv-a", "kv-b"]
            nodes = [
                LiveKvNode(name, names, daemon.udp_endpoint, eta=0.1)
                for name in names
            ]
            client = None
            try:
                for node in nodes:
                    await node.start()
                for node in nodes:
                    for other in nodes:
                        if other is not node:
                            node.add_peer(other.name, other.udp_endpoint)
                controller = LiveFailoverController(
                    daemon, names, detector_id="Last+CI_med"
                )
                client = AsyncKvClient(
                    "c1",
                    {node.name: node.udp_endpoint for node in nodes},
                    names,
                    op_timeout=0.4,
                    max_retries=30,
                )
                await client.start()

                assert await eventually(
                    lambda: all(_learned(daemon.network, n) for n in names)
                )
                before = await client.set("k", "pre-partition")
                assert controller.view.primary == "kv-a"

                # Anchor the plan: the 4s partition starts *now*.
                intake.arm(daemon.scheduler.now)
                assert await eventually(
                    lambda: controller.view.primary == "kv-b", timeout=15.0
                ), "partitioned primary must be demoted"
                assert controller.failovers_total >= 1
                during = await client.set("k", "during-partition")
                assert during > before

                # Heal: kv-a's heartbeats flow again, the detector
                # re-trusts, and priority order re-promotes kv-a.
                assert await eventually(
                    lambda: controller.view.primary == "kv-a", timeout=20.0
                ), "healed primary must be re-adopted"
                assert controller.failovers_total >= 2
                assert engine.stats.dropped > 0

                # The client converges on the restored primary: a fresh
                # write lands there and dominates every earlier version.
                after = await client.set("k", "post-heal")
                assert after > during
                value, version, stale = await client.get("k")
                assert value == "post-heal"
                assert version == after and not stale
            finally:
                if client is not None:
                    await client.stop()
                for node in nodes:
                    await node.stop()
                await daemon.stop()

        run(main())
