"""Live KV: `run_kv_sim`'s cluster on one real loopback UDP socket.

`build_kv_cluster` creates the controller, the replicas and the client
on a `NekoSystem` over one `UdpNetwork`, exactly as `run_kv_sim` does on
the simulated network, and `KvCluster.finish` turns the run into the
same `KvSimResult`.  On loopback every detector combination flaps (a
node is suspected for about a millisecond every 0.1–1 s), so these
tests assert eventual states, never view counts.
"""

import asyncio
import json
import os

import pytest

from repro.chaos import ChaosEngine, FaultEvent, FaultPlan, attach_backend
from repro.fd.heartbeat import Heartbeater
from repro.fd.simcrash import SimCrash
from repro.kv.node import KvNodeLayer
from repro.kv.sim import KvSimConfig, build_kv_cluster
from repro.kv.workload import WorkloadSpec
from repro.neko.system import NekoSystem, SimulatedNetwork
from repro.net.udp import UdpNetwork
from repro.obs import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

pytestmark = [pytest.mark.kv, pytest.mark.network]

NETWORK_TIMEOUT = 90.0

#: One client keeps one key busy, so every read is of the last writes.
WORKLOAD = WorkloadSpec(
    read_fraction=0.5, key_space=1, think_time=0.05, op_timeout=0.4,
    max_retries=30,
)


def live_config(crashes):
    return KvSimConfig(
        nodes=2, clients=1, eta=0.1, initial_timeout=0.8,
        workload=WORKLOAD, crashes=crashes,
    )


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


async def live_cluster(config, engine=None, tracer=None):
    """The cluster on one opened loopback network, started; with a chaos
    ``engine`` its intake shim is returned too, dormant until armed."""
    network = UdpNetwork(tracer=tracer)
    intake = None
    if engine is not None:
        intake = attach_backend(engine, network, name="kv")
        intake.arm(float("inf"))
    await network.open()
    system = NekoSystem(network.scheduler, network)
    cluster = build_kv_cluster(system, config, RandomStreams(config.seed))
    system.start()
    return network, cluster, intake


def stack_types(system):
    return {
        name: [type(layer) for layer in process.stack.layers]
        for name, process in system.processes.items()
    }


def assert_stacks_are_the_simulators(cluster):
    sim = Simulator()
    simulated = NekoSystem(sim, SimulatedNetwork(sim))
    build_kv_cluster(simulated, cluster.config, RandomStreams(0))
    live = stack_types(cluster.system)
    assert live == stack_types(simulated)
    assert live["node0"] == [KvNodeLayer, Heartbeater, SimCrash]


def acked_writes(records, *, since=float("-inf"), epoch=0):
    return [
        record for record in records
        if record.op == "set" and record.ok and record.start >= since
        and record.version[0] >= epoch
    ]


def write_read_back(records, since, epoch):
    """The first write acked in ``epoch`` or later that started after
    ``since``, and the first read issued after it — once both exist."""
    writes = acked_writes(records, since=since, epoch=epoch)
    if not writes:
        return None
    read = next(
        (record for record in records
         if record.op == "get" and record.ok and record.start >= writes[0].end),
        None,
    )
    return (writes[0], read) if read is not None else None


class TestLiveFailover:
    def test_crash_fails_over_and_writes_continue_in_a_newer_epoch(self):
        # node0, the first primary, crashes 0.5 s after the build.
        config = live_config(crashes=((0, 0.5, 3600.0),))

        async def main():
            tracer = TraceRecorder(None, ring_capacity=8192)
            network, cluster, _ = await live_cluster(config, tracer=tracer)
            try:
                assert_stacks_are_the_simulators(cluster)
                state = cluster.controller.state
                records = cluster.clients["client0"].records
                crash = cluster.system.processes["node0"].stack.layers[-1]

                assert await eventually(lambda: acked_writes(records))
                before = acked_writes(records)[0]

                # The detector suspects the crashed primary for good and
                # the controller installs a view naming node1.
                assert await eventually(
                    lambda: crash.crashed and "node0" in state.suspected
                    and state.primary == "node1"
                )
                failover_epoch = state.epoch
                failed_over_at = network.scheduler.now

                # Writes continue on the new primary in a newer epoch, and
                # a later read returns them, not stale.
                assert await eventually(
                    lambda: write_read_back(records, failed_over_at, failover_epoch)
                )
                after, read = write_read_back(
                    records, failed_over_at, failover_epoch
                )
                assert after.version > before.version
                assert read.version >= after.version and not read.stale

                # The network traced every heartbeat it put on the wire:
                # a `send` span with the replica, wall time and seq.
                sends = tracer.tail(8192, kind="send")
                assert {event["endpoint"] for event in sends} == {
                    "node0", "node1"
                }
                assert all("seq" in event and "t" in event for event in sends)
            finally:
                result = cluster.finish()
                network.close()
                tracer.close()
            # The same finish as a simulated run: both QoS layers.
            assert result.summary.ops == len(result.records) > 0
            assert len(result.detector_qos["node0"].td_samples) == 1

        run(main())


class TestLiveQos:
    def test_detector_qos_counts_from_the_build(self):
        """Each replica's `DetectorQos` covers the run, not the loop's
        time before the build: its observation and up time are at most
        the run's length, and node0's up time leaves out its crash."""
        config = live_config(crashes=((0, 0.3, 0.6),))

        async def main():
            network, cluster, _ = await live_cluster(config)
            try:
                await asyncio.sleep(1.0)
            finally:
                result = cluster.finish()
                length = network.scheduler.now - cluster.start
                network.close()
            return result, length

        result, length = run(main())
        for node, qos in result.detector_qos.items():
            assert 0.0 < qos.up_time <= qos.observation_time <= length, node
            assert qos.suspected_up_time <= qos.up_time, node
        node0 = result.detector_qos["node0"]
        # Crash and restore fire when the loop gets to them, a little late.
        assert node0.up_time == pytest.approx(node0.observation_time - 0.3, abs=0.1)


class TestLivePartitionHeal:
    #: Seconds node0's outbound traffic is dropped.
    PARTITION = 1.5

    @pytest.mark.chaos
    def test_partition_demotes_and_heal_readopts_primary(self):
        """A partitioned primary is demoted; once healed it is primary
        again, and the client converges on it.

        The chaos shim on the one network's intake drops every datagram
        node0 sends — its heartbeats, replies and replication — for
        ``PARTITION`` seconds; the node itself stays healthy.
        """
        config = live_config(crashes=())
        plan = FaultPlan(
            events=[FaultEvent("partition", 0.0, self.PARTITION, source="node0")],
            name="kv-heal",
        )
        engine = ChaosEngine(plan)

        async def main():
            network, cluster, intake = await live_cluster(config, engine)
            try:
                assert_stacks_are_the_simulators(cluster)
                state = cluster.controller.state
                records = cluster.clients["client0"].records

                assert await eventually(
                    lambda: acked_writes(records) and state.primary == "node0"
                )
                before = acked_writes(records)[-1]

                # Anchor the plan: the partition starts now.
                partitioned_at = network.scheduler.now
                intake.arm(partitioned_at)
                assert await eventually(
                    lambda: state.primary == "node1"
                    and "node0" in state.suspected, timeout=15.0
                ), "partitioned primary must be demoted"
                failover_epoch = state.epoch
                assert await eventually(
                    lambda: acked_writes(
                        records, since=partitioned_at, epoch=failover_epoch
                    )
                )
                during = acked_writes(
                    records, since=partitioned_at, epoch=failover_epoch
                )[0]
                assert during.version > before.version

                # Heal: node0's heartbeats flow again and it is trusted.
                # Sticky leadership never deposes a trusted primary, so
                # node0 is re-adopted only once node1 is suspected —
                # falsely, as every loopback detector flaps — and node0,
                # first in priority order, is promoted.
                assert await eventually(
                    lambda: state.primary == "node0", timeout=20.0
                ), "healed primary must be re-adopted"
                assert engine.stats.dropped > 0
                readopt_epoch = state.epoch
                healed_at = network.scheduler.now

                # The client converges on the restored primary: a fresh
                # write dominates every earlier version and reads back.
                assert await eventually(
                    lambda: write_read_back(records, healed_at, readopt_epoch)
                )
                after, read = write_read_back(records, healed_at, readopt_epoch)
                assert after.version > during.version
                assert read.version >= after.version and not read.stale
            finally:
                result = cluster.finish()
                network.close()
                # CI points CHAOS_TRACE_DIR at a directory it uploads
                # when the chaos suite fails.
                trace_dir = os.environ.get("CHAOS_TRACE_DIR")
                if trace_dir:
                    os.makedirs(trace_dir, exist_ok=True)
                    path = os.path.join(trace_dir, "kv-partition-heal.json")
                    with open(path, "w") as handle:
                        json.dump(result.canonical_dict(), handle, sort_keys=True)

        run(main())
