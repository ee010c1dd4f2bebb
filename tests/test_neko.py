"""Tests for the Neko-style framework: layers, stacks, processes, system."""

import pytest

from repro.clocks.clock import DriftingClock
from repro.neko.config import ExperimentConfig
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem, SimulatedNetwork
from repro.net.delay import ConstantDelay
from repro.net.message import Datagram
from repro.net.wan import get_profile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

from tests.conftest import RecordingLayer, make_two_process_system


class TaggingLayer(Layer):
    """Appends its name to a payload list in both directions."""

    def send(self, message):
        message.payload.append(f"{self.name}:down")
        self.send_down(message)

    def deliver(self, message):
        message.payload.append(f"{self.name}:up")
        self.deliver_up(message)


class TestProtocolStack:
    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            ProtocolStack([])

    def test_top_and_bottom(self):
        a, b, c = Layer("a"), Layer("b"), Layer("c")
        stack = ProtocolStack([a, b, c])
        assert stack.top is a
        assert stack.bottom is c

    def test_find_by_type(self):
        recorder = RecordingLayer()
        stack = ProtocolStack([recorder, Layer("x")])
        assert stack.find(RecordingLayer) is recorder

    def test_find_missing_raises(self):
        stack = ProtocolStack([Layer("x")])
        with pytest.raises(LookupError):
            stack.find(RecordingLayer)

    def test_send_traverses_top_down(self, sim):
        order_a, order_b = TaggingLayer("A"), TaggingLayer("B")
        sent = []
        stack = ProtocolStack([order_a, order_b])
        system = NekoSystem(sim)
        process = system.create_process("p", stack)
        system.network.set_link("p", "q", ConstantDelay(0.0))
        message = Datagram(source="p", destination="q", kind="t", payload=[])
        stack.top.send(message)
        assert message.payload == ["A:down", "B:down"]

    def test_deliver_traverses_bottom_up(self, sim):
        recorder = RecordingLayer()
        tagger = TaggingLayer("B")
        stack = ProtocolStack([recorder, tagger])
        system = NekoSystem(sim)
        system.create_process("p", stack)
        message = Datagram(source="q", destination="p", kind="t", payload=[])
        stack.deliver_from_network(message)
        assert message.payload == ["B:up"]
        assert recorder.received == [message]

    def test_top_layer_deliver_up_is_silent(self, sim):
        layer = Layer("only")
        stack = ProtocolStack([layer])
        system = NekoSystem(sim)
        system.create_process("p", stack)
        # Delivering to the top layer's deliver_up must not raise.
        layer.deliver_up(Datagram(source="q", destination="p", kind="t"))

    def test_unattached_layer_cannot_send(self):
        layer = Layer("floating")
        with pytest.raises(RuntimeError):
            layer.send_down(Datagram(source="a", destination="b", kind="t"))

    def test_unattached_layer_has_no_process(self):
        with pytest.raises(RuntimeError):
            Layer("floating").process


class TestNekoProcess:
    def test_process_properties(self, sim):
        system = NekoSystem(sim)
        process = system.create_process("p", ProtocolStack([Layer()]))
        assert process.address == "p"
        assert process.sim is sim
        assert process.system is system

    def test_empty_address_rejected(self, sim):
        system = NekoSystem(sim)
        with pytest.raises(ValueError):
            system.create_process("", ProtocolStack([Layer()]))

    def test_duplicate_address_rejected(self, sim):
        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([Layer()]))
        with pytest.raises(ValueError):
            system.create_process("p", ProtocolStack([Layer()]))

    def test_local_time_uses_clock(self, sim):
        system = NekoSystem(sim)
        clock = DriftingClock(sim, offset=0.5)
        process = system.create_process("p", ProtocolStack([Layer()]), clock=clock)
        assert process.local_time() == 0.5

    def test_timer_factory(self, sim):
        system = NekoSystem(sim)
        process = system.create_process("p", ProtocolStack([Layer()]))
        fired = []
        timer = process.timer(lambda: fired.append(sim.now))
        timer.arm(1.0)
        sim.run()
        assert fired == [1.0]

    def test_periodic_timer_factory(self, sim):
        system = NekoSystem(sim)
        process = system.create_process("p", ProtocolStack([Layer()]))
        ticks = []
        process.periodic_timer(1.0, ticks.append).start()
        sim.run(until=2.5)
        assert ticks == [0, 1, 2]


class TestSimulatedNetwork:
    def test_routes_between_processes(self, sim):
        sender = Layer("send")
        recorder = RecordingLayer()
        system, monitored, monitor = make_two_process_system(
            sim, [sender], [recorder], delay=0.1
        )
        sender.send(Datagram(source="monitored", destination="monitor", kind="t"))
        sim.run()
        assert len(recorder.received) == 1

    def test_unknown_destination_dropped_silently(self, sim):
        sender = Layer("send")
        system, _, _ = make_two_process_system(sim, [sender], [RecordingLayer()])
        sender.send(Datagram(source="monitored", destination="ghost", kind="t"))
        sim.run()  # must not raise

    def test_default_link_created_on_demand(self, sim):
        system = NekoSystem(sim)
        sender = Layer("s")
        recorder = RecordingLayer()
        system.create_process("a", ProtocolStack([sender]))
        system.create_process("b", ProtocolStack([recorder]))
        sender.send(Datagram(source="a", destination="b", kind="t"))
        sim.run()
        assert len(recorder.received) == 1

    def test_link_lookup(self, sim):
        network = SimulatedNetwork(sim)
        link = network.set_link("a", "b", ConstantDelay(0.1))
        assert network.link("a", "b") is link
        with pytest.raises(LookupError):
            network.link("b", "a")

    def test_duplicate_registration_rejected(self, sim):
        network = SimulatedNetwork(sim)
        network.register("a", lambda m: None)
        with pytest.raises(ValueError):
            network.register("a", lambda m: None)

    def test_per_direction_links(self, sim):
        received = []

        class Echo(Layer):
            def deliver(self, message):
                received.append((self.process.address, sim.now))

        system = NekoSystem(sim)
        system.network.set_link("a", "b", ConstantDelay(0.1))
        system.network.set_link("b", "a", ConstantDelay(0.5))
        a_layer, b_layer = Echo("ea"), Echo("eb")
        system.create_process("a", ProtocolStack([a_layer]))
        system.create_process("b", ProtocolStack([b_layer]))
        a_layer.send(Datagram(source="a", destination="b", kind="t"))
        b_layer.send(Datagram(source="b", destination="a", kind="t"))
        sim.run()
        times = dict(received)
        assert times["b"] == pytest.approx(0.1)
        assert times["a"] == pytest.approx(0.5)


class TestNetworkProfile:
    """A network-wide profile builds a pair's link when it is first used."""

    @staticmethod
    def _system(sim, streams, addresses):
        network = SimulatedNetwork(
            sim, get_profile("italy-japan"), streams, record_delays=False
        )
        system = NekoSystem(sim, network)
        layers = {}
        for address in addresses:
            layers[address] = (Layer(f"s-{address}"), RecordingLayer())
            system.create_process(address, ProtocolStack(list(layers[address])))
        return network, layers

    def test_a_pair_that_carries_nothing_creates_no_stream(self, sim):
        streams = RandomStreams(3)
        network, layers = self._system(sim, streams, ["a", "b", "c"])
        assert tuple(streams.names()) == ()
        layers["a"][0].send(Datagram(source="a", destination="b", kind="t"))
        sim.run()
        assert set(streams.names()) == {
            "italy-japan.a->b.delay",
            "italy-japan.a->b.loss",
        }
        assert network.link("a", "b").stats.sent == 1

    def test_link_builds_from_the_profile(self, sim):
        streams = RandomStreams(3)
        network, layers = self._system(sim, streams, ["a", "b"])
        link = network.link("b", "a")
        assert set(streams.names()) == {
            "italy-japan.b->a.delay",
            "italy-japan.b->a.loss",
        }
        assert network.link("b", "a") is link
        layers["b"][0].send(Datagram(source="b", destination="a", kind="t"))
        sim.run()
        assert link.stats.sent == 1
        assert link.stats.delays == []  # the profile's link kwargs apply

    def test_lazy_link_equals_an_eager_one(self):
        """Same profile and seed: a link built on first use draws exactly
        what one installed before the run does."""

        def delays(eager):
            sim = Simulator()
            streams = RandomStreams(5)
            profile = get_profile("italy-japan")
            network = SimulatedNetwork(sim, profile, streams)
            if eager:
                for pair in [("b", "a"), ("a", "c"), ("a", "b")]:
                    network.set_link_profile(*pair, profile, streams)
            network.register("b", lambda message: None)
            for seq in range(200):
                sim.schedule_at(
                    seq * 0.5,
                    lambda seq=seq: network.send(
                        Datagram(source="a", destination="b", kind="t", seq=seq)
                    ),
                )
            sim.run()
            return network.link("a", "b").stats.delays

        lazy = delays(eager=False)
        assert lazy and lazy == delays(eager=True)

    def test_profile_needs_streams(self, sim):
        with pytest.raises(ValueError):
            SimulatedNetwork(sim, get_profile("italy-japan"))


class TestSystemLifecycle:
    def test_start_invokes_on_start_bottom_up(self, sim):
        order = []

        class Probe(Layer):
            def on_start(self):
                order.append(self.name)

        stack = ProtocolStack([Probe("top"), Probe("bottom")])
        system = NekoSystem(sim)
        system.create_process("p", stack)
        system.start()
        assert order == ["bottom", "top"]

    def test_start_is_idempotent(self, sim):
        count = []

        class Probe(Layer):
            def on_start(self):
                count.append(1)

        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([Probe()]))
        system.start()
        system.start()
        assert len(count) == 1

    def test_run_starts_and_advances(self, sim):
        fired = []

        class Probe(Layer):
            def on_start(self):
                self.process.sim.schedule(1.0, lambda: fired.append(True))

        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([Probe()]))
        system.run(until=2.0)
        assert fired == [True]
        assert sim.now == 2.0


class TestExperimentConfig:
    def test_defaults_match_table5(self):
        config = ExperimentConfig()
        assert config.num_cycles == 100_000
        assert config.mttc == 300.0
        assert config.ttr == 30.0
        assert config.eta == 1.0

    def test_duration(self):
        assert ExperimentConfig(num_cycles=1000, eta=0.5).duration == 500.0

    def test_expected_crashes(self):
        config = ExperimentConfig()
        assert config.expected_crashes == pytest.approx(100000 / 330)

    def test_with_run_changes_seed(self):
        base = ExperimentConfig(seed=1)
        run1 = base.with_run(1)
        run2 = base.with_run(2)
        assert run1.seed != base.seed
        assert run1.seed != run2.seed
        assert run1.run_id == 1

    def test_with_run_is_deterministic(self):
        base = ExperimentConfig(seed=1)
        assert base.with_run(3).seed == base.with_run(3).seed

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_cycles=0)
        with pytest.raises(ValueError):
            ExperimentConfig(mttc=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(ttr=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(eta=0.0)

    def test_describe_mentions_parameters(self):
        text = ExperimentConfig(seed=42).describe()
        assert "42" in text and "italy-japan" in text
