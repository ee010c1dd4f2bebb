"""Tests for Heartbeater, SimCrash and MultiPlexer layers."""

import numpy as np
import pytest

from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.neko.layer import Layer, ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.events import EventKind
from repro.nekostat.log import EventLog
from repro.net.delay import ConstantDelay
from repro.net.message import Datagram

from tests.conftest import RecordingLayer


class TestHeartbeater:
    def wire(self, sim, event_log, eta=1.0, record=True):
        system = NekoSystem(sim)
        system.network.set_link("q", "p", ConstantDelay(0.1))
        heartbeater = Heartbeater("p", eta, event_log, record_sent_events=record)
        recorder = RecordingLayer()
        system.create_process("q", ProtocolStack([heartbeater]))
        system.create_process("p", ProtocolStack([recorder]))
        system.start()
        return heartbeater, recorder

    def test_sends_every_eta(self, sim, event_log):
        heartbeater, recorder = self.wire(sim, event_log)
        sim.run(until=5.5)
        assert heartbeater.sent == 6  # t = 0..5
        assert [m.seq for m in recorder.received] == [0, 1, 2, 3, 4, 5]

    def test_timestamps_are_send_times(self, sim, event_log):
        _, recorder = self.wire(sim, event_log, eta=2.0)
        sim.run(until=6.5)
        assert [m.timestamp for m in recorder.received] == [0.0, 2.0, 4.0, 6.0]

    def test_sent_events_recorded(self, sim, event_log):
        self.wire(sim, event_log)
        sim.run(until=3.5)
        sent = event_log.filter(kind=EventKind.SENT)
        assert [e.seq for e in sent] == [0, 1, 2, 3]

    def test_sent_events_optional(self, sim, event_log):
        self.wire(sim, event_log, record=False)
        sim.run(until=3.5)
        assert event_log.filter(kind=EventKind.SENT) == []

    def test_stop(self, sim, event_log):
        heartbeater, _ = self.wire(sim, event_log)
        sim.schedule(2.5, heartbeater.stop)
        sim.run(until=10.0)
        assert heartbeater.sent == 3

    def test_kind_is_heartbeat(self, sim, event_log):
        _, recorder = self.wire(sim, event_log)
        sim.run(until=0.5)
        assert recorder.received[0].kind == "heartbeat"

    def test_invalid_eta(self, event_log):
        with pytest.raises(ValueError):
            Heartbeater("p", 0.0, event_log)


class TestSimCrash:
    def wire(self, sim, event_log, schedule=None, rng=None, mttc=10.0, ttr=2.0):
        system = NekoSystem(sim)
        system.network.set_link("q", "p", ConstantDelay(0.0))
        heartbeater = Heartbeater("p", 1.0, event_log)
        simcrash = SimCrash(mttc, ttr, rng, event_log, schedule=schedule)
        recorder = RecordingLayer()
        system.create_process("q", ProtocolStack([heartbeater, simcrash]))
        system.create_process("p", ProtocolStack([recorder]))
        system.start()
        return simcrash, recorder

    def test_drops_messages_while_crashed(self, sim, event_log):
        simcrash, recorder = self.wire(sim, event_log, schedule=[(2.5, 5.5)])
        sim.run(until=8.5)
        # Heartbeats at 0,1,2 pass; 3,4,5 dropped; 6,7,8 pass.
        assert [m.seq for m in recorder.received] == [0, 1, 2, 6, 7, 8]
        assert simcrash.dropped_messages == 3

    def test_emits_crash_and_restore_events(self, sim, event_log):
        self.wire(sim, event_log, schedule=[(2.5, 5.5)])
        sim.run(until=8.0)
        assert event_log.crash_intervals(end_time=8.0) == [(2.5, 5.5)]

    def test_uniform_time_to_crash_range(self, sim, event_log):
        # With MTTC the delay to first crash is in [MTTC/2, 3*MTTC/2].
        rng = np.random.default_rng(0)
        simcrash, _ = self.wire(sim, event_log, rng=rng, mttc=10.0, ttr=1.0)
        sim.run(until=200.0)
        crashes = event_log.filter(kind=EventKind.CRASH)
        restores = event_log.filter(kind=EventKind.RESTORE)
        assert len(crashes) >= 10
        gaps = [c.time - r.time for r, c in zip(restores, crashes[1:])]
        assert all(5.0 <= gap <= 15.0 for gap in gaps)

    def test_ttr_is_constant(self, sim, event_log):
        rng = np.random.default_rng(1)
        self.wire(sim, event_log, rng=rng, mttc=10.0, ttr=2.0)
        sim.run(until=200.0)
        for crash_time, restore_time in event_log.crash_intervals(end_time=200.0):
            assert restore_time - crash_time == pytest.approx(2.0)

    def test_deliver_also_dropped_while_crashed(self, sim, event_log):
        simcrash, _ = self.wire(sim, event_log, schedule=[(2.5, 5.5)])
        upper = RecordingLayer()
        simcrash.deliver_up = upper.deliver
        sim.run(until=3.0)  # now crashed
        simcrash.deliver(Datagram(source="p", destination="q", kind="t"))
        assert upper.received == []

    def test_disabled_is_transparent(self, sim, event_log):
        system = NekoSystem(sim)
        system.network.set_link("q", "p", ConstantDelay(0.0))
        heartbeater = Heartbeater("p", 1.0, event_log)
        simcrash = SimCrash(10.0, 1.0, None, event_log, enabled=False)
        recorder = RecordingLayer()
        system.create_process("q", ProtocolStack([heartbeater, simcrash]))
        system.create_process("p", ProtocolStack([recorder]))
        system.start()
        sim.run(until=20.0)
        assert event_log.filter(kind=EventKind.CRASH) == []
        assert len(recorder.received) == 21

    def test_requires_rng_when_enabled_without_schedule(self, event_log):
        with pytest.raises(ValueError):
            SimCrash(10.0, 1.0, None, event_log)

    def test_invalid_schedule_rejected(self, event_log):
        with pytest.raises(ValueError):
            SimCrash(10.0, 1.0, None, event_log, schedule=[(5.0, 4.0)])
        with pytest.raises(ValueError):
            SimCrash(10.0, 1.0, None, event_log, schedule=[(5.0, 8.0), (7.0, 9.0)])

    def test_invalid_parameters(self, event_log):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SimCrash(0.0, 1.0, rng, event_log)
        with pytest.raises(ValueError):
            SimCrash(10.0, -1.0, rng, event_log)


class TestMultiPlexer:
    def test_fans_out_to_all_uppers(self, sim):
        recorders = [RecordingLayer(f"r{i}") for i in range(3)]
        multiplexer = MultiPlexer(recorders)
        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([multiplexer]))
        message = Datagram(source="q", destination="p", kind="t", seq=1)
        multiplexer.deliver(message)
        for recorder in recorders:
            assert recorder.received == [message]
        assert multiplexer.messages_fanned_out == 1

    def test_identical_message_instance_to_every_upper(self, sim):
        # The fair-comparison guarantee: every upper sees the same arrival.
        recorders = [RecordingLayer(f"r{i}") for i in range(2)]
        multiplexer = MultiPlexer(recorders)
        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([multiplexer]))
        message = Datagram(source="q", destination="p", kind="t", seq=1)
        multiplexer.deliver(message)
        assert recorders[0].received[0] is recorders[1].received[0]

    def test_uppers_attached_to_process(self, sim):
        recorder = RecordingLayer()
        multiplexer = MultiPlexer([recorder])
        system = NekoSystem(sim)
        process = system.create_process("p", ProtocolStack([multiplexer]))
        assert recorder.process is process

    def test_uppers_can_send_down_through_multiplexer(self, sim):
        sender = Layer("sender")
        multiplexer = MultiPlexer([sender])
        system = NekoSystem(sim)
        system.network.set_link("p", "q", ConstantDelay(0.0))
        recorder = RecordingLayer()
        system.create_process("p", ProtocolStack([multiplexer]))
        system.create_process("q", ProtocolStack([recorder]))
        sender.send_down(Datagram(source="p", destination="q", kind="t"))
        sim.run()
        assert len(recorder.received) == 1

    def test_received_events_recorded_once(self, sim, event_log):
        recorders = [RecordingLayer(f"r{i}") for i in range(5)]
        multiplexer = MultiPlexer(recorders, event_log, record_received_events=True)
        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([multiplexer]))
        multiplexer.deliver(Datagram(source="q", destination="p", kind="t", seq=7))
        received = event_log.filter(kind=EventKind.RECEIVED)
        assert len(received) == 1
        assert received[0].seq == 7

    def test_on_start_propagates_to_uppers(self, sim):
        started = []

        class Probe(Layer):
            def on_start(self):
                started.append(self.name)

        multiplexer = MultiPlexer([Probe("a"), Probe("b")])
        system = NekoSystem(sim)
        system.create_process("p", ProtocolStack([multiplexer]))
        system.start()
        assert started == ["a", "b"]
