"""Tests for the fair-lossy link."""

import pytest

from repro.net.delay import ConstantDelay
from repro.net.link import FairLossyLink
from repro.net.loss import BernoulliLoss
from repro.net.message import Datagram
from repro.sim.random import RandomStreams
from tests.reference_delay import TraceDelay


def make_datagram(seq=None):
    return Datagram(source="p", destination="q", kind="test", seq=seq)


class TestDelivery:
    def test_delivers_after_sampled_delay(self, sim):
        received = []
        link = FairLossyLink(sim, ConstantDelay(0.25))
        link.connect(lambda m: received.append((sim.now, m)))
        link.send(make_datagram())
        sim.run()
        assert len(received) == 1
        assert received[0][0] == pytest.approx(0.25)

    def test_send_returns_sampled_delay(self, sim):
        link = FairLossyLink(sim, ConstantDelay(0.1), receiver=lambda m: None)
        assert link.send(make_datagram()) == pytest.approx(0.1)

    def test_send_without_receiver_raises(self, sim):
        link = FairLossyLink(sim, ConstantDelay(0.1))
        with pytest.raises(RuntimeError):
            link.send(make_datagram())

    def test_payload_unmodified(self, sim):
        received = []
        link = FairLossyLink(sim, ConstantDelay(0.0), receiver=received.append)
        message = Datagram(source="p", destination="q", kind="t", payload={"x": 1})
        link.send(message)
        sim.run()
        assert received[0] is message

    def test_stats_counters(self, sim):
        link = FairLossyLink(sim, ConstantDelay(0.01), receiver=lambda m: None)
        for _ in range(5):
            link.send(make_datagram())
        sim.run()
        assert link.stats.sent == 5
        assert link.stats.delivered == 5
        assert link.stats.dropped == 0

    def test_records_delays(self, sim):
        link = FairLossyLink(
            sim, TraceDelay([0.1, 0.2, 0.3]), receiver=lambda m: None
        )
        for _ in range(3):
            link.send(make_datagram())
        sim.run()
        assert link.stats.delays == pytest.approx([0.1, 0.2, 0.3])

    def test_record_delays_can_be_disabled(self, sim):
        link = FairLossyLink(
            sim, ConstantDelay(0.1), receiver=lambda m: None, record_delays=False
        )
        link.send(make_datagram())
        sim.run()
        assert link.stats.delays == []


class TestLoss:
    def test_dropped_datagrams_never_delivered(self, sim, streams):
        received = []
        link = FairLossyLink(
            sim,
            ConstantDelay(0.01),
            BernoulliLoss(streams.get("loss"), 1.0),
            receiver=received.append,
        )
        for _ in range(10):
            assert link.send(make_datagram()) is None
        sim.run()
        assert received == []
        assert link.stats.dropped == 10
        assert link.stats.loss_rate == 1.0

    def test_loss_rate_zero_when_nothing_sent(self, sim):
        link = FairLossyLink(sim, ConstantDelay(0.0), receiver=lambda m: None)
        assert link.stats.loss_rate == 0.0

    def test_partial_loss(self, sim, streams):
        link = FairLossyLink(
            sim,
            ConstantDelay(0.001),
            BernoulliLoss(streams.get("loss"), 0.3),
            receiver=lambda m: None,
        )
        for _ in range(5000):
            link.send(make_datagram())
        sim.run()
        assert link.stats.loss_rate == pytest.approx(0.3, rel=0.1)
        assert link.stats.delivered + link.stats.dropped == 5000


class TestReordering:
    def test_faster_datagram_overtakes(self, sim):
        received = []
        link = FairLossyLink(
            sim, TraceDelay([0.5, 0.1]), receiver=lambda m: received.append(m.seq)
        )
        link.send(make_datagram(seq=0))
        link.send(make_datagram(seq=1))
        sim.run()
        assert received == [1, 0]
        assert link.stats.reordered == 1

    def test_fifo_mode_prevents_overtaking(self, sim):
        received = []
        link = FairLossyLink(
            sim,
            TraceDelay([0.5, 0.1]),
            receiver=lambda m: received.append((sim.now, m.seq)),
            fifo=True,
        )
        link.send(make_datagram(seq=0))
        link.send(make_datagram(seq=1))
        sim.run()
        assert [seq for _, seq in received] == [0, 1]
        # The overtaking datagram was clamped to the earlier delivery time.
        assert received[1][0] >= received[0][0]
        assert link.stats.reordered == 0

    def test_in_order_delays_not_counted_reordered(self, sim):
        link = FairLossyLink(
            sim, TraceDelay([0.1, 0.2, 0.3]), receiver=lambda m: None
        )
        for i in range(3):
            link.send(make_datagram(seq=i))
        sim.run()
        assert link.stats.reordered == 0

    def test_negative_delay_from_model_rejected(self, sim):
        class BadModel:
            def sample(self, now):
                return -1.0

            def reset(self):
                pass

        link = FairLossyLink(sim, BadModel(), receiver=lambda m: None)
        with pytest.raises(ValueError):
            link.send(make_datagram())
