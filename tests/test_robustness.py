"""Robustness tests: component interplay and hostile inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.combinations import make_strategy
from repro.net.link import FairLossyLink
from repro.net.loss import BernoulliLoss
from repro.net.message import Datagram
from repro.timeseries.arima import ArimaForecaster
from tests.reference_delay import CompositeDelay, TelegraphDelay, TraceDelay


class TestDelayModelInterplay:
    def test_composite_reset_propagates(self, rng):
        telegraph = TelegraphDelay(rng, high=1.0, dwell_low=1, dwell_high=10**9)
        trace = TraceDelay([0.1, 0.2])
        composite = CompositeDelay([telegraph, trace])
        composite.sample(0.0)
        composite.sample(1.0)
        composite.reset()
        assert not telegraph.in_high_state
        assert composite.sample(0.0) in (0.1, 1.1)  # trace restarted at 0.1

    def test_fifo_with_loss(self, sim, streams):
        received = []
        link = FairLossyLink(
            sim,
            TraceDelay([0.5, 0.1, 0.1, 0.1]),
            BernoulliLoss(streams.get("loss"), 0.5),
            receiver=lambda m: received.append(m.seq),
            fifo=True,
        )
        for seq in range(20):
            link.send(Datagram(source="a", destination="b", kind="t", seq=seq))
        sim.run()
        # Whatever was dropped, the survivors arrive in send order.
        assert received == sorted(received)
        assert link.stats.dropped + link.stats.delivered == 20


class TestStrategyRobustness:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_all_thirty_strategies_survive_hostile_delays(self, delays):
        """Extreme delay sequences (0 to 100 s, any order) must never
        produce a non-finite or negative time-out in any combination."""
        import math

        from repro.fd.combinations import all_combinations

        for _, predictor, margin in all_combinations():
            strategy = make_strategy(predictor, margin)
            for delay in delays:
                strategy.observe(delay)
                timeout = strategy.timeout()
                assert math.isfinite(timeout)
                assert timeout >= 0.0

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=250,
            max_size=400,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_arima_forecaster_never_diverges(self, observations):
        """Even on adversarial inputs the online ARIMA stays finite: a
        non-stationary fit is rejected and the previous model kept."""
        import math

        forecaster = ArimaForecaster(2, 1, 1, refit_interval=100, initial_fit=50)
        for value in observations:
            forecaster.observe(value)
            assert math.isfinite(forecaster.predict())

    def test_strategy_with_zero_delays_everywhere(self):
        strategy = make_strategy("Arima", "JAC_high")
        for _ in range(300):
            strategy.observe(0.0)
        assert strategy.timeout() == pytest.approx(0.0, abs=1e-9)

    def test_strategy_with_alternating_extremes(self):
        strategy = make_strategy("LPF", "CI_high")
        for i in range(500):
            strategy.observe(0.001 if i % 2 == 0 else 10.0)
        timeout = strategy.timeout()
        # The CI margin must cover the enormous dispersion.
        assert timeout > 5.0


class TestSimulatorStress:
    def test_hundred_thousand_events(self, sim):
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 100_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert counter[0] == 100_000
        assert sim.now == pytest.approx(99.999, abs=0.01)

    def test_many_cancelled_events_are_collected(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10_000)]
        for handle in handles:
            handle.cancel()
        fired = []
        sim.schedule(0.5, lambda: fired.append(True))
        sim.run()
        assert fired == [True]
        assert sim.events_processed == 1
