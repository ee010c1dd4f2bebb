"""Tests for the loss models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from tests.conftest import assert_block_equals_scalar, examples, send_schedules


def drop_rate(model, count=50000):
    return sum(model.drops(float(i)) for i in range(count)) / count


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        assert not any(model.drops(float(i)) for i in range(1000))


class TestBernoulliLoss:
    def test_zero_probability_never_drops(self, rng):
        assert drop_rate(BernoulliLoss(rng, 0.0), 1000) == 0.0

    def test_one_probability_always_drops(self, rng):
        assert drop_rate(BernoulliLoss(rng, 1.0), 1000) == 1.0

    def test_rate_matches_probability(self, rng):
        assert drop_rate(BernoulliLoss(rng, 0.05)) == pytest.approx(0.05, rel=0.1)

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            BernoulliLoss(rng, 1.5)
        with pytest.raises(ValueError):
            BernoulliLoss(rng, -0.1)

    def test_drops_are_independent(self, rng):
        model = BernoulliLoss(rng, 0.5)
        outcomes = np.array([model.drops(float(i)) for i in range(50000)])
        # Lag-1 correlation of an independent sequence is ~0.
        centred = outcomes.astype(float) - outcomes.mean()
        lag1 = np.dot(centred[:-1], centred[1:]) / np.dot(centred, centred)
        assert abs(lag1) < 0.02


class TestGilbertElliottLoss:
    def test_steady_state_rate_formula(self, rng):
        model = GilbertElliottLoss(
            rng, p_good_to_bad=0.002, p_bad_to_good=0.3,
            loss_good=0.0005, loss_bad=0.75,
        )
        expected = model.steady_state_loss_rate()
        assert expected == pytest.approx(0.00547, rel=0.01)

    def test_observed_rate_matches_steady_state(self, rng):
        model = GilbertElliottLoss(
            rng, p_good_to_bad=0.01, p_bad_to_good=0.2,
            loss_good=0.0, loss_bad=1.0,
        )
        observed = drop_rate(model, 200000)
        assert observed == pytest.approx(model.steady_state_loss_rate(), rel=0.1)

    def test_losses_are_bursty(self, rng):
        model = GilbertElliottLoss(
            rng, p_good_to_bad=0.01, p_bad_to_good=0.2,
            loss_good=0.0, loss_bad=1.0,
        )
        outcomes = np.array([model.drops(float(i)) for i in range(200000)]).astype(float)
        centred = outcomes - outcomes.mean()
        lag1 = np.dot(centred[:-1], centred[1:]) / np.dot(centred, centred)
        # Markov-modulated losses must be positively correlated.
        assert lag1 > 0.3

    def test_never_transitions_when_probabilities_zero(self, rng):
        model = GilbertElliottLoss(
            rng, p_good_to_bad=0.0, p_bad_to_good=0.0,
            loss_good=0.0, loss_bad=1.0,
        )
        assert drop_rate(model, 1000) == 0.0
        assert model.steady_state_loss_rate() == 0.0

    def test_reset_returns_to_good_state(self, rng):
        model = GilbertElliottLoss(
            rng, p_good_to_bad=1.0, p_bad_to_good=0.0,
            loss_good=0.0, loss_bad=1.0,
        )
        model.drops(0.0)
        assert model.in_bad_state
        model.reset()
        assert not model.in_bad_state

    def test_invalid_probabilities_rejected(self, rng):
        with pytest.raises(ValueError):
            GilbertElliottLoss(rng, p_good_to_bad=1.5, p_bad_to_good=0.1)
        with pytest.raises(ValueError):
            GilbertElliottLoss(rng, 0.1, 0.1, loss_bad=2.0)


class EveryOtherSecond(LossModel):
    """A loss model that reads ``now``: drops in odd seconds only."""

    def drops(self, now):
        return int(now) % 2 == 1


probabilities = st.sampled_from([0.0, 1e-5, 5e-4, 0.002, 0.3, 0.75, 1.0])


def check(make, schedule):
    assert_block_equals_scalar(make, "drops", "drops_many", schedule)


class TestBlockEqualsPerDatagram:
    """``drops_many`` returns what as many ``drops`` calls return and leaves
    the generator and the model where they would: the replay engine's
    trace synthesis takes the block, the simulator the per-datagram call."""

    @settings(max_examples=examples(60), deadline=None)
    @given(
        p_gb=probabilities,
        p_bg=probabilities,
        loss_good=probabilities,
        loss_bad=probabilities,
        schedule=send_schedules(400),
    )
    def test_gilbert_elliott(self, p_gb, p_bg, loss_good, loss_bad, schedule):
        check(
            lambda rng: GilbertElliottLoss(
                rng, p_gb, p_bg, loss_good=loss_good, loss_bad=loss_bad
            ),
            schedule,
        )

    @settings(max_examples=examples(30), deadline=None)
    @given(p=st.floats(0.0, 1.0), schedule=send_schedules(400))
    def test_bernoulli(self, p, schedule):
        check(lambda rng: BernoulliLoss(rng, p), schedule)

    @settings(max_examples=examples(10), deadline=None)
    @given(schedule=send_schedules(400))
    def test_stateless_and_now_dependent_models(self, schedule):
        check(lambda rng: NoLoss(), schedule)
        check(lambda rng: EveryOtherSecond(), schedule)

    @pytest.mark.parametrize("p", [0.0, 1e-5, 1.0])
    def test_bernoulli_edges(self, p):
        # p == 0 draws nothing on either path; p == 1 still draws.
        check(lambda rng: BernoulliLoss(rng, p), (np.arange(3000) * 0.7, (100, 2900)))

    @pytest.mark.parametrize("loss_good, loss_bad", [(0.0, 0.75), (0.0005, 0.0)])
    def test_gilbert_elliott_with_a_loss_free_state_takes_the_loop(
        self, loss_good, loss_bad
    ):
        # A loss-free state draws once per datagram, not twice: a block of
        # 2n uniforms would be the wrong draws.
        make = lambda rng: GilbertElliottLoss(  # noqa: E731
            rng, 0.05, 0.3, loss_good=loss_good, loss_bad=loss_bad
        )
        check(make, (np.arange(3000) * 0.7, (100, 2900)))
