"""Tests for the delay models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delay import (
    ArCorrelatedDelay,
    CompositeDelay,
    ConstantDelay,
    DelayModel,
    DiurnalModulation,
    LognormalDelay,
    MultiScaleWanDelay,
    ShiftedGammaDelay,
    SpikeOverlay,
    SpikeTier,
    TelegraphDelay,
    TraceDelay,
)


def sample_many(model, count, interval=1.0):
    return np.array([model.sample(i * interval) for i in range(count)])


class TestConstantDelay:
    def test_returns_constant(self):
        model = ConstantDelay(0.25)
        assert model.sample(0.0) == 0.25
        assert model.sample(100.0) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-0.1)


class TestShiftedGammaDelay:
    def test_respects_minimum(self, rng):
        model = ShiftedGammaDelay(rng, minimum=0.192, shape=2.0, scale=0.005)
        assert np.all(sample_many(model, 2000) >= 0.192)

    def test_mean_matches_theory(self, rng):
        model = ShiftedGammaDelay(rng, minimum=0.1, shape=4.0, scale=0.01)
        samples = sample_many(model, 20000)
        assert samples.mean() == pytest.approx(model.mean(), rel=0.02)

    def test_std_matches_theory(self, rng):
        model = ShiftedGammaDelay(rng, minimum=0.1, shape=4.0, scale=0.01)
        samples = sample_many(model, 20000)
        assert samples.std() == pytest.approx(model.std(), rel=0.05)

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            ShiftedGammaDelay(rng, minimum=-1.0, shape=1.0, scale=1.0)
        with pytest.raises(ValueError):
            ShiftedGammaDelay(rng, minimum=0.0, shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            ShiftedGammaDelay(rng, minimum=0.0, shape=1.0, scale=-1.0)


class TestLognormalDelay:
    def test_respects_minimum(self, rng):
        model = LognormalDelay(rng, minimum=0.06, mu=-3.0, sigma=0.8)
        assert np.all(sample_many(model, 2000) >= 0.06)

    def test_heavy_tail(self, rng):
        model = LognormalDelay(rng, minimum=0.0, mu=-3.0, sigma=1.0)
        samples = sample_many(model, 50000)
        # Lognormal(sigma=1): mean/median = exp(0.5) ~ 1.65.
        assert samples.mean() / np.median(samples) > 1.4

    def test_invalid_sigma(self, rng):
        with pytest.raises(ValueError):
            LognormalDelay(rng, minimum=0.0, mu=0.0, sigma=0.0)


class TestArCorrelatedDelay:
    def test_respects_minimum(self, rng):
        model = ArCorrelatedDelay(rng, minimum=0.1, phi=0.8, noise_std=0.01)
        assert np.all(sample_many(model, 2000) >= 0.1)

    def test_positive_autocorrelation(self, rng):
        model = ArCorrelatedDelay(
            rng, minimum=0.0, phi=0.9, noise_std=0.01, bias=0.01
        )
        samples = sample_many(model, 20000)
        centred = samples - samples.mean()
        lag1 = np.dot(centred[:-1], centred[1:]) / np.dot(centred, centred)
        assert lag1 > 0.6

    def test_phi_zero_is_uncorrelated(self, rng):
        model = ArCorrelatedDelay(rng, minimum=0.0, phi=0.0, noise_std=0.01, bias=0.05)
        samples = sample_many(model, 20000)
        centred = samples - samples.mean()
        lag1 = np.dot(centred[:-1], centred[1:]) / np.dot(centred, centred)
        assert abs(lag1) < 0.05

    def test_reset_restores_initial_queue(self, rng):
        model = ArCorrelatedDelay(
            rng, minimum=0.0, phi=0.9, noise_std=0.0, bias=0.0, initial_queue=0.5
        )
        first = model.sample(0.0)
        model.sample(1.0)
        model.reset()
        assert model.sample(0.0) == pytest.approx(first)

    def test_invalid_phi_rejected(self, rng):
        with pytest.raises(ValueError):
            ArCorrelatedDelay(rng, minimum=0.0, phi=1.0, noise_std=0.01)


class TestTelegraphDelay:
    def test_output_is_binary(self, rng):
        model = TelegraphDelay(rng, high=0.01, dwell_low=10, dwell_high=5)
        samples = sample_many(model, 5000)
        assert set(np.unique(samples)) <= {0.0, 0.01}

    def test_duty_cycle_matches_theory(self, rng):
        model = TelegraphDelay(rng, high=1.0, dwell_low=30, dwell_high=10)
        samples = sample_many(model, 100000)
        assert samples.mean() == pytest.approx(model.duty_cycle(), abs=0.02)
        assert model.duty_cycle() == pytest.approx(0.25)

    def test_dwell_times_geometric(self, rng):
        model = TelegraphDelay(rng, high=1.0, dwell_low=20, dwell_high=20)
        samples = sample_many(model, 100000)
        # Count state switches: expected about 2 * n / (dwell_lo + dwell_hi).
        switches = int(np.sum(samples[1:] != samples[:-1]))
        assert switches == pytest.approx(100000 / 20, rel=0.15)

    def test_reset_returns_to_low(self, rng):
        model = TelegraphDelay(rng, high=1.0, dwell_low=1, dwell_high=10**9)
        model.sample(0.0)  # will flip high almost surely
        model.reset()
        assert not model.in_high_state

    def test_invalid_dwell_rejected(self, rng):
        with pytest.raises(ValueError):
            TelegraphDelay(rng, high=1.0, dwell_low=0.5, dwell_high=5)


class TestSpikeOverlay:
    def test_no_spikes_when_probability_zero(self, rng):
        base = ConstantDelay(0.1)
        model = SpikeOverlay(rng, base, 0.0, 0.05, 0.1)
        assert np.all(sample_many(model, 1000) == 0.1)

    def test_spike_amplitude_within_bounds(self, rng):
        base = ConstantDelay(0.0)
        model = SpikeOverlay(rng, base, 1.0, 0.05, 0.1, spike_run=1)
        samples = sample_many(model, 1000)
        assert np.all(samples >= 0.05) and np.all(samples <= 0.1)

    def test_spike_run_decays(self, rng):
        base = ConstantDelay(0.0)
        model = SpikeOverlay(
            rng, base, spike_probability=1.0, spike_min=0.08, spike_max=0.08,
            spike_run=3, decay=0.5,
        )
        first = model.sample(0.0)
        second = model.sample(1.0)
        third = model.sample(2.0)
        assert first == pytest.approx(0.08)
        assert second == pytest.approx(0.04)
        assert third == pytest.approx(0.02)

    def test_spike_rate_matches_probability(self, rng):
        base = ConstantDelay(0.0)
        model = SpikeOverlay(rng, base, 0.01, 0.05, 0.05, spike_run=1)
        samples = sample_many(model, 100000)
        assert np.mean(samples > 0) == pytest.approx(0.01, rel=0.2)

    def test_reset_clears_active_spike(self, rng):
        base = ConstantDelay(0.0)
        model = SpikeOverlay(rng, base, 1.0, 0.08, 0.08, spike_run=5, decay=1.0)
        model.sample(0.0)
        model.reset()
        spike_free = SpikeOverlay(rng, base, 0.0, 0.08, 0.08)
        assert spike_free.sample(1.0) == 0.0

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            SpikeOverlay(rng, ConstantDelay(0.0), 1.5, 0.0, 0.1)


class TestDiurnalModulation:
    def test_modulates_queueing_only(self):
        base = ConstantDelay(0.3)
        model = DiurnalModulation(base, floor=0.2, amplitude=0.5, period=100.0)
        # At t=25 (quarter period) sin = 1: queueing 0.1 scaled by 1.5.
        assert model.sample(25.0) == pytest.approx(0.2 + 0.15)
        # At t=75 sin = -1: queueing scaled by 0.5.
        assert model.sample(75.0) == pytest.approx(0.2 + 0.05)

    def test_floor_never_violated(self, rng):
        base = ShiftedGammaDelay(rng, minimum=0.192, shape=2.0, scale=0.005)
        model = DiurnalModulation(base, floor=0.192, amplitude=0.9, period=3600.0)
        assert np.all(sample_many(model, 5000) >= 0.192)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            DiurnalModulation(ConstantDelay(0.1), 0.0, 1.0, 60.0)


class TestCompositeDelay:
    def test_sums_components(self):
        model = CompositeDelay([ConstantDelay(0.1), ConstantDelay(0.05)])
        assert model.sample(0.0) == pytest.approx(0.15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeDelay([])


class TestTraceDelay:
    def test_replays_in_order(self):
        model = TraceDelay([0.1, 0.2, 0.3])
        assert [model.sample(0), model.sample(1), model.sample(2)] == [0.1, 0.2, 0.3]

    def test_wraps_by_default(self):
        model = TraceDelay([0.1, 0.2])
        [model.sample(i) for i in range(2)]
        assert model.sample(2) == 0.1

    def test_no_wrap_raises(self):
        model = TraceDelay([0.1], wrap=False)
        model.sample(0)
        with pytest.raises(IndexError):
            model.sample(1)

    def test_reset_restarts(self):
        model = TraceDelay([0.1, 0.2])
        model.sample(0)
        model.reset()
        assert model.sample(0) == 0.1

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            TraceDelay([0.1, -0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceDelay([])


class TestMultiScaleWanDelay:
    def make(self, rng, **overrides):
        params = dict(
            floor=0.192,
            base_queue=0.006,
            white_std=0.0028,
            telegraph_high=0.011,
            telegraph_dwell_low=35.0,
            telegraph_dwell_high=11.0,
            slow_std=0.0015,
            slow_tau=3000.0,
            spike_tiers=[SpikeTier(3e-3, 0.03, 0.08, run=3)],
        )
        params.update(overrides)
        return MultiScaleWanDelay(rng, **params)

    def test_respects_floor(self, rng):
        model = self.make(rng)
        assert np.all(sample_many(model, 20000) >= 0.192)

    def test_mean_queueing_estimate(self, rng):
        model = self.make(rng, spike_tiers=(), white_std=0.0, slow_std=0.0)
        samples = sample_many(model, 50000)
        expected = 0.192 + model.mean_queueing()
        assert samples.mean() == pytest.approx(expected, abs=0.001)

    def test_reset_restores_state(self):
        # Spikes every few datagrams and an epoch that starts soon and never
        # ends: after 100 samples a run is in flight, the slow level
        # has wandered and the path is congested; reset() must forget all
        # three.
        tiers = [SpikeTier(0.3, 0.03, 0.08, run=4), SpikeTier(0.2, 0.09, 0.13, run=3)]
        epochs = dict(telegraph_dwell_low=10.0, telegraph_dwell_high=1e9)
        used_rng = np.random.default_rng(5)
        used = self.make(used_rng, spike_tiers=tiers, **epochs)
        sample_many(used, 100)
        used.reset()
        fresh_rng = np.random.default_rng(0)
        fresh_rng.bit_generator.state = used_rng.bit_generator.state
        fresh = self.make(fresh_rng, spike_tiers=tiers, **epochs)
        assert sample_many(used, 5000).tolist() == sample_many(fresh, 5000).tolist()

    def test_no_spikes_variant(self, rng):
        model = self.make(rng, spike_tiers=())
        samples = sample_many(model, 20000)
        # Without spikes the range stays tight around the floor.
        assert samples.max() < 0.25

    def test_zero_probability_tier_draws_nothing(self):
        plain = self.make(np.random.default_rng(3), spike_tiers=())
        muted = self.make(
            np.random.default_rng(3), spike_tiers=[SpikeTier(0.0, 0.03, 0.08)]
        )
        assert sample_many(plain, 2000).tolist() == sample_many(muted, 2000).tolist()

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            self.make(rng, floor=-0.1)
        with pytest.raises(ValueError):
            self.make(rng, slow_tau=0.0)
        with pytest.raises(ValueError):
            self.make(rng, telegraph_high=-0.001)
        with pytest.raises(ValueError):
            self.make(rng, telegraph_dwell_low=0.5)

    def test_invalid_tier(self):
        with pytest.raises(ValueError):
            SpikeTier(1.5, 0.03, 0.08)
        with pytest.raises(ValueError):
            SpikeTier(0.1, 0.08, 0.03)
        with pytest.raises(ValueError):
            SpikeTier(0.1, 0.03, 0.08, run=0)
        with pytest.raises(ValueError):
            SpikeTier(0.1, 0.03, 0.08, decay=1.5)


class ComposedWanCore(DelayModel):
    """The multi-scale core as a composition of the public models and the
    generator's own ``normal``: the reference the flat sampler must equal."""

    def __init__(self, rng, *, floor, base_queue, white_std, telegraph_high,
                 telegraph_dwell_low, telegraph_dwell_high, slow_std, slow_tau):
        self._rng = rng
        self._floor = floor
        self._base = base_queue
        self._white_std = white_std
        self._telegraph = TelegraphDelay(
            rng, telegraph_high, telegraph_dwell_low, telegraph_dwell_high
        )
        self._slow_phi = math.exp(-1.0 / slow_tau)
        self._slow_noise = slow_std * math.sqrt(1.0 - self._slow_phi**2)
        self._slow = 0.0

    def sample(self, now):
        white = self._rng.normal(0.0, self._white_std) if self._white_std else 0.0
        self._slow = self._slow_phi * self._slow + (
            self._rng.normal(0.0, self._slow_noise) if self._slow_noise else 0.0
        )
        queue = self._base + white + self._telegraph.sample(now) + self._slow
        return self._floor + max(0.0, queue)


def overlay(rng, tier):
    return SpikeOverlay(
        rng, ConstantDelay(0.0), tier.probability, tier.minimum, tier.maximum,
        spike_run=tier.run, decay=tier.decay,
    )


spike_tiers = st.builds(
    lambda p, low, width, run, decay: SpikeTier(p, low, low + width, run, decay),
    st.sampled_from([0.0, 3e-5, 3e-3, 0.05, 0.5, 1.0]),
    st.floats(0.0, 0.1),
    st.floats(0.0, 0.1),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.5, 0.7, 1.0]),
)


class TestFlatSamplerEqualsComposition:
    """Same delays *and* same generator consumption: the link keeps
    drawing from the stream after any horizon a test looks at."""

    DRAWS = 20000

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        white_std=st.sampled_from([0.0, 0.0028]),
        slow_std=st.sampled_from([0.0, 0.0015]),
        base_queue=st.sampled_from([0.0, 0.002, 0.006]),
        dwell_low=st.floats(1.0, 50.0),
        dwell_high=st.floats(1.0, 20.0),
        tiers=st.lists(spike_tiers, max_size=2),
    )
    def test_sample_for_sample_and_state_for_state(
        self, seed, white_std, slow_std, base_queue, dwell_low, dwell_high, tiers
    ):
        core = dict(
            floor=0.192,
            base_queue=base_queue,
            white_std=white_std,
            telegraph_high=0.011,
            telegraph_dwell_low=dwell_low,
            telegraph_dwell_high=dwell_high,
            slow_std=slow_std,
            slow_tau=3000.0,
        )
        flat_rng = np.random.default_rng(seed)
        flat = MultiScaleWanDelay(flat_rng, **core, spike_tiers=tiers)
        composed_rng = np.random.default_rng(seed)
        composed = CompositeDelay(
            [ComposedWanCore(composed_rng, **core)]
            + [overlay(composed_rng, tier) for tier in tiers]
        )
        # The shape the profile had: first tier inside, second wrapped around.
        wrapped_rng = np.random.default_rng(seed)
        wrapped = CompositeDelay(
            [MultiScaleWanDelay(wrapped_rng, **core, spike_tiers=tiers[:1])]
            + [overlay(wrapped_rng, tier) for tier in tiers[1:]]
        )
        expected = sample_many(composed, self.DRAWS).tolist()
        assert sample_many(flat, self.DRAWS).tolist() == expected
        assert sample_many(wrapped, self.DRAWS).tolist() == expected
        state = composed_rng.bit_generator.state
        assert flat_rng.bit_generator.state == state
        assert wrapped_rng.bit_generator.state == state
