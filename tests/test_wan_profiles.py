"""Tests for the calibrated network profiles."""

import numpy as np
import pytest

from repro.net.traces import DelayTrace
from repro.net.wan import (
    PROFILES,
    get_profile,
    italy_japan_profile,
    lan_profile,
    mobile_profile,
)
from repro.sim.random import RandomStreams


class TestRegistry:
    def test_known_profiles(self):
        assert set(PROFILES) == {"italy-japan", "lan", "mobile"}

    def test_get_profile(self):
        assert get_profile("lan").name == "lan"

    def test_unknown_profile_lists_names(self):
        with pytest.raises(KeyError, match="italy-japan"):
            get_profile("mars")


class TestItalyJapanProfile:
    def sample(self, count=100000, seed=0):
        profile = italy_japan_profile()
        streams = RandomStreams(seed)
        model = profile.build_delay_model(streams)
        return np.array([model.sample(float(i)) for i in range(count)])

    def test_table4_minimum(self):
        delays = self.sample(20000)
        assert delays.min() >= 0.192
        assert delays.min() < 0.195  # the floor is actually reached

    def test_table4_mean(self):
        delays = self.sample(50000)
        assert 0.195 < delays.mean() < 0.210  # paper: ~200 ms

    def test_table4_std(self):
        delays = self.sample(50000)
        assert 0.004 < delays.std() < 0.010  # paper: 7.6 ms

    def test_table4_maximum_spikes(self):
        delays = self.sample(100000)
        # Rare spikes produce a maximum in the paper's 300+ ms range.
        assert delays.max() > 0.260

    def test_delays_autocorrelated(self):
        trace = DelayTrace(self.sample(20000))
        assert trace.autocorrelation(1)[1] > 0.2

    def test_loss_rate_below_one_percent(self):
        profile = italy_japan_profile()
        model = profile.build_loss_model(RandomStreams(1))
        rate = sum(model.drops(float(i)) for i in range(100000)) / 100000
        assert 0.0 < rate < 0.01

    def test_lossless_variant(self):
        profile = italy_japan_profile(loss=False)
        model = profile.build_loss_model(RandomStreams(1))
        assert not any(model.drops(float(i)) for i in range(1000))

    def test_spikeless_variant_light_tail(self):
        profile = italy_japan_profile(spikes=False)
        model = profile.build_delay_model(RandomStreams(1))
        delays = np.array([model.sample(float(i)) for i in range(50000)])
        assert delays.max() < 0.25

    def test_reproducible_across_instances(self):
        a = self.sample(100, seed=5)
        b = self.sample(100, seed=5)
        assert np.array_equal(a, b)

    def test_directions_are_independent(self):
        profile = italy_japan_profile()
        streams = RandomStreams(0)
        forward = profile.build_delay_model(streams, "fwd")
        reverse = profile.build_delay_model(streams, "rev")
        fwd = [forward.sample(float(i)) for i in range(100)]
        rev = [reverse.sample(float(i)) for i in range(100)]
        assert fwd != rev

    def test_nominal_metadata(self):
        nominal = italy_japan_profile().nominal
        assert nominal["hops"] == 18
        assert nominal["min_ms"] == 192.0


#: The ``italy-japan`` streams of seed 0 (default direction), as the
#: parent of the flat sampler drew them: the goldens of ``bench/`` rest on
#: these draws, and a literal fails on every CI interpreter, not only
#: where the benchmark runs.
PINNED_FIRST_DELAYS = [
    0.1967350723585801, 0.1960971547320828, 0.1981683044126205, 0.2002506733259446,
    0.1963647350029595, 0.1946932108907117, 0.19590467042001222, 0.19379425534726455,
    0.19597479473314047, 0.19736490655207484, 0.19596414804671927, 0.1984349197192121,
    0.19945293120131144, 0.20019323925345017, 0.19519873791912296, 0.20862125367084997,
    0.2088554019423597, 0.20538007690950155, 0.21236548409648537, 0.21213246867700708,
    0.21158919171989637, 0.21306780850340845, 0.20917006419283046, 0.20692717859648296,
    0.20895738307542805, 0.21264839471059413, 0.20771454816274215, 0.2057865153532096,
    0.20631072221415966, 0.20963780936989812, 0.2062979661432595, 0.20746742236214405,
    0.21030110998329293, 0.19558603373815173, 0.19645414657333157, 0.19417697212356852,
    0.20025233884065502, 0.19493212039889515, 0.1962140849806047, 0.20146991333926517,
    0.19934055054458863, 0.20035474991140073, 0.20242454323864853, 0.20722057593063659,
    0.20849483542189134, 0.21200059315190412, 0.21139619882604482, 0.2003704688551622,
    0.19529709005697674, 0.20015770954717316, 0.19889727739882987, 0.19749130784971747,
    0.19752484712442783, 0.2027552188490723, 0.19854935567290521, 0.19489366458786514,
    0.19930617379749965, 0.19567857833843733, 0.20345416499711158, 0.19329856429575407,
    0.20908865784328975, 0.21534845176060796, 0.21211066612002766, 0.20909228738520166,
]
#: After ~60 small spikes, so tier consumption is pinned as well.
PINNED_DELAY_20000 = 0.1980188298365074
#: Sends among the first 4 000 that the loss model drops.
PINNED_DROPS = [
    146, 785, 1169, 1170, 1171, 1973, 2327, 2329, 2330, 2331, 2373, 2725,
    3145, 3334, 3335,
]


class TestItalyJapanStreamsArePinned:
    def test_delay_stream(self):
        model = italy_japan_profile().build_delay_model(RandomStreams(0))
        delays = [model.sample(float(i)) for i in range(20001)]
        assert delays[:64] == PINNED_FIRST_DELAYS
        assert delays[20000] == PINNED_DELAY_20000

    def test_loss_stream(self):
        model = italy_japan_profile().build_loss_model(RandomStreams(0))
        drops = [i for i in range(4000) if model.drops(float(i))]
        assert drops == PINNED_DROPS


class TestOtherProfiles:
    def test_lan_is_fast(self):
        model = lan_profile().build_delay_model(RandomStreams(0))
        delays = np.array([model.sample(float(i)) for i in range(10000)])
        assert delays.mean() < 0.002

    def test_mobile_is_slow_and_variable(self):
        model = mobile_profile().build_delay_model(RandomStreams(0))
        delays = np.array([model.sample(float(i)) for i in range(20000)])
        assert delays.min() >= 0.06
        assert delays.std() > 0.01

    def test_mobile_lossier_than_wan(self):
        mobile_loss = mobile_profile().build_loss_model(RandomStreams(0))
        wan_loss = italy_japan_profile().build_loss_model(RandomStreams(0))
        mobile_rate = sum(mobile_loss.drops(float(i)) for i in range(50000)) / 50000
        wan_rate = sum(wan_loss.drops(float(i)) for i in range(50000)) / 50000
        assert mobile_rate > wan_rate
