"""Tests for the statistics helpers."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nekostat.stats import (
    SummaryStats,
    Welford,
    _t_critical,
    mean_squared_error,
    normal_quantile,
    summarize,
)


def numpy_summarize(values, confidence=0.95):
    """The numpy body ``summarize`` had before its short-sample path: the
    reference every field must equal bit for bit."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    with np.errstate(all="ignore"):
        mean = float(np.mean(arr))
        if arr.size > 1:
            std = float(np.std(arr, ddof=1))
            half = _t_critical(confidence, arr.size - 1) * std / math.sqrt(arr.size)
        else:
            std = 0.0
            half = float("inf")
        return SummaryStats(
            count=int(arr.size),
            mean=mean,
            std=std,
            minimum=float(np.min(arr)),
            maximum=float(np.max(arr)),
            ci_half_width=half,
            confidence=confidence,
        )


def bits(stats):
    """Every field as bytes: ``==`` would equate 0.0 with -0.0 and never
    a NaN with itself."""
    floats = ("mean", "std", "minimum", "maximum", "ci_half_width", "confidence")
    return (
        type(stats.count),
        stats.count,
        *(struct.pack("<d", getattr(stats, name)) for name in floats),
    )


#: The block edges of numpy's pairwise sum (8 and 128) and either side.
EDGE_SIZES = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 200])
ELEMENT = st.one_of(
    st.floats(min_value=0.19, max_value=0.34),  # one-way WAN delays
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]),
    st.integers(min_value=-(2**62), max_value=2**62),
)


@st.composite
def samples(draw):
    size = draw(st.one_of(EDGE_SIZES, st.integers(min_value=1, max_value=140)))
    values = draw(st.lists(ELEMENT, min_size=size, max_size=size))
    form = draw(st.sampled_from(["list", "tuple", "array"]))
    if form == "tuple":
        return tuple(values)
    if form == "array":
        return np.asarray(values, dtype=float)
    return values


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(10.0, 2.0, 100)
        stats = summarize(sample)
        assert stats.ci_low < 10.0 < stats.ci_high

    def test_ci_width_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(0, 1, 20))
        large = summarize(rng.normal(0, 1, 2000))
        assert large.ci_half_width < small.ci_half_width

    def test_t_interval_wider_than_normal_for_small_n(self):
        # For n=5 the t critical value (2.776) clearly exceeds z (1.96).
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        sem = stats.std / math.sqrt(5)
        assert stats.ci_half_width > 1.96 * sem

    def test_single_sample_infinite_ci(self):
        stats = summarize([5.0])
        assert stats.std == 0.0
        assert math.isinf(stats.ci_half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], confidence=1.5)

    def test_scaled(self):
        stats = summarize([0.1, 0.2, 0.3]).scaled(1e3)
        assert stats.mean == pytest.approx(200.0)
        assert stats.minimum == pytest.approx(100.0)
        assert stats.confidence == 0.95

    @settings(max_examples=400, deadline=None)
    @given(values=samples(), confidence=st.sampled_from([0.95, 0.9, 0.99]))
    def test_equals_the_numpy_body_bit_for_bit(self, values, confidence):
        with np.errstate(all="ignore"):  # long samples overflow in numpy
            actual = summarize(values, confidence)
        assert bits(actual) == bits(numpy_summarize(values, confidence))

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 300])
    @pytest.mark.parametrize(
        "pattern",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0],
            [0.0, 1.0, -0.0],
            [math.inf, 0.5],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [1e308, 1e308, -1e308],
            [0.215, 0.2150000000000001, 0.7],
        ],
    )
    def test_signed_zeros_and_non_finite_values(self, size, pattern):
        values = (pattern * size)[:size]
        for form in (values, tuple(values), np.asarray(values)):
            with np.errstate(all="ignore"):
                actual = summarize(form)
            assert bits(actual) == bits(numpy_summarize(form))

    def test_ints_and_what_float_refuses_go_where_numpy_takes_them(self):
        assert bits(summarize([1, 2, 3])) == bits(numpy_summarize([1, 2, 3]))
        assert bits(summarize([True, 2.5])) == bits(numpy_summarize([True, 2.5]))
        # float(None) raises; numpy reads None as NaN.
        assert bits(summarize([None, 1.0])) == bits(numpy_summarize([None, 1.0]))
        with pytest.raises(ValueError, match="empty"):
            summarize(())
        with pytest.raises(ValueError, match="empty"):
            summarize([], confidence=2.0)
        with pytest.raises(ValueError, match="confidence"):
            summarize([1.0], confidence=0.0)


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(5.0, 3.0, 1000)
        acc = Welford()
        for value in sample:
            acc.add(value)
        assert acc.mean == pytest.approx(np.mean(sample))
        assert acc.variance == pytest.approx(np.var(sample, ddof=1))
        assert acc.minimum == sample.min()
        assert acc.maximum == sample.max()

    def test_empty_properties(self):
        acc = Welford()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.variance == 0.0
        with pytest.raises(ValueError):
            acc.minimum

    def test_single_value(self):
        acc = Welford()
        acc.add(7.0)
        assert acc.mean == 7.0
        assert acc.variance == 0.0

    def test_summary_matches_summarize(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        acc = Welford()
        for value in values:
            acc.add(value)
        direct = summarize(values)
        online = acc.summary()
        assert online.mean == pytest.approx(direct.mean)
        assert online.std == pytest.approx(direct.std)
        assert online.ci_half_width == pytest.approx(direct.ci_half_width)

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            Welford().summary()

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.5])
    def test_summary_invalid_confidence_rejected_like_summarize(
        self, count, confidence
    ):
        acc = Welford()
        for value in range(count):
            acc.add(value)
        with pytest.raises(ValueError, match="confidence must be in"):
            acc.summary(confidence=confidence)
        with pytest.raises(ValueError, match="confidence must be in"):
            summarize(list(range(count)), confidence=confidence)

    def test_numerical_stability_large_offset(self):
        # Welford must not lose precision with a huge common offset.
        acc = Welford()
        for value in [1e9 + 1, 1e9 + 2, 1e9 + 3]:
            acc.add(value)
        assert acc.variance == pytest.approx(1.0)


class TestMeanSquaredError:
    def test_zero_for_perfect_prediction(self):
        assert mean_squared_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert mean_squared_error([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-8)

    def test_known_quantiles(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.9995) == pytest.approx(3.2905, abs=1e-3)

    def test_symmetry(self):
        assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75), abs=1e-8)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_importing_repro_does_not_import_scipy_stats(self):
        """No ``scipy`` module loads with the entry points, nor when a
        process computes an interval, a quantile or a daemon's first
        scrape: the quantiles are the package's own (``scipy.special``
        alone was ~25 MiB and ~0.3 s of every process that asked)."""
        loaded, scrape_quantiles = json.loads(_probe(
            "import asyncio, json, sys\n"
            "import repro, repro.cli, repro.service, repro.service.daemon, "
            "repro.kv.sim, repro.experiments, repro.experiments.runner\n"
            "from repro.nekostat.stats import Welford, _t_critical, normal_quantile, summarize\n"
            "from repro.service.daemon import MonitorDaemon\n"
            "def scipy():\n"
            "    return sorted(name for name in sys.modules if name.startswith('scipy'))\n"
            "def asked():\n"
            "    info = _t_critical.cache_info()\n"
            "    return info.hits + info.misses\n"
            "loaded = [scipy()]\n"
            "async def scrape():\n"
            "    daemon = MonitorDaemon(port=0, http_port=None, eta=0.5)\n"
            "    await daemon.start()\n"
            "    try:\n"
            "        monitor = daemon.add_endpoint('a')\n"
            "        daemon.add_endpoint('b')\n"
            "        await asyncio.sleep(0.01)\n"
            "        start = monitor.registered_at\n"
            "        tick = (daemon.scheduler.now - start) / 8\n"
            "        for accumulator in monitor.accumulators.values():\n"
            "            for k in range(1, 7):  # three mistakes: T_M and T_MR intervals\n"
            "                accumulator.observe_transition(k % 2 == 1, start + k * tick)\n"
            "        before = asked()\n"
            "        daemon.metrics_text()\n"
            "        return asked() - before\n"
            "    finally:\n"
            "        await daemon.stop()\n"
            "scrape_quantiles = asyncio.run(scrape())\n"
            "loaded.append(scipy())\n"
            "summarize([0.1, 0.4, 0.2])\n"
            "welford = Welford()\n"
            "for value in (1.0, 2.0, 4.0, 8.0):\n"
            "    welford.add(value)\n"
            "welford.summary(0.99)\n"
            "normal_quantile(0.975)\n"
            "loaded.append(scipy())\n"
            "print(json.dumps([loaded, scrape_quantiles]))"
        ))
        assert scrape_quantiles > 0  # the scrape did compute intervals
        assert loaded == [[], [], []]


def _probe(source, *, block_scipy=False):
    """Run ``source`` in a fresh interpreter on this checkout; its stdout.
    ``block_scipy`` makes every ``import scipy`` there fail."""
    import os
    import subprocess
    import sys

    import repro

    if block_scipy:
        source = "import sys\nsys.modules['scipy'] = None\n" + source
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True,
        check=True,
    ).stdout


def ulps(value, reference):
    """``|value - reference|`` in units in the last place of ``reference``."""
    return abs(value - reference) / math.ulp(reference)


#: Two-sided Student-t critical values at confidences 0.9, 0.95 and 0.99
#: per degrees of freedom: the quantile at ``1/2 + confidence/2`` of the
#: float confidence taken exactly, to the nearest double.  Made with
#: mpmath 1.3 (not a test dependency):
#:
#:     mp.mp.dps = 50
#:     alpha = (1 - mp.mpf(confidence)) / 2
#:     t = mp.findroot(lambda t: mp.betainc(mp.mpf(dof) / 2, 0.5, 0, dof / (dof + t * t),
#:                                          regularized=True) / 2 - alpha,
#:                     (1, 70), solver="illinois")
#:     float(t)
T_REFERENCE = {
    1: (6.313751514675045, 12.706204736174694, 63.656741162871526),
    2: (2.919985580353726, 4.302652729749462, 9.92484320091829),
    3: (2.353363434801824, 3.1824463052837086, 5.840909309733355),
    4: (2.1318467863266504, 2.7764451051977934, 4.604094871349992),
    5: (2.0150483733330242, 2.5705818356363146, 4.032142983555227),
    6: (1.9431802805153033, 2.4469118511449692, 3.707428021324779),
    7: (1.8945786050900075, 2.364624251592785, 3.4994832973504932),
    8: (1.8595480375308986, 2.3060041352041662, 3.355387331333395),
    9: (1.8331129326562372, 2.262157162798205, 3.249835541592126),
    10: (1.8124611228116765, 2.2281388519862744, 3.169272672616951),
    11: (1.7958848187040442, 2.2009851600916392, 3.1058065155392804),
    12: (1.7822875556493203, 2.1788128296672284, 3.0545395893929017),
    13: (1.7709333959868732, 2.160368656462792, 3.012275838716578),
    14: (1.7613101357748921, 2.1447866879178035, 2.9768427343708344),
    15: (1.7530503556925736, 2.131449545559775, 2.9467128834752385),
    16: (1.74588367627625, 2.119905299221254, 2.9207816224250998),
    17: (1.7396067260750732, 2.1098155778333165, 2.8982305196774183),
    18: (1.7340636066175388, 2.1009220402410382, 2.8784404727386077),
    19: (1.7291328115213696, 2.093024054408309, 2.860934606464979),
    20: (1.7247182429207875, 2.0859634472658644, 2.845339709786108),
    21: (1.7207429028118786, 2.07961384472768, 2.8313595580230495),
    22: (1.717144374380243, 2.073873067904026, 2.818756060600143),
    23: (1.7138715277470482, 2.068657610419048, 2.8073356837699985),
    24: (1.7108820799094286, 2.0638985616280254, 2.796939504774456),
    25: (1.7081407612518993, 2.0595385527532972, 2.78743581367697),
    26: (1.7056179197592733, 2.0555294386428726, 2.778714533329683),
    27: (1.7032884457221271, 2.051830516480285, 2.7706829571222116),
    28: (1.7011309342659318, 2.0484071417952445, 2.7632624554614442),
    29: (1.699127026533498, 2.045229642132704, 2.7563859036706053),
    30: (1.697260886593958, 2.0422724563012378, 2.749995653567225),
    50: (1.6759050251630976, 2.0085591121007607, 2.677793270940844),
    100: (1.6602343260853396, 1.9839715185235518, 2.6258905214380177),
    199: (1.6525467461665635, 1.9719565442517535, 2.6007602160585157),
    200: (1.6525081009108777, 1.971896223633909, 2.6006344361915574),
    249: (1.650996151677465, 1.9695368676403506, 2.595717758273491),
    250: (1.6509714898128582, 1.9694983934211532, 2.59563763046618),
    251: (1.6509470251874285, 1.9694602272245434, 2.5955581457078143),
    1000: (1.6463788172854648, 1.962339080826408, 2.5807546980659506),
    10000: (1.6450060180692432, 1.960201239890626, 2.5763210466685287),
    67105: (1.6448763345039903, 1.9599993367983326, 2.5759025719977062),
    1000000: (1.6448551507220406, 1.9599663568141066, 2.575834220105334),
}

#: ``Phi^{-1}(p)`` to the nearest double: ``float(mp.sqrt(2) *
#: mp.erfinv(2 * mp.mpf(p) - 1))`` at ``mp.mp.dps = 50``.
NORMAL_REFERENCE = {
    1e-10: -6.361340902404057,
    0.001: -3.0902323061678136,
    0.01: -2.326347874040841,
    0.025: -1.9599639845400543,
    0.05: -1.6448536269514726,
    0.1: -1.2815515655446004,
    0.3: -0.5244005127080408,
    0.6: 0.2533471031357997,
    0.75: 0.6744897501960817,
    0.9: 1.2815515655446006,
    0.95: 1.6448536269514722,
    0.975: 1.9599639845400538,
    0.99: 2.3263478740408408,
    0.999: 3.090232306167813,
    0.99999999: 5.612001243305505,
}

#: The bound on a t critical value's distance from the table (the worst
#: measured over dof 1..259 and every 7th to 1 200 is ~27 ulps); the
#: normal quantile's is tighter (measured ~2).
T_ULPS = 64
NORMAL_ULPS = 4
CONFIDENCES = (0.9, 0.95, 0.99)


class TestQuantileReference:
    @pytest.mark.parametrize("dof", sorted(T_REFERENCE))
    def test_t_critical_within_bound_of_the_table(self, dof):
        for confidence, reference in zip(CONFIDENCES, T_REFERENCE[dof]):
            assert ulps(_t_critical(confidence, dof), reference) <= T_ULPS, (confidence, dof)

    def test_normal_quantile_within_bound_of_the_table(self):
        for p, reference in NORMAL_REFERENCE.items():
            assert ulps(normal_quantile(p), reference) <= NORMAL_ULPS, p

    def test_the_interval_is_the_same_without_scipy(self):
        """With scipy unimportable the critical value is still Student's,
        not a normal fallback's 1.96."""
        t_critical, half_width = json.loads(_probe(
            "import json\n"
            "from repro.nekostat.stats import _t_critical, summarize\n"
            "print(json.dumps([_t_critical(0.95, 4), "
            "summarize([1.0, 2.0, 3.0, 4.0, 5.0]).ci_half_width]))",
            block_scipy=True,
        ))
        reference = T_REFERENCE[4][1]
        assert ulps(t_critical, reference) <= T_ULPS
        # std sqrt(2.5) over sqrt(5): the half width is t / sqrt(2).
        assert ulps(half_width, reference / math.sqrt(2.0)) <= T_ULPS + 2

    def test_agrees_with_scipy_special(self):
        special = pytest.importorskip("scipy.special")
        for dof in T_REFERENCE:
            for confidence in CONFIDENCES:
                expected = float(special.stdtrit(dof, 0.5 + confidence / 2.0))
                assert ulps(_t_critical(confidence, dof), expected) <= T_ULPS, (confidence, dof)
        for p in NORMAL_REFERENCE:
            assert ulps(normal_quantile(p), float(special.ndtri(p))) <= T_ULPS, p
