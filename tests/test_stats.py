"""Tests for the statistics helpers."""

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
        """The two quantiles come from ``scipy.special``; ``scipy.stats``
        would add ~0.6 s and ~46 MiB to every process that imports repro."""
        import os
        import subprocess
        import sys

        import repro

        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro, repro.cli, repro.service, repro.kv.sim, "
            "repro.experiments, repro.nekostat.stats\n"
            "sys.exit('scipy.stats' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=source_root)
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0

    def test_scipy_loads_on_the_first_quantile(self):
        """Importing the entry points loads no ``scipy`` module (its
        ``special`` import is ~0.36 s of every process's set-up); the first
        quantile loads it, and the values are ``scipy.special``'s exactly."""
        import json
        import os
        import subprocess
        import sys

        import repro

        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import json, sys\n"
            "import repro.cli, repro.experiments.runner, repro.kv.sim, "
            "repro.service.daemon\n"
            "from repro.nekostat.stats import _t_critical, normal_quantile\n"
            "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
            "print(json.dumps([loaded, _t_critical(0.9, 10), normal_quantile(0.975)]))"
        )
        env = dict(os.environ, PYTHONPATH=source_root)
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        loaded, t_critical, quantile = json.loads(completed.stdout)
        assert loaded == []
        special = pytest.importorskip("scipy.special")
        assert t_critical == float(special.stdtrit(10, 0.95))
        assert quantile == float(special.ndtri(0.975))
