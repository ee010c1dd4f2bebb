"""Tests for the statistics helpers."""

import math

import numpy as np
import pytest

from repro.nekostat.stats import (
    SummaryStats,
    Welford,
    mean_squared_error,
    normal_quantile,
    summarize,
)


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
            "import sys, repro, repro.cli, repro.service, repro.kv.live, "
            "repro.experiments, repro.nekostat.stats\n"
            "sys.exit('scipy.stats' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=source_root)
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
