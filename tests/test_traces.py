"""Tests for delay trace synthesis, persistence and statistics."""

import numpy as np
import pytest

from repro.net.traces import DelayTrace


class TestDelayTrace:
    def test_length_and_indexing(self):
        trace = DelayTrace([0.1, 0.2, 0.3])
        assert len(trace) == 3
        assert trace[1] == 0.2
        assert list(trace) == [0.1, 0.2, 0.3]

    def test_immutable(self):
        trace = DelayTrace([0.1, 0.2])
        with pytest.raises(ValueError):
            trace.delays[0] = 9.9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DelayTrace([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DelayTrace([0.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DelayTrace([0.1, float("nan")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            DelayTrace(np.zeros((2, 2)))

    def test_summary_statistics(self):
        trace = DelayTrace([0.1, 0.2, 0.3, 0.4])
        summary = trace.summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.25)
        assert summary.minimum == 0.1
        assert summary.maximum == 0.4
        assert summary.median == pytest.approx(0.25)
        assert summary.std == pytest.approx(np.std([0.1, 0.2, 0.3, 0.4], ddof=1))

    def test_summary_milliseconds(self):
        summary = DelayTrace([0.2, 0.2]).summary().as_milliseconds()
        assert summary.mean == pytest.approx(200.0)

    def test_single_sample_std_zero(self):
        assert DelayTrace([0.5]).summary().std == 0.0

    def test_save_and_load_roundtrip(self, tmp_path):
        trace = DelayTrace([0.123456789, 0.2])
        path = tmp_path / "trace.txt"
        trace.save(path, header="test trace\nsecond line")
        loaded = DelayTrace.load(path)
        assert loaded.delays == pytest.approx(trace.delays)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n\n0.1\n0.2\n")
        assert list(DelayTrace.load(path)) == [0.1, 0.2]

    def test_load_reports_bad_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.1\nnot-a-number\n")
        with pytest.raises(ValueError, match="2"):
            DelayTrace.load(path)

    def test_autocorrelation_of_constant_is_safe(self):
        correlations = DelayTrace([0.2] * 10).autocorrelation(3)
        assert correlations[0] == 1.0
        assert np.all(correlations[1:] == 0.0)

    def test_autocorrelation_lag0_is_one(self):
        rng = np.random.default_rng(0)
        trace = DelayTrace(rng.uniform(0.1, 0.2, 500))
        assert trace.autocorrelation(5)[0] == pytest.approx(1.0)

    def test_autocorrelation_detects_correlation(self):
        rng = np.random.default_rng(0)
        level = np.repeat(rng.uniform(0.1, 0.2, 50), 20)  # 20-sample plateaus
        trace = DelayTrace(level)
        assert trace.autocorrelation(1)[1] > 0.8
