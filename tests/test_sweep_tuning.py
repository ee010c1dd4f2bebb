"""Tests for the heartbeat-period sweep."""

import math
from dataclasses import replace

import pytest

from repro.experiments.sweep import (
    format_sweep,
    sweep_eta,
)
from repro.fd.detector import PushFailureDetector
from repro.neko.config import ExperimentConfig

FAST = ExperimentConfig(num_cycles=1500, mttc=80.0, ttr=15.0, seed=77)


class TestSweepEta:
    @pytest.fixture(scope="class")
    def points(self):
        return sweep_eta(FAST, [0.5, 1.0, 2.0, 4.0])

    def test_message_cost_is_inverse_eta(self, points):
        assert [p.messages_per_second for p in points] == pytest.approx(
            [2.0, 1.0, 0.5, 0.25]
        )

    def test_detection_time_grows_with_eta(self, points):
        detection = [p.detection_time for p in points]
        assert detection == sorted(detection)
        # T_D ~ eta/2 + delta: quadrupling eta roughly quadruples the
        # dominant term.
        assert detection[-1] > 2.5 * detection[1]

    def test_mistake_rate_falls_with_eta(self, points):
        # Fewer heartbeats per second = fewer opportunities per second to
        # time out wrongly.
        assert points[0].mistake_rate >= points[-1].mistake_rate

    def test_same_virtual_duration(self, points):
        # Every point saw a comparable crash schedule (fixed duration).
        assert all(not math.isnan(p.detection_time) for p in points)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_eta(FAST, [])
        with pytest.raises(ValueError):
            sweep_eta(FAST, [0.0])

    def test_format_sweep(self, points):
        text = format_sweep(points, "eta")
        assert "eta" in text and "P_A" in text
        # header + rule + one row per point
        assert len(text.splitlines()) == len(points) + 2

    def test_detector_armed_with_the_campaign_initial_timeout(self, monkeypatch):
        armed = []
        original = PushFailureDetector.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            armed.append(self.initial_timeout)

        monkeypatch.setattr(PushFailureDetector, "__init__", spy)
        config = replace(FAST, extras={"initial_timeout": 3.5})
        sweep_eta(config, [1.0])
        assert armed == [3.5]
