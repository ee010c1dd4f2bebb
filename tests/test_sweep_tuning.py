"""Tests for parameter sweeps and margin tuning."""

import math
from dataclasses import replace

import pytest

from repro.experiments.sweep import (
    SweepPoint,
    format_sweep,
    sweep_eta,
    sweep_margin_level,
)
from repro.fd.detector import PushFailureDetector
from repro.fd.tuning import tune_margin_level
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


class TestSweepMargin:
    @pytest.fixture(scope="class")
    def ci_points(self):
        return sweep_margin_level(FAST, [0.5, 1.0, 2.0, 4.0], family="CI")

    def test_mistakes_fall_with_gamma(self, ci_points):
        mistakes = [p.mistakes for p in ci_points]
        assert mistakes == sorted(mistakes, reverse=True)

    def test_detection_grows_with_gamma(self, ci_points):
        detection = [p.detection_time for p in ci_points]
        assert detection[-1] > detection[0]

    def test_jac_family(self):
        points = sweep_margin_level(FAST, [1.0, 4.0], family="JAC")
        assert points[0].mistakes >= points[1].mistakes

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_margin_level(FAST, [1.0], family="XX")
        with pytest.raises(ValueError):
            sweep_margin_level(FAST, [])
        with pytest.raises(ValueError):
            sweep_margin_level(FAST, [-1.0])

    @pytest.mark.parametrize("engine", ["simulator", "replay"])
    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, level, engine):
        with pytest.raises(ValueError, match="finite"):
            sweep_margin_level(FAST, [1.0, level], engine=engine)

    def test_format_sweep(self, ci_points):
        text = format_sweep(ci_points, "gamma")
        assert "gamma" in text and "P_A" in text
        assert str(len(ci_points) + 2) != ""  # header + rule + rows
        assert len(text.splitlines()) == len(ci_points) + 2


class TestTuning:
    def test_meets_recurrence_target(self):
        result = tune_margin_level(
            FAST, target_t_mr=60.0, family="CI", refine_iterations=2
        )
        assert result.achieved_t_mr >= 60.0
        assert result.level <= 64.0
        assert result.steps  # the search log is populated

    def test_refinement_brackets_the_level(self):
        result = tune_margin_level(
            FAST, target_t_mr=60.0, family="CI", refine_iterations=3
        )
        # Some evaluated level below the chosen one must have failed
        # (otherwise the initial level already met the target).
        failing = [s for s in result.steps if not s.met]
        if failing:
            assert max(s.level for s in failing) <= result.level

    def test_trivial_target_met_at_initial_level(self):
        result = tune_margin_level(
            FAST, target_t_mr=0.001, family="CI", refine_iterations=0
        )
        assert result.level == 1.0
        assert len(result.steps) == 1

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError, match="unreachable"):
            tune_margin_level(
                FAST, target_t_mr=1e9, family="CI",
                initial_level=1.0, max_level=4.0,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            tune_margin_level(FAST, 60.0, family="XX")
        with pytest.raises(ValueError):
            tune_margin_level(FAST, 0.0)
        with pytest.raises(ValueError):
            tune_margin_level(FAST, 60.0, initial_level=8.0, max_level=4.0)

    @pytest.mark.parametrize(
        "initial_level, max_level", [(math.nan, 64.0), (1.0, math.inf)]
    )
    def test_non_finite_levels_rejected(self, initial_level, max_level):
        # A target every detector meets: only the validation can refuse.
        with pytest.raises(ValueError, match="finite"):
            tune_margin_level(
                FAST, 0.001, initial_level=initial_level, max_level=max_level
            )

    def test_detector_armed_with_the_campaign_initial_timeout(self, monkeypatch):
        armed = []
        original = PushFailureDetector.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            armed.append(self._initial_timeout)

        monkeypatch.setattr(PushFailureDetector, "__init__", spy)
        config = replace(FAST, extras={"initial_timeout": 3.5})
        tune_margin_level(config, 0.001, refine_iterations=0)
        assert armed == [3.5]
