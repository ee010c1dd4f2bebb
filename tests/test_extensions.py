"""Tests for the extension modules: store, route flapping, charts."""

import pytest

from repro.experiments.chart import render_figure
from repro.experiments.runner import AggregatedQos, aggregate_runs, run_repetitions
from repro.experiments.store import (
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    load_campaign_config,
    save_campaign,
)
from repro.neko.config import ExperimentConfig
from repro.net.topology import RouteFlappingDelay


class TestStore:
    CONFIG = ExperimentConfig(num_cycles=400, mttc=60.0, ttr=12.0, seed=3)
    DETECTORS = ["Last+JAC_med", "Mean+CI_low"]

    def pooled(self):
        return aggregate_runs(run_repetitions(self.CONFIG, 2, self.DETECTORS))

    def test_roundtrip_through_dict(self):
        pooled = self.pooled()
        document = campaign_to_dict(pooled, self.CONFIG, runs=2)
        restored = campaign_from_dict(document)
        for detector_id in self.DETECTORS:
            assert restored[detector_id].td_samples == pooled[detector_id].td_samples
            assert restored[detector_id].up_time == pooled[detector_id].up_time
            assert restored[detector_id].p_a == pooled[detector_id].p_a

    def test_roundtrip_through_file(self, tmp_path):
        pooled = self.pooled()
        path = tmp_path / "campaign.json"
        save_campaign(path, pooled, self.CONFIG, runs=2)
        restored = load_campaign(path)
        assert set(restored) == set(self.DETECTORS)
        config = load_campaign_config(path)
        assert config.num_cycles == 400
        assert config.seed == 3

    def test_config_extras_survive_roundtrip(self, tmp_path):
        from dataclasses import replace

        config = replace(self.CONFIG, extras={"initial_timeout": 7.5})
        path = tmp_path / "campaign.json"
        save_campaign(path, {"x": AggregatedQos("x")}, config, runs=1)
        assert load_campaign_config(path).extras == {"initial_timeout": 7.5}

    def test_summaries_survive_roundtrip(self, tmp_path):
        pooled = self.pooled()
        path = tmp_path / "campaign.json"
        save_campaign(path, pooled, self.CONFIG, runs=2)
        restored = load_campaign(path)
        for detector_id in self.DETECTORS:
            original = pooled[detector_id].t_d
            loaded = restored[detector_id].t_d
            assert loaded.mean == pytest.approx(original.mean)
            assert loaded.ci_half_width == pytest.approx(original.ci_half_width)

    def test_version_check(self):
        with pytest.raises(ValueError):
            campaign_from_dict({"format_version": 99, "detectors": {}})

    def test_empty_aggregate_serialises(self):
        empty = {"x": AggregatedQos("x")}
        document = campaign_to_dict(empty, self.CONFIG, runs=1)
        restored = campaign_from_dict(document)
        assert restored["x"].t_d is None
        assert restored["x"].p_a == 1.0


class TestTopology:
    def test_route_flapping_switches(self, rng):
        from repro.net.delay import ConstantDelay

        routes = [ConstantDelay(0.1), ConstantDelay(0.2)]
        flapper = RouteFlappingDelay(rng, routes, flap_probability=0.1)
        samples = {flapper.sample(float(i)) for i in range(500)}
        assert samples == {0.1, 0.2}
        assert flapper.flaps > 10

    def test_route_flapping_zero_probability_stays(self, rng):
        from repro.net.delay import ConstantDelay

        flapper = RouteFlappingDelay(
            rng, [ConstantDelay(0.1), ConstantDelay(0.2)], flap_probability=0.0
        )
        assert all(flapper.sample(float(i)) == 0.1 for i in range(100))

    def test_route_flapping_reset(self, rng):
        from repro.net.delay import ConstantDelay

        flapper = RouteFlappingDelay(
            rng, [ConstantDelay(0.1), ConstantDelay(0.2)], flap_probability=1.0
        )
        flapper.sample(0.0)
        flapper.reset()
        assert flapper.active_route == 0
        assert flapper.flaps == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RouteFlappingDelay(rng, [], 0.1)


class TestChart:
    DATA = {
        "Arima": {"CI_low": 0.5, "CI_med": 0.6, "CI_high": 0.7,
                  "JAC_low": 0.45, "JAC_med": 0.5, "JAC_high": 0.55},
        "Mean": {"CI_low": 0.5, "CI_med": 0.6, "CI_high": 0.7,
                 "JAC_low": 0.5, "JAC_med": 0.6, "JAC_high": 0.8},
    }

    def test_renders_markers_and_axis(self):
        text = render_figure(self.DATA, "T_D (s)")
        assert "T_D (s)" in text
        assert "A=Arima" in text and "M=Mean" in text
        assert "CI_low" in text and "JAC_high" in text
        assert "A" in text and "M" in text

    def test_extremes_labelled(self):
        text = render_figure(self.DATA, "T_D")
        assert "0.8" in text   # maximum
        assert "0.45" in text  # minimum

    def test_log_scale(self):
        data = {"Arima": {"CI_low": 10.0, "CI_high": 10000.0}}
        text = render_figure(data, "T_MR", log_scale=True)
        assert "log scale" in text

    def test_missing_cells_tolerated(self):
        data = {"Arima": {"CI_low": 1.0}}
        text = render_figure(data, "partial")
        assert "A" in text

    def test_empty_data(self):
        assert "(no data)" in render_figure({}, "empty")

    def test_flat_data_no_crash(self):
        data = {"Arima": {m: 1.0 for m in
                          ("CI_low", "CI_med", "CI_high",
                           "JAC_low", "JAC_med", "JAC_high")}}
        text = render_figure(data, "flat")
        assert "A" in text

    def test_height_validation(self):
        with pytest.raises(ValueError):
            render_figure(self.DATA, "x", height=2)
