"""Focused edge-case tests across modules (coverage deepening)."""

import math

import numpy as np
import pytest

from repro.experiments.qos import figure_data, qos_metric_value
from repro.experiments.report import format_qos_report
from repro.experiments.runner import MONITORED, build_qos_system, run_qos_experiment
from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector
from repro.neko.config import ExperimentConfig
from repro.nekostat.metrics import DetectorQos, extract_qos
from repro.nekostat.events import EventKind
from repro.timeseries.arma import ArmaModel


class TestConfigExtras:
    def test_extras_flow_to_initial_timeout(self):
        config = ExperimentConfig(
            num_cycles=200, mttc=60.0, ttr=12.0,
            extras={"initial_timeout": 42.0},
        )
        parts = build_qos_system(config, ["Last+JAC_med"])
        assert parts["detectors"].initial_timeout == 42.0

    def test_extras_default_initial_timeout_scales_with_eta(self):
        config = ExperimentConfig(num_cycles=200, mttc=60.0, ttr=12.0, eta=2.0)
        parts = build_qos_system(config, ["Last+JAC_med"])
        assert parts["detectors"].initial_timeout == 20.0


class TestMetricValueEdges:
    def test_nan_for_missing_samples(self):
        empty = DetectorQos(detector="x", observation_time=10.0, up_time=10.0)
        assert math.isnan(qos_metric_value(empty, "td"))
        assert math.isnan(qos_metric_value(empty, "tdu"))
        assert math.isnan(qos_metric_value(empty, "tm"))
        assert math.isnan(qos_metric_value(empty, "tmr"))
        assert qos_metric_value(empty, "pa") == 1.0

    def test_figure_data_custom_axes(self):
        config = ExperimentConfig(num_cycles=300, mttc=60.0, ttr=12.0, seed=1)
        result = run_qos_experiment(config, ["Last+JAC_med"])
        data = figure_data(
            result.qos, "td", predictors=["Last"], margins=["JAC_med"]
        )
        assert set(data) == {"Last"}
        assert set(data["Last"]) == {"JAC_med"}

    def test_format_qos_report_custom_titles(self):
        data = {"td": {"Last": {"CI_low": 0.5}}}
        text = format_qos_report(data, titles={"td": "My Custom Title"})
        assert "My Custom Title" in text


class TestArmaEdges:
    def test_empty_ar_is_stationary(self):
        model = ArmaModel(
            phi=np.zeros(0), theta=np.array([0.4]), const=0.0, noise_variance=1.0
        )
        assert model.is_stationary()

    def test_innovations_of_empty_series(self):
        model = ArmaModel(
            phi=np.array([0.5]), theta=np.zeros(0), const=0.0, noise_variance=1.0
        )
        assert model.innovations([]).size == 0

    def test_forecast_with_empty_history(self):
        model = ArmaModel(
            phi=np.array([0.5]), theta=np.array([0.3]), const=2.0,
            noise_variance=1.0,
        )
        assert model.forecast_one([], []) == pytest.approx(2.0)


class TestSelectionEdges:
    def test_ranked_puts_failures_last(self):
        from repro.timeseries.selection import GridSearchResult

        result = GridSearchResult(
            best_order=(1, 0, 0),
            best_msqerr=1.0,
            scores={(1, 0, 0): 1.0, (9, 9, 9): math.inf, (0, 0, 0): 2.0},
        )
        ranked = result.ranked()
        assert ranked[0][0] == (1, 0, 0)
        assert ranked[-1][0] == (9, 9, 9)


class TestLiveMembershipIntegration:
    def test_membership_over_real_detectors(self):
        """End-to-end: MembershipService consuming live detector events."""
        from repro.apps.membership import MembershipService

        config = ExperimentConfig(num_cycles=600, mttc=80.0, ttr=15.0, seed=9)
        parts = build_qos_system(config, ["Arima+CI_high"])
        service = MembershipService(
            parts["event_log"],
            members=[MONITORED, "backup"],
            detector_of={MONITORED: "Arima+CI_high", "backup": "phantom"},
        )
        parts["system"].run(until=config.duration)
        qos = extract_qos(
            parts["event_log"], end_time=config.duration,
            detectors=["Arima+CI_high"],
        )["Arima+CI_high"]
        # Every crash must have flipped the coordinator to the backup and
        # every repair back: elections >= 2 * detected crashes.
        assert service.stats.elections >= 2 * len(qos.td_samples)
        # The membership view mirrors the live detector state exactly.
        detector = parts["detectors"]["Arima+CI_high"]
        assert service.is_suspected(MONITORED) == detector.suspecting
        expected = "backup" if detector.suspecting else MONITORED
        assert service.coordinator() == expected


class TestUdpExtras:
    def test_wallclock_schedule_at(self):
        import asyncio

        from repro.service.runtime import AsyncioScheduler

        async def main():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            fired = []
            scheduler.schedule_at(scheduler.now + 0.03, lambda: fired.append(True))
            await asyncio.sleep(0.15)
            assert fired == [True]

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))

    def test_add_peer_endpoint(self):
        from repro.net.udp import UdpNetwork

        network = UdpNetwork()
        network.add_peer("remote", ("10.0.0.1", 9999))
        assert network.endpoint("remote") == ("10.0.0.1", 9999)

    def test_oversized_datagram_rejected(self):
        import asyncio

        from repro.net.message import Datagram
        from repro.net.udp import UdpNetwork

        async def main():
            network = UdpNetwork()
            await network.open()
            network.register("a", lambda m: None)
            network.add_peer("b", ("127.0.0.1", 1))
            huge = Datagram(
                source="a", destination="b", kind="t", payload="x" * 70_000
            )
            with pytest.raises(ValueError):
                network.send(huge)
            network.close()

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))


class TestDetectorClockInteraction:
    def test_constant_offset_cancels_for_adaptive_detectors(self):
        """A constant clock offset inflates every measured delay by the
        offset — and every translation-equivariant predictor (all five of
        the paper's) passes that inflation straight into the prediction,
        which the local→global conversion of the freshness point then
        subtracts again.  Net effect after warm-up: *exactly none*.  The
        paper's NTP requirement therefore protects adaptive detectors
        from drift, not from offset."""
        base = ExperimentConfig(num_cycles=800, mttc=80.0, ttr=15.0, seed=2)
        plain = run_qos_experiment(base, ["Last+JAC_med"])
        shifted = run_qos_experiment(
            ExperimentConfig(
                num_cycles=800, mttc=80.0, ttr=15.0, seed=2, clock_offset=0.1
            ),
            ["Last+JAC_med"],
        )
        plain_td = plain.qos["Last+JAC_med"].t_d.mean
        shifted_td = shifted.qos["Last+JAC_med"].t_d.mean
        assert shifted_td == pytest.approx(plain_td, abs=1e-3)

    def test_constant_offset_shifts_constant_timeout_detector(self):
        """A constant-time-out detector has no adapting prediction to
        absorb the offset: a monitor clock running +100 ms ahead fires
        every freshness point 100 ms early (shorter detection, more
        mistakes)."""
        from repro.fd.baselines import constant_timeout_strategy

        def run(offset):
            config = ExperimentConfig(
                num_cycles=800, mttc=80.0, ttr=15.0, seed=2,
                clock_offset=offset,
            )
            parts = build_qos_system(config, [], extra_monitor_layers=lambda log: [
                PushFailureDetector(
                    MONITORED, config.eta, log,
                    [("const", constant_timeout_strategy(0.35))],
                    initial_timeout=5.0,
                )
            ])
            parts["system"].run(until=config.duration)
            return extract_qos(
                parts["event_log"], end_time=config.duration,
                detectors=["const"],
            )["const"]

        plain = run(0.0)
        fast_clock = run(0.1)
        assert fast_clock.t_d.mean == pytest.approx(
            plain.t_d.mean - 0.1, abs=0.01
        )
        assert len(fast_clock.mistakes) >= len(plain.mistakes)

    def test_drifting_clock_still_detects(self):
        config = ExperimentConfig(
            num_cycles=800, mttc=80.0, ttr=15.0, seed=2, clock_drift=5e-5
        )
        result = run_qos_experiment(config, ["Last+JAC_med"])
        qos = result.qos["Last+JAC_med"]
        assert qos.undetected_crashes == 0
        assert len(qos.td_samples) >= 5
