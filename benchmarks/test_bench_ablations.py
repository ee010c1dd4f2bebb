"""Ablation benches for the design choices DESIGN.md calls out.

The paper fixes several constants (N_arima = 1000, WINMEAN N = 10,
LPF beta = 1/8, alpha = 1/4) and assumes synchronised clocks.  These
benches sweep each choice and show the sensitivity of the results —
the analysis the paper defers to its parameter tables.
"""

import numpy as np
import pytest

from repro.experiments.accuracy import collect_delay_trace
from repro.experiments.runner import run_qos_experiment
from repro.fd.combinations import make_predictor
from repro.neko.config import ExperimentConfig
from repro.timeseries.base import evaluate_forecaster

ABLATION_CONFIG = ExperimentConfig(
    num_cycles=3_000, mttc=100.0, ttr=15.0, seed=31
)


class TestWinMeanWindowAblation:
    def test_bench_window_sweep(self, benchmark, wan_trace):
        """WINMEAN window: too small chases jitter, too large becomes MEAN."""

        def sweep():
            scores = {}
            for window in (2, 5, 10, 50, 200, 1000):
                predictor = make_predictor("WinMean", window=window)
                msqerr, _ = evaluate_forecaster(
                    predictor, wan_trace.delays[:10000], warmup=1
                )
                scores[window] = msqerr
            return scores

        scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: WINMEAN window vs msqerr (ms^2)")
        for window, msqerr in scores.items():
            print(f"  N = {window:>5}: {msqerr * 1e6:8.2f}")
        # The sweet spot sits in the small-window region; the huge window
        # degenerates towards MEAN and must be worse than the paper's 10.
        assert scores[10] < scores[1000]


class TestLpfBetaAblation:
    def test_bench_beta_sweep(self, benchmark, wan_trace):
        """LPF gain: beta -> 1 degenerates to LAST, beta -> 0 to a frozen
        estimate; the paper's 1/8 sits in the flat optimum region."""

        def sweep():
            scores = {}
            for beta in (0.01, 0.05, 0.125, 0.25, 0.5, 1.0):
                predictor = make_predictor("LPF", beta=beta)
                msqerr, _ = evaluate_forecaster(
                    predictor, wan_trace.delays[:10000], warmup=1
                )
                scores[beta] = msqerr
            return scores

        scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: LPF beta vs msqerr (ms^2)")
        for beta, msqerr in scores.items():
            print(f"  beta = {beta:>5}: {msqerr * 1e6:8.2f}")
        # beta = 1 (i.e. LAST) must be worse than the paper's 1/8 on this
        # jitter-dominated path.
        assert scores[0.125] < scores[1.0]


class TestArimaRefitAblation:
    def test_bench_refit_interval_sweep(self, benchmark, wan_trace):
        """N_arima: the paper refits every 1000 observations 'so the model
        can adapt'; rarer refits must not cost much on a stable path."""
        series = wan_trace.delays[:12000]

        def sweep():
            scores = {}
            for interval in (250, 1000, 4000):
                predictor = make_predictor(
                    "Arima", refit_interval=interval, initial_fit=200
                )
                msqerr, _ = evaluate_forecaster(predictor, series, warmup=300)
                scores[interval] = msqerr
            return scores

        scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: ARIMA refit interval vs msqerr (ms^2)")
        for interval, msqerr in scores.items():
            print(f"  N_arima = {interval:>5}: {msqerr * 1e6:8.2f}")
        best = min(scores.values())
        assert scores[1000] < best * 1.2  # the paper's choice is near-optimal


class TestClockSyncAblation:
    def test_bench_clock_offset_sweep(self, benchmark):
        """The synchronised-clock assumption, dissected.

        For the paper's *adaptive* detectors a constant offset cancels
        exactly: the biased delay measurements inflate the (translation-
        equivariant) prediction by the same amount the local-to-global
        conversion of the freshness point subtracts.  A *constant*
        time-out has no such compensation: a monitor clock ahead by x
        fires every freshness point x early (more mistakes, faster
        detection) and a clock behind fires late.  Both facts are
        asserted here; only clock *drift* and offset *changes* threaten
        adaptive detectors.
        """
        from repro.fd.baselines import constant_timeout_strategy
        from repro.fd.detector import PushFailureDetector
        from repro.experiments.runner import MONITORED, build_qos_system
        from repro.nekostat.metrics import extract_qos

        def run(offset):
            config = ExperimentConfig(
                num_cycles=3_000, mttc=100.0, ttr=15.0, seed=31,
                clock_offset=offset,
            )
            parts = build_qos_system(
                config, ["Last+JAC_med"],
                extra_monitor_layers=lambda log: [
                    PushFailureDetector(
                        MONITORED, config.eta, log,
                        [("const", constant_timeout_strategy(0.35))],
                        initial_timeout=5.0,
                    )
                ],
            )
            parts["system"].run(until=config.duration)
            return extract_qos(parts["event_log"], end_time=config.duration)

        def sweep():
            return {offset: run(offset) for offset in (-0.05, 0.0, 0.05)}

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: monitor clock offset (adaptive vs constant FD)")
        print(f"{'offset':>8}{'adaptive T_D':>14}{'const T_D':>11}"
              f"{'const mistakes':>16}")
        for offset, qos in results.items():
            print(
                f"{offset * 1e3:>6.0f}ms"
                f"{qos['Last+JAC_med'].t_d.mean * 1e3:>12.1f}ms"
                f"{qos['const'].t_d.mean * 1e3:>9.1f}ms"
                f"{len(qos['const'].mistakes):>16}"
            )
        # Adaptive: offset-invariant to within a millisecond.
        adaptive = {o: q["Last+JAC_med"].t_d.mean for o, q in results.items()}
        assert abs(adaptive[0.05] - adaptive[0.0]) < 1e-3
        assert abs(adaptive[-0.05] - adaptive[0.0]) < 1e-3
        # Constant: the offset shifts detection one-for-one.
        constant = {o: q["const"].t_d.mean for o, q in results.items()}
        assert constant[0.05] == pytest.approx(constant[0.0] - 0.05, abs=0.01)
        assert constant[-0.05] == pytest.approx(constant[0.0] + 0.05, abs=0.01)

    def test_bench_ntp_sync_bounds_error(self, benchmark):
        """NTP keeps a drifting clock within the margin sizes used here."""
        from repro.clocks.ntp import DisciplinedClock
        from repro.sim.engine import Simulator

        def run():
            sim = Simulator()
            rng = np.random.default_rng(4)
            clock = DisciplinedClock(
                sim, offset=0.25, drift=2e-5,
                delay_out=lambda: 0.1 + rng.exponential(0.01),
                delay_back=lambda: 0.1 + rng.exponential(0.01),
                poll_interval=64.0,
            )
            clock.start_sync()
            sim.run(until=3600.0)
            return abs(clock.local_from_global(sim.now) - sim.now)

        residual = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\nNTP residual clock error after 1 h: {residual * 1e3:.2f} ms")
        assert residual < 0.01  # well under the safety margins in play


class TestLossBurstinessAblation:
    def test_bench_burstiness_sweep(self, benchmark):
        """Bursty loss at a fixed rate looks like crashes; independent loss
        of the same rate is absorbed by a single missed freshness point."""
        from repro.fd.combinations import make_strategy
        from repro.fd.detector import PushFailureDetector
        from repro.fd.heartbeat import Heartbeater
        from repro.neko.layer import ProtocolStack
        from repro.neko.system import NekoSystem
        from repro.nekostat.log import EventLog
        from repro.nekostat.metrics import extract_qos
        from repro.net.delay import ConstantDelay
        from repro.net.loss import BernoulliLoss, GilbertElliottLoss
        from repro.sim.engine import Simulator

        def run(loss_model_factory):
            sim = Simulator()
            rng = np.random.default_rng(9)
            event_log = EventLog()
            system = NekoSystem(sim)
            system.network.set_link(
                "q", "p", ConstantDelay(0.2), loss_model_factory(rng),
                record_delays=False,
            )
            heartbeater = Heartbeater("p", 1.0, event_log)
            system.create_process("q", ProtocolStack([heartbeater]))
            detector = PushFailureDetector(
                "q", 1.0, event_log,
                [("fd", make_strategy("Last", "JAC_med"))],
                initial_timeout=10.0,
            )
            system.create_process("p", ProtocolStack([detector]))
            system.run(until=20_000.0)
            return extract_qos(event_log, end_time=20_000.0)["fd"]

        def sweep():
            rate = 0.01
            independent = run(lambda rng: BernoulliLoss(rng, rate))
            bursty = run(
                lambda rng: GilbertElliottLoss(
                    rng, p_good_to_bad=rate / 4, p_bad_to_good=0.25,
                    loss_good=0.0, loss_bad=1.0,
                )
            )
            return independent, bursty

        independent, bursty = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: loss burstiness at ~1% loss (Last+JAC_med)")
        for name, qos in (("independent", independent), ("bursty", bursty)):
            t_m = qos.t_m.mean if qos.t_m else 0.0
            print(
                f"  {name:<12} mistakes={len(qos.mistakes):>4}  "
                f"mean T_M={t_m * 1e3:7.1f} ms"
            )
        # Bursty loss produces longer outages: fewer-but-longer mistakes.
        assert bursty.t_m.mean > independent.t_m.mean
