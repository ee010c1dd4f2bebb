"""Extension bench: the paper's detectors versus the wider literature.

Runs the baseline detectors — Chen et al.'s NFD-E, Bertier's adaptable
detector, a constant time-out, and the φ-accrual detector (the
Akka/Cassandra descendant of this line of work) — through the identical
MultiPlexer harness as the paper's combinations, on the same link and the
same crashes, and prints one comparison table.
"""

import pytest

from repro.experiments.runner import build_qos_system
from repro.fd.baselines import (
    PhiAccrualDetector,
    bertier_strategy,
    constant_timeout_strategy,
    nfd_e_strategy,
)
from repro.neko.config import ExperimentConfig
from repro.nekostat.metrics import extract_qos

CONFIG = ExperimentConfig(num_cycles=10_000, mttc=120.0, ttr=20.0, seed=404)

#: The two paper combinations Section 5.3 singles out, as references.
PAPER_PICKS = ["Last+JAC_med", "Arima+CI_high"]


def rows():
    """The paper picks, then the push baselines as ``(label, strategy)``
    rows of the same detector layer."""
    return PAPER_PICKS + [
        ("NFD-E(30ms)", nfd_e_strategy(alpha=0.030)),
        ("Bertier", bertier_strategy()),
        ("Const(300ms)", constant_timeout_strategy(0.300)),
    ]


def extra_layers(log):
    return [
        PhiAccrualDetector(
            "monitored", CONFIG.eta, log,
            threshold=8.0, detector_id="PhiAccrual(8)", initial_timeout=10.0,
        ),
        PhiAccrualDetector(
            "monitored", CONFIG.eta, log,
            threshold=2.0, detector_id="PhiAccrual(2)", initial_timeout=10.0,
        ),
    ]


class TestBaselinesComparison:
    def test_bench_baselines_vs_paper_combinations(self, benchmark):
        def run():
            parts = build_qos_system(
                CONFIG, rows(), extra_monitor_layers=extra_layers
            )
            parts["system"].run(until=CONFIG.duration)  # type: ignore[attr-defined]
            return extract_qos(
                parts["event_log"], end_time=CONFIG.duration,  # type: ignore[arg-type]
            )

        qos = benchmark.pedantic(run, rounds=1, iterations=1)
        print("\nBaselines vs paper picks (same link, same crashes)")
        header = (f"{'detector':<16}{'T_D mean':>10}{'T_D max':>10}"
                  f"{'T_MR':>10}{'P_A':>10}{'undetected':>12}")
        print(header)
        print("-" * len(header))
        for detector_id in sorted(qos):
            q = qos[detector_id]
            t_d = q.t_d.mean * 1e3 if q.t_d else float("nan")
            t_du = q.t_d_upper * 1e3 if q.t_d_upper else float("nan")
            t_mr = q.t_mr.mean if q.t_mr else float("inf")
            print(f"{detector_id:<16}{t_d:>8.1f}ms{t_du:>8.1f}ms"
                  f"{t_mr:>9.1f}s{q.p_a:>10.5f}{q.undetected_crashes:>12}")

        # Everyone detects every crash.
        crash_count = {len(q.td_samples) for q in qos.values()}
        assert len(crash_count) == 1
        for q in qos.values():
            assert q.undetected_crashes == 0

        # NFD-E behaves like the modular WinMean + constant margin family:
        # same order of detection delay as the paper picks.
        assert abs(qos["NFD-E(30ms)"].t_d.mean - qos["Last+JAC_med"].t_d.mean) < 0.3

        # Bertier is Chen estimation + an error-driven margin: it lands in
        # the same delay regime as NFD-E (their margins differ by a few
        # milliseconds on this stable path).
        assert abs(qos["Bertier"].t_d.mean - qos["NFD-E(30ms)"].t_d.mean) < 0.05

        # A generous constant time-out pays its full delta on every
        # detection: slower than every adaptive detector of the family.
        for adaptive in ("Bertier", "NFD-E(30ms)", "Last+JAC_med", "Arima+CI_high"):
            assert qos["Const(300ms)"].t_d.mean > qos[adaptive].t_d.mean

        # The phi-accrual trade-off: a higher threshold is slower but
        # more accurate.
        assert qos["PhiAccrual(8)"].t_d.mean > qos["PhiAccrual(2)"].t_d.mean
        phi8_tmr = qos["PhiAccrual(8)"].t_mr.mean if qos["PhiAccrual(8)"].t_mr else 1e9
        phi2_tmr = qos["PhiAccrual(2)"].t_mr.mean if qos["PhiAccrual(2)"].t_mr else 1e9
        assert phi8_tmr >= phi2_tmr
