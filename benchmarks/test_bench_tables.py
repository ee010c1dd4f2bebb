"""Benches regenerating the paper's Tables 1-5.

* Table 1 — safety-margin parameters (the 30-combination enumeration);
* Table 2 — predictor parameters, including the ARIMA order grid search;
* Table 3 — predictor accuracy ranking by msqerr;
* Table 4 — WAN path characteristics;
* Table 5 — experiment parameters (validated against the config defaults).
"""

import pytest

from repro.experiments.characterize import characterize_profile
from repro.experiments.report import (
    format_predictor_accuracy_table,
    format_wan_table,
)
from repro.fd.combinations import MARGINS, PREDICTORS, all_combinations, make_strategy
from repro.fd.safety import ConfidenceIntervalMargin, JacobsonMargin
from repro.neko.config import ExperimentConfig
from repro.timeseries.selection import select_arima_order


def arima_order():
    """Table 2's ARIMA (p, d, q)."""
    params = PREDICTORS["Arima"][1]
    return params["p"], params["d"], params["q"]


class TestTable1Combinations:
    def test_bench_enumerate_30_combinations(self, benchmark):
        """Table 1: gamma in {1, 2, 3.31}, phi in {1, 2, 4}, alpha = 1/4."""

        def build_all():
            return [
                make_strategy(predictor, margin)
                for _, predictor, margin in all_combinations()
            ]

        strategies = benchmark(build_all)
        assert len(strategies) == 30
        print("\nTable 1 - Safety Margin Parameters")
        print(f"{'SM_CI':<12}{'gamma':>8}    {'SM_JAC':<12}{'phi':>6}")
        names = list(MARGINS)
        for ci, jac in zip(names[:3], names[3:]):
            gamma, phi = MARGINS[ci][1], MARGINS[jac][1]
            print(f"{ci:<12}{gamma:>8.2f}    {jac:<12}{phi:>6.1f}")

    def test_bench_margin_values_match_paper(self):
        CI, JAC = ConfidenceIntervalMargin, JacobsonMargin
        assert MARGINS == {
            "CI_low": (CI, 1.0), "CI_med": (CI, 2.0), "CI_high": (CI, 3.31),
            "JAC_low": (JAC, 1.0), "JAC_med": (JAC, 2.0), "JAC_high": (JAC, 4.0),
        }


class TestTable2PredictorParameters:
    def test_bench_arima_order_selection(self, benchmark, wan_trace):
        """Table 2 selection step: grid-search (p, d, q) by msqerr.

        The paper searched [0,0,0]..[10,10,10] with the RPS toolkit; the
        optimum lives in the low-order corner, searched here.
        """
        series = wan_trace.delays[:4000]

        result = benchmark.pedantic(
            lambda: select_arima_order(
                series,
                p_range=range(0, 3),
                d_range=range(0, 2),
                q_range=range(0, 2),
            ),
            rounds=1,
            iterations=1,
        )
        print("\nTable 2 - Predictor parameters")
        print(f"  ARIMA selected order : {result.best_order} "
              f"(paper: {arima_order()}, connection-dependent)")
        print(f"  LPF beta             : {PREDICTORS['LPF'][1]['beta']}")
        print(f"  WINMEAN N            : {PREDICTORS['WinMean'][1]['window']}")
        p, d, q = result.best_order
        assert p <= 2 and d <= 1 and q <= 1  # a compact model wins

    def test_bench_paper_order_parameters(self):
        assert arima_order() == (2, 1, 1)
        assert PREDICTORS["Arima"][1]["refit_interval"] == 1000
        assert PREDICTORS["LPF"][1]["beta"] == pytest.approx(1 / 8)
        assert PREDICTORS["WinMean"][1]["window"] == 10


class TestTable3PredictorAccuracy:
    def test_bench_predictor_accuracy(self, benchmark, wan_trace):
        """Table 3: msqerr of the five predictors over the delay trace."""
        from repro.experiments.accuracy import predictor_accuracy

        accuracy = benchmark.pedantic(
            lambda: predictor_accuracy(wan_trace), rounds=1, iterations=1
        )
        print()
        print(format_predictor_accuracy_table(accuracy))
        print(
            "(paper ranking: ARIMA, WINMEAN, MEAN, LAST, LPF - see "
            "EXPERIMENTS.md for the measured agreement)"
        )
        # The reproduction's hard claims: ARIMA most accurate, windowed
        # estimators beat the global MEAN.
        ranked = sorted(accuracy, key=accuracy.get)
        assert ranked[0] == "Arima"
        assert accuracy["WinMean"] < accuracy["Mean"]


class TestTable4WanCharacteristics:
    def test_bench_characterize_path(self, benchmark):
        """Table 4: delay statistics and loss of the Italy-Japan path."""
        result = benchmark.pedantic(
            lambda: characterize_profile(samples=50_000, seed=2),
            rounds=1,
            iterations=1,
        )
        print()
        print(format_wan_table(result))
        delay = result.delay_ms()
        assert delay.minimum >= 192.0           # paper: 192 ms
        assert 195.0 < delay.mean < 210.0       # paper: ~200 ms (illegible)
        assert 4.0 < delay.std < 10.0           # paper: 7.6 ms
        assert delay.maximum > 250.0            # paper: 340 ms
        assert result.loss_probability < 0.01   # paper: < 1%
        assert result.hops == 18                # paper: 18


class TestTable5ExperimentParameters:
    def test_bench_defaults_reproduce_table5(self):
        """Table 5: NumCycles 100000, MTTC 300 s, TTR 30 s, eta 1 s."""
        config = ExperimentConfig()
        print("\nTable 5 - Experiment Parameters")
        print(f"  NumCycles : {config.num_cycles}")
        print(f"  MTTC      : {config.mttc} s")
        print(f"  TTR       : {config.ttr} s")
        print(f"  eta       : {config.eta} s")
        assert config.num_cycles == 100_000
        assert config.mttc == 300.0
        assert config.ttr == 30.0
        assert config.eta == 1.0
        # The paper's N_TD ~ 30 samples-per-run criterion.
        assert config.expected_crashes >= 30
