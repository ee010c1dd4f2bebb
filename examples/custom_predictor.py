#!/usr/bin/env python3
"""Extending the framework: a custom predictor compared against the 30.

The paper's modular design exists so new time-out calculation methods can
be slotted in and compared fairly.  This walk-through adds two custom
pieces through :mod:`repro.fd.registry` —

* the bundled robust **sliding-median** predictor, and
* a custom **quantile margin** (a fixed empirical-quantile cushion) —

then races them against the paper's recommended ``Last+JAC_med`` under
identical network conditions: one detector layer, three ``(label,
strategy)`` rows, the same crashes.

Run with::

    python examples/custom_predictor.py
"""

from repro import ExperimentConfig
from repro.experiments.runner import build_qos_system
from repro.fd.registry import make_registered_strategy, register_margin
from repro.fd.safety import SafetyMargin
from repro.nekostat.metrics import extract_qos


class QuantileMargin(SafetyMargin):
    """Safety margin = a rolling high quantile of the last errors.

    Keeps the last ``window`` absolute prediction errors and returns
    their ``q``-quantile — a distribution-free cousin of SM_JAC.
    """

    name = "Quantile"

    def __init__(self, q: float = 0.98, window: int = 500) -> None:
        super().__init__(initial_margin=0.1)
        self.q = q
        self.window = window
        self._errors = []

    def update(self, observation: float, prediction: float) -> None:
        self._errors.append(abs(observation - prediction))
        if len(self._errors) > self.window:
            del self._errors[0]

    def current(self) -> float:
        if len(self._errors) < 10:
            return self._initial_margin
        ordered = sorted(self._errors)
        index = min(len(ordered) - 1, int(self.q * len(ordered)))
        return ordered[index]

    def reset(self) -> None:
        self._errors.clear()


def main() -> None:
    # One registration call makes the margin available by name.
    register_margin("Q98", lambda: QuantileMargin(q=0.98))

    config = ExperimentConfig(num_cycles=8_000, mttc=120.0, ttr=20.0, seed=13)
    contenders = [
        ("Last+JAC_med", make_registered_strategy("Last", "JAC_med")),
        ("Median+JAC_med", make_registered_strategy("Median", "JAC_med")),
        ("Median+Q98", make_registered_strategy("Median", "Q98")),
    ]

    print(f"Racing {len(contenders)} detectors: {config.describe()}\n")
    parts = build_qos_system(config, contenders)
    parts["system"].run(until=config.duration)
    qos = extract_qos(parts["event_log"], end_time=config.duration)

    header = (f"{'detector':<16}{'T_D mean':>10}{'mistakes':>10}"
              f"{'T_MR':>10}{'P_A':>10}")
    print(header)
    print("-" * len(header))
    for name, _ in contenders:
        q = qos[name]
        t_mr = q.t_mr.mean if q.t_mr else float("inf")
        print(f"{name:<16}{q.t_d.mean * 1e3:>8.1f}ms"
              f"{len(q.mistakes):>10}{t_mr:>9.1f}s{q.p_a:>10.5f}")

    print(
        "\nThe sliding median ignores delay spikes entirely, so its "
        "Jacobson margin\nstays calm through them — compare the mistake "
        "counts.  Writing a new\npredictor or margin is ~20 lines plus "
        "one register_* call."
    )


if __name__ == "__main__":
    main()
