"""Simulation-based tuning of adaptive safety margins.

The paper's advice for applications needing a much higher ``T_MR``:
*"it is necessary to work on the safety margin by increasing it until
the desired T_MR is reached."*  :func:`tune_margin_level` automates that
sentence: a monotone search over the margin level (γ for ``SM_CI``, φ
for ``SM_JAC``) until a simulated run meets the recurrence target.

For the *constant*-time-out detector the closed-form inverse in
:mod:`repro.fd.analysis` is cheaper; this module is for the adaptive
margins, whose mistake processes have no simple closed form on
autocorrelated paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.sweep import _run_one
from repro.fd.combinations import make_predictor
from repro.fd.safety import ConfidenceIntervalMargin, JacobsonMargin
from repro.fd.timeout import TimeoutStrategy
from repro.neko.config import ExperimentConfig


@dataclass(frozen=True)
class TuningStep:
    """One evaluated candidate level."""

    level: float
    t_mr: float
    t_d: float
    met: bool


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a margin-level search."""

    family: str
    predictor: str
    target_t_mr: float
    level: float
    achieved_t_mr: float
    detection_time: float
    steps: List[TuningStep]


def tune_margin_level(
    config: ExperimentConfig,
    target_t_mr: float,
    *,
    family: str = "CI",
    predictor_name: str = "Last",
    initial_level: float = 1.0,
    max_level: float = 64.0,
    refine_iterations: int = 4,
) -> TuningResult:
    """Find the smallest margin level whose simulated ``T_MR`` meets a target.

    Doubles the level until the target is met (the mistake rate is
    monotone in the level), then bisects ``refine_iterations`` times
    between the last failing and first passing level.  Raises
    ``ValueError`` if even ``max_level`` cannot meet the target on the
    configured path (e.g. the loss rate alone forces mistakes).
    """
    if family not in ("CI", "JAC"):
        raise ValueError(f"family must be 'CI' or 'JAC', got {family!r}")
    if target_t_mr <= 0:
        raise ValueError(f"target_t_mr must be > 0, got {target_t_mr!r}")
    if not (math.isfinite(initial_level) and math.isfinite(max_level)):
        raise ValueError("initial_level and max_level must be finite")
    if initial_level <= 0 or max_level < initial_level:
        raise ValueError("need 0 < initial_level <= max_level")

    steps: List[TuningStep] = []

    def measure(level: float) -> TuningStep:
        if family == "CI":
            margin = ConfidenceIntervalMargin(gamma=level)
        else:
            margin = JacobsonMargin(phi=level)
        strategy = TimeoutStrategy(make_predictor(predictor_name), margin)
        qos = _run_one(config, strategy, "tuning")
        t_mr = qos.t_mr.mean if qos.t_mr else float("inf")
        t_d = qos.t_d.mean if qos.t_d else float("nan")
        step = TuningStep(level=level, t_mr=t_mr, t_d=t_d, met=t_mr >= target_t_mr)
        steps.append(step)
        return step

    # Phase 1: exponential search upwards.
    level = initial_level
    step = measure(level)
    low: Optional[float] = None
    while not step.met:
        low = level
        level *= 2.0
        if level > max_level:
            raise ValueError(
                f"target T_MR {target_t_mr} s unreachable below level "
                f"{max_level} on this path (best: {step.t_mr:.1f} s)"
            )
        step = measure(level)
    high_step = step

    # Phase 2: bisection between the last failure and the first success.
    if low is not None:
        low_level, high_level = low, high_step.level
        for _ in range(refine_iterations):
            middle = (low_level + high_level) / 2.0
            step = measure(middle)
            if step.met:
                high_level = middle
                high_step = step
            else:
                low_level = middle

    return TuningResult(
        family=family,
        predictor=predictor_name,
        target_t_mr=target_t_mr,
        level=high_step.level,
        achieved_t_mr=high_step.t_mr,
        detection_time=high_step.t_d,
        steps=steps,
    )


__all__ = ["TuningResult", "TuningStep", "tune_margin_level"]
