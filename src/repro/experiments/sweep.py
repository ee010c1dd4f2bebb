"""Parameter sweep: QoS as a function of the heartbeat period.

The paper fixes the heartbeat period at ``eta = 1 s`` (Table 5).
:func:`sweep_eta` treats it as the continuous dial it is: QoS versus
heartbeat rate.  The message cost is ``1/eta`` per second; detection time
grows like ``eta/2 + delta``; the mistake *rate* per second falls as
heartbeats get rarer.  This is the cost/QoS frontier an operator
actually tunes.

The sweep reuses the standard experiment runner, so every point is a full
crash-injected run.  Points are independent runs, so the sweep accepts
``workers`` and fans out over the process pool of
:mod:`repro.experiments.parallel`; the per-point work is done by a
module-level function on picklable payloads, and serial execution maps
the very same function inline — the two paths cannot diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.experiments.parallel import parallel_map
from repro.experiments.runner import run_qos_experiment
from repro.neko.config import ExperimentConfig
from repro.nekostat.metrics import DetectorQos


@dataclass(frozen=True)
class SweepPoint:
    """QoS measured at one parameter value."""

    value: float
    detection_time: float
    detection_time_max: float
    mistake_rate: float          # mistakes per second of up-time
    mistakes: int
    query_accuracy: float
    messages_per_second: float

    @classmethod
    def from_qos(cls, value: float, qos: DetectorQos, eta: float) -> "SweepPoint":
        t_d = qos.t_d
        t_d_upper = qos.t_d_upper
        return cls(
            value=value,
            detection_time=t_d.mean if t_d is not None else float("nan"),
            detection_time_max=t_d_upper if t_d_upper is not None else float("nan"),
            mistake_rate=qos.mistake_rate,
            mistakes=len(qos.mistakes),
            query_accuracy=qos.p_a,
            messages_per_second=1.0 / eta,
        )


def _execute_eta_point(
    payload: Tuple[ExperimentConfig, float, str],
) -> SweepPoint:
    """One eta sweep point (module-level so it pickles into workers)."""
    base_config, eta, detector_id = payload
    cycles = max(1, int(round(base_config.duration / eta)))
    config = replace(base_config, eta=eta, num_cycles=cycles)
    qos = run_qos_experiment(config, [detector_id]).qos[detector_id]
    return SweepPoint.from_qos(eta, qos, eta)


def sweep_eta(
    base_config: ExperimentConfig,
    etas: Sequence[float],
    *,
    predictor_name: str = "Last",
    margin_name: str = "JAC_med",
    workers: Optional[int] = 1,
) -> List[SweepPoint]:
    """Run the experiment at each heartbeat period in ``etas``.

    The virtual *duration* (seconds) is held fixed — not the cycle count —
    so every point sees the same crash schedule length.  With ``workers``
    > 1 (or ``None`` = all cores) the points run on a process pool; the
    result is identical to the serial sweep point for point.
    """
    if not etas:
        raise ValueError("need at least one eta")
    for eta in etas:
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta!r}")
    detector_id = f"{predictor_name}+{margin_name}"
    payloads = [(base_config, float(eta), detector_id) for eta in etas]
    return parallel_map(_execute_eta_point, payloads, workers=workers)


def format_sweep(points: Sequence[SweepPoint], parameter: str) -> str:
    """Render sweep points as a table."""
    header = (f"{parameter:>10}{'msg/s':>8}{'T_D':>10}{'T_D^U':>10}"
              f"{'mistakes/h':>12}{'P_A':>10}")
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.value:>10.3g}"
            f"{point.messages_per_second:>8.2f}"
            f"{point.detection_time * 1e3:>8.0f}ms"
            f"{point.detection_time_max * 1e3:>8.0f}ms"
            f"{point.mistake_rate * 3600:>12.1f}"
            f"{point.query_accuracy:>10.5f}"
        )
    return "\n".join(lines)


__all__ = ["SweepPoint", "format_sweep", "sweep_eta"]
