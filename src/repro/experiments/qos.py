"""Section 5.2: the QoS comparison behind Figures 4–8.

A *figure* in the paper plots one metric for all 30 (predictor, margin)
combinations: the x-axis enumerates the six safety margins (CI side then
JAC side) and one line per predictor connects its values.  Here the same
data is a nested mapping ``{predictor: {margin: value}}`` produced by
:func:`figure_data`; :mod:`repro.experiments.report` renders it.

Metric keys:

=======  =============================================  ==========
key      meaning                                        figure
=======  =============================================  ==========
``td``   mean detection time ``T_D``                    Figure 4
``tdu``  maximum observed detection time ``T_D^U``      Figure 5
``tm``   mean mistake duration ``T_M``                  Figure 6
``tmr``  mean mistake recurrence time ``T_MR``          Figure 7
``pa``   query accuracy probability ``P_A``             Figure 8
=======  =============================================  ==========
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Union

from repro.experiments.runner import AggregatedQos
from repro.fd.combinations import MARGIN_NAMES, PREDICTOR_NAMES, parse_combination_id
from repro.nekostat.metrics import DetectorQos

FIGURE_METRICS: Dict[str, str] = {
    "td": "Figure 4: delay metric T_D (mean detection time)",
    "tdu": "Figure 5: delay metric T_D^U (max detection time)",
    "tm": "Figure 6: accuracy metric T_M (mistake duration)",
    "tmr": "Figure 7: accuracy metric T_MR (mistake recurrence)",
    "pa": "Figure 8: accuracy metric P_A (query accuracy probability)",
}

#: Metrics where smaller is better (the paper's "better" arrows).
LOWER_IS_BETTER = {"td": True, "tdu": True, "tm": True, "tmr": False, "pa": False}

QosLike = Union[DetectorQos, AggregatedQos]


def qos_metric_value(qos: QosLike, metric: str) -> float:
    """Extract one figure metric from a (possibly aggregated) QoS record.

    Times are returned in **seconds** (NaN when no sample exists);
    ``pa`` is a probability.
    """
    if metric == "td":
        summary = qos.t_d
        return summary.mean if summary is not None else math.nan
    if metric == "tdu":
        upper = qos.t_d_upper
        return upper if upper is not None else math.nan
    if metric == "tm":
        summary = qos.t_m
        return summary.mean if summary is not None else math.nan
    if metric == "tmr":
        summary = qos.t_mr
        return summary.mean if summary is not None else math.nan
    if metric == "pa":
        return qos.p_a
    raise KeyError(f"unknown metric {metric!r}; known: {sorted(FIGURE_METRICS)}")


def figure_data(
    pooled: Dict[str, QosLike],
    metric: str,
    *,
    predictors: Sequence[str] = PREDICTOR_NAMES,
    margins: Sequence[str] = MARGIN_NAMES,
) -> Dict[str, Dict[str, float]]:
    """Arrange one metric as ``{predictor: {margin: value}}``.

    Detector ids absent from ``pooled`` are simply skipped, so partial
    runs (a subset of combinations) still render.
    """
    result: Dict[str, Dict[str, float]] = {p: {} for p in predictors}
    for detector_id, qos in pooled.items():
        predictor, margin = parse_combination_id(detector_id)
        if predictor in result and margin in margins:
            result[predictor][margin] = qos_metric_value(qos, metric)
    return result


__all__ = [
    "FIGURE_METRICS",
    "LOWER_IS_BETTER",
    "figure_data",
    "qos_metric_value",
]
