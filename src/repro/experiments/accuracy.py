"""Section 5.1: predictor accuracy.

The paper collects the one-way transmission delays of 100 000 successive
heartbeats and uses them offline to score each predictor by ``msqerr``
(mean square error of one-step prediction).  Table 3 reports the ranking;
Table 2 records the ARIMA order selected by grid search on the same data.

:func:`collect_delay_trace` synthesises the observed-delay sequence from a
network profile exactly as a receiving failure detector would see it —
heartbeats sent every ``eta``, delays sampled from the path model, lost
heartbeats absent from the list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fd.combinations import PREDICTOR_NAMES, make_predictor
from repro.net.traces import DelayTrace
from repro.net.wan import WanProfile, get_profile
from repro.sim.random import RandomStreams
from repro.timeseries.base import evaluate_forecaster


def collect_delay_trace(
    profile: Optional[WanProfile] = None,
    *,
    count: int = 100_000,
    eta: float = 1.0,
    seed: int = 0,
    apply_loss: bool = True,
) -> DelayTrace:
    """Synthesise the observed heartbeat delays of an accuracy run.

    ``count`` heartbeats are sent at ``i * eta``; each surviving one
    contributes its sampled delay, in send order — the ``obs`` list of the
    paper.  (Arrival-order inversions affect the list order only within
    adjacent entries on this path; the paper makes the same approximation
    by indexing ``obs`` by reception.)
    """
    if profile is None:
        profile = get_profile("italy-japan")
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    streams = RandomStreams(seed)
    delay_model = profile.build_delay_model(streams, "accuracy")
    loss_model = profile.build_loss_model(streams, "accuracy")
    sends = np.arange(count) * eta
    if apply_loss:
        # Loss and delay draw from separate streams, so drawing every
        # loss first moves no delay.
        sends = sends[~loss_model.drops_many(sends)]
    return DelayTrace(delay_model.sample_many(sends))


def predictor_accuracy(
    trace: DelayTrace,
    predictor_names: Sequence[str] = PREDICTOR_NAMES,
    *,
    warmup: int = 1,
) -> Dict[str, float]:
    """``msqerr`` of each predictor over the trace (seconds², see note).

    Returned values are in **seconds squared**; multiply by ``1e6`` for the
    paper's ms² scale (its Table 3 header says msec but the quantity is a
    squared error).
    """
    results: Dict[str, float] = {}
    for name in predictor_names:
        predictor = make_predictor(name)
        msqerr, _ = evaluate_forecaster(predictor, trace.delays, warmup=warmup)
        results[name] = msqerr
    return results


def rank_predictors(accuracy: Dict[str, float]) -> List[Tuple[str, float]]:
    """Predictors sorted most-accurate first (smallest ``msqerr``)."""
    return sorted(accuracy.items(), key=lambda item: item[1])


__all__ = ["collect_delay_trace", "predictor_accuracy", "rank_predictors"]
