"""NekoStat-equivalent quantitative evaluation substrate.

NekoStat (Falai's add-on to Neko) turns *distributed events* into
*quantities of interest*.  This package reproduces that pipeline:

1. layers emit typed :class:`~repro.nekostat.events.StatEvent` records
   (``Sent``, ``Received``, ``StartSuspect``, ``EndSuspect``, ``Crash``,
   ``Restore``) into an :class:`~repro.nekostat.log.EventLog`;
2. :func:`~repro.nekostat.metrics.extract_qos` — the paper's
   ``FD_StatHandler`` — parses the log into intervals that
   :func:`~repro.nekostat.metrics.qos_from_suspicion_arrays`, the one
   batch extractor, sweeps into ``T_D``, ``T_M``, ``T_MR`` per detector;
3. :mod:`repro.nekostat.stats` summarises samples with means, extrema and
   Student-t confidence intervals.

Metrics are computed only from events, never from detector internals, so
any new detector is evaluated by the same unmodified code.
"""

from repro.nekostat.events import EventKind, StatEvent
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import (
    DetectorQos,
    MistakeInterval,
    OnlineQosAccumulator,
    extract_qos,
    query_accuracy,
)
from repro.nekostat.stats import (
    SummaryStats,
    Welford,
    mean_squared_error,
    normal_quantile,
    summarize,
)

__all__ = [
    "DetectorQos",
    "EventKind",
    "EventLog",
    "MistakeInterval",
    "OnlineQosAccumulator",
    "StatEvent",
    "SummaryStats",
    "Welford",
    "extract_qos",
    "mean_squared_error",
    "normal_quantile",
    "query_accuracy",
    "summarize",
]
