"""Metrics rendering: Prometheus text format and JSON status.

Renders the daemon's per-endpoint, per-detector streaming QoS into the
Prometheus 0.0.4 text exposition format (``# HELP``/``# TYPE`` headers,
one sample line per labelled series) and into a JSON-able status
document.  Metric names follow the paper's vocabulary:

===========================================  ================================
metric                                       meaning
===========================================  ================================
``fd_qos_detection_time_seconds``            mean ``T_D`` so far
``fd_qos_detection_time_max_seconds``        ``T_D^U`` so far
``fd_qos_mistake_duration_seconds``          mean ``T_M`` so far
``fd_qos_mistake_recurrence_seconds``        mean ``T_MR`` so far
``fd_qos_query_accuracy_probability``        ``P_A`` so far
``fd_qos_mistakes_total``                    mistake count
``fd_qos_undetected_crashes_total``          crashes with no permanent
                                             suspicion
``fd_suspecting``                            current verdict (0/1)
``fd_detection_latency_seconds``             histogram of ``T_D`` samples
``fd_mistake_length_seconds``                summary of mistake durations
===========================================  ================================

All QoS series carry ``endpoint`` and ``detector`` labels; series with no
sample yet are emitted as ``NaN`` (the Prometheus convention for "no
observation", distinguishable from a legitimate zero).

Two render paths share this vocabulary:

* :func:`render_prometheus` — the original stateless full render of a
  status document (kept as the equivalence baseline and for one-shot
  exports);
* :class:`IncrementalExporter` — the daemon's scrape path.  Every
  ``(endpoint, detector)`` series block is rendered lazily and cached;
  a detector transition (or crash/restore) marks exactly that block
  dirty, and the fully assembled QoS body is itself cached between
  transitions.  A no-change scrape therefore costs the small volatile
  head (service counters, per-endpoint liveness, meta-metrics) plus one
  string concatenation — measured ≥10x cheaper than the full render at
  50 endpoints x 30 detectors (``scripts/bench_obs.py``).  Between
  transitions the cached QoS values are exact as of the last transition
  (open intervals are closed there, not at scrape time); ``/status``
  remains the scrape-time-precise view.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.service.daemon import MonitorDaemon

from repro.nekostat.metrics import DetectorQos, query_accuracy

_QOS_GAUGES = (
    (
        "fd_qos_detection_time_seconds",
        "Mean detection time T_D observed so far",
    ),
    (
        "fd_qos_detection_time_max_seconds",
        "Maximum detection time T_D^U observed so far",
    ),
    (
        "fd_qos_mistake_duration_seconds",
        "Mean mistake duration T_M observed so far",
    ),
    (
        "fd_qos_mistake_recurrence_seconds",
        "Mean mistake recurrence time T_MR observed so far",
    ),
    (
        "fd_qos_query_accuracy_probability",
        "Query accuracy probability P_A so far",
    ),
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    return repr(float(value))


def _qos_values(qos: DetectorQos) -> Dict[str, Optional[float]]:
    t_d = qos.t_d
    t_m = qos.t_m
    t_mr = qos.t_mr
    return {
        "fd_qos_detection_time_seconds": t_d.mean if t_d else None,
        "fd_qos_detection_time_max_seconds": qos.t_d_upper,
        "fd_qos_mistake_duration_seconds": t_m.mean if t_m else None,
        "fd_qos_mistake_recurrence_seconds": t_mr.mean if t_mr else None,
        "fd_qos_query_accuracy_probability": query_accuracy(t_m, t_mr),
    }


def render_prometheus(status: Dict[str, Any]) -> str:
    """Render a :func:`repro.service.daemon.MonitorDaemon.status` document
    as Prometheus text exposition format."""
    lines: List[str] = []

    def gauge(name: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")

    def counter(name: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")

    gauge("fd_service_uptime_seconds", "Daemon uptime")
    lines.append(
        f"fd_service_uptime_seconds {_format_value(status['uptime_seconds'])}"
    )
    gauge("fd_service_endpoints", "Registered heartbeat endpoints")
    lines.append(f"fd_service_endpoints {len(status['endpoints'])}")
    counter("fd_service_heartbeats_total", "Heartbeats received by the daemon")
    lines.append(f"fd_service_heartbeats_total {status['heartbeats_total']}")
    counter(
        "fd_service_dropped_datagrams_total",
        "Datagrams dropped (malformed, unknown endpoint, unknown kind)",
    )
    lines.append(
        f"fd_service_dropped_datagrams_total {status['dropped_datagrams_total']}"
    )

    endpoints: Dict[str, Any] = status["endpoints"]

    counter("fd_endpoint_heartbeats_total", "Heartbeats received per endpoint")
    for name in sorted(endpoints):
        label = _escape_label(name)
        lines.append(
            f'fd_endpoint_heartbeats_total{{endpoint="{label}"}} '
            f"{endpoints[name]['heartbeats']}"
        )
    gauge("fd_endpoint_crashed", "Whether the endpoint is currently crashed")
    for name in sorted(endpoints):
        label = _escape_label(name)
        lines.append(
            f'fd_endpoint_crashed{{endpoint="{label}"}} '
            f"{1 if endpoints[name]['crashed'] else 0}"
        )

    for metric, help_text in _QOS_GAUGES:
        gauge(metric, help_text)
        for name in sorted(endpoints):
            label = _escape_label(name)
            for detector_id in sorted(endpoints[name]["detectors"]):
                entry = endpoints[name]["detectors"][detector_id]
                value = entry[metric]
                lines.append(
                    f'{metric}{{endpoint="{label}",'
                    f'detector="{_escape_label(detector_id)}"}} '
                    f"{_format_value(value)}"
                )

    counter("fd_qos_mistakes_total", "Mistakes (erroneous suspicions) so far")
    counter(
        "fd_qos_undetected_crashes_total",
        "Crashes with no permanent suspicion",
    )
    gauge("fd_suspecting", "Current detector verdict (1 = suspecting)")
    for metric in (
        "fd_qos_mistakes_total",
        "fd_qos_undetected_crashes_total",
        "fd_suspecting",
    ):
        for name in sorted(endpoints):
            label = _escape_label(name)
            for detector_id in sorted(endpoints[name]["detectors"]):
                entry = endpoints[name]["detectors"][detector_id]
                lines.append(
                    f'{metric}{{endpoint="{label}",'
                    f'detector="{_escape_label(detector_id)}"}} '
                    f"{entry[metric]}"
                )
    return "\n".join(lines) + "\n"


def render_status(
    *,
    uptime_seconds: float,
    heartbeats_total: int,
    dropped_datagrams_total: int,
    endpoints: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble the JSON-able status document shared by ``/status`` and
    :func:`render_prometheus`.

    ``endpoints`` maps endpoint name to a dict with ``heartbeats``,
    ``crashes``, ``crashed``, and per-detector ``(DetectorQos,
    suspecting)`` pairs under ``qos``.
    """
    rendered: Dict[str, Any] = {}
    for name, info in endpoints.items():
        detectors: Dict[str, Any] = {}
        for detector_id, (qos, suspecting) in info["qos"].items():
            entry: Dict[str, Any] = dict(_qos_values(qos))
            entry["fd_qos_mistakes_total"] = len(qos.mistakes)
            entry["fd_qos_undetected_crashes_total"] = qos.undetected_crashes
            entry["fd_suspecting"] = 1 if suspecting else 0
            entry["detection_samples"] = len(qos.td_samples)
            entry["empirical_p_a"] = qos.empirical_p_a
            detectors[detector_id] = entry
        rendered[name] = {
            "heartbeats": info["heartbeats"],
            "crashes": info["crashes"],
            "crashed": info["crashed"],
            "detectors": detectors,
        }
    return {
        "uptime_seconds": uptime_seconds,
        "heartbeats_total": heartbeats_total,
        "dropped_datagrams_total": dropped_datagrams_total,
        "endpoints": rendered,
    }


#: Cumulative detection-latency histogram buckets (seconds).  Chosen to
#: straddle the paper's WAN regime: sub-second buckets resolve the
#: aggressive margins, the 2.5–10 s buckets the conservative ones.
_TD_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Mistake-duration summary quantiles (nearest-rank).
_TM_QUANTILES = (0.5, 0.9, 0.99)

#: Per-(endpoint, detector) metrics in exposition order: (name, type,
#: help).  Fragment dicts cache one pre-rendered block of sample lines
#: per metric name; assembly walks this list so all samples of a metric
#: stay consecutive, as the Prometheus text format requires.
_BODY_METRICS: Sequence[Tuple[str, str, str]] = tuple(
    [(name, "gauge", help_text) for name, help_text in _QOS_GAUGES]
    + [
        ("fd_qos_mistakes_total", "counter", "Mistakes (erroneous suspicions) so far"),
        (
            "fd_qos_undetected_crashes_total",
            "counter",
            "Crashes with no permanent suspicion",
        ),
        ("fd_suspecting", "gauge", "Current detector verdict (1 = suspecting)"),
        (
            "fd_detection_latency_seconds",
            "histogram",
            "Detection time T_D samples",
        ),
        (
            "fd_mistake_length_seconds",
            "summary",
            "Durations of individual mistakes",
        ),
    ]
)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted non-empty sequence."""
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class IncrementalExporter:
    """Dirty-set-invalidated Prometheus exposition for a running daemon.

    The exporter is registered as a dirty listener on the daemon's
    :class:`~repro.obs.hub.ObservabilityHub`: every detector transition
    marks exactly one ``(endpoint, detector)`` series block dirty, and
    crash/restore/registration events mark one endpoint's blocks dirty.
    Scrapes render:

    * a small *volatile head* — service counters, per-endpoint liveness,
      and recorder/history/exporter meta-metrics — fresh every time
      (O(endpoints));
    * the *QoS body* — all per-(endpoint, detector) series — from cache.
      Only dirty blocks are re-rendered; with no dirty blocks the whole
      assembled body string is reused as-is.

    Cached QoS values are exact as of each accumulator's last transition
    (``snapshot()`` with no argument closes open intervals there); the
    tradeoff versus scrape-time closure is documented in
    ``docs/observability.md``.
    """

    def __init__(self, daemon: "MonitorDaemon") -> None:
        self._daemon = daemon
        self._fragments: Dict[Tuple[str, str], Dict[str, str]] = {}
        self._dirty: Set[Tuple[str, str]] = set()
        self._body: Optional[str] = None
        # Meta-metrics (self-measurement; exposed in the head).
        self.scrapes_total = 0
        self.body_cache_hits_total = 0
        self.series_renders_total = 0
        self.body_assemblies_total = 0

    # ------------------------------------------------------------------
    # Invalidation (ObservabilityHub dirty-listener signature)
    # ------------------------------------------------------------------
    def on_change(self, endpoint: str, detector: str = "") -> None:
        """Mark series stale: one block, or a whole endpoint when
        ``detector`` is empty (crash/restore/registration/removal)."""
        if detector:
            self._dirty.add((endpoint, detector))
            self._body = None
            return
        monitor = self._daemon.registry.get(endpoint)
        if monitor is None:
            for key in [k for k in self._fragments if k[0] == endpoint]:
                del self._fragments[key]
            self._dirty = {k for k in self._dirty if k[0] != endpoint}
        else:
            for detector_id in monitor.accumulators:
                self._dirty.add((endpoint, detector_id))
        self._body = None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """One full Prometheus exposition (head fresh, body cached)."""
        self.scrapes_total += 1
        return self._render_head() + self._render_body()

    def _render_head(self) -> str:
        daemon = self._daemon
        lines: List[str] = []

        def header(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        uptime = max(0.0, daemon.scheduler.now - daemon.started_at)
        header("fd_service_uptime_seconds", "gauge", "Daemon uptime")
        lines.append(f"fd_service_uptime_seconds {_format_value(uptime)}")
        header("fd_service_endpoints", "gauge", "Registered heartbeat endpoints")
        lines.append(f"fd_service_endpoints {len(daemon.registry)}")
        header(
            "fd_service_heartbeats_total",
            "counter",
            "Heartbeats received by the daemon",
        )
        lines.append(f"fd_service_heartbeats_total {daemon.heartbeats_total}")
        header(
            "fd_service_dropped_datagrams_total",
            "counter",
            "Datagrams dropped (malformed, unknown endpoint, unknown kind)",
        )
        lines.append(
            f"fd_service_dropped_datagrams_total {daemon.dropped_datagrams}"
        )
        header(
            "fd_service_inferred_restores_total",
            "counter",
            "Restores inferred from heartbeat resumption (lost restore datagram)",
        )
        lines.append(
            f"fd_service_inferred_restores_total {daemon.inferred_restores_total()}"
        )
        header(
            "fd_service_sent_datagrams_total",
            "counter",
            "Datagrams transmitted over the service socket (peer table)",
        )
        lines.append(f"fd_service_sent_datagrams_total {daemon.sent_datagrams}")
        header(
            "fd_service_send_errors_total",
            "counter",
            "Outbound datagrams that failed with a socket error",
        )
        lines.append(f"fd_service_send_errors_total {daemon.send_errors_total}")
        header(
            "fd_service_shed_datagrams_total",
            "counter",
            "Datagrams shed by the bounded-intake rate limit",
        )
        lines.append(f"fd_service_shed_datagrams_total {daemon.shed_datagrams}")
        history = daemon.obs.history if daemon.obs is not None else None
        degraded = bool(getattr(history, "degraded", False))
        header(
            "fd_service_degraded",
            "gauge",
            "Whether an observability dependency fell back to degraded mode",
        )
        lines.append(f"fd_service_degraded {1 if degraded else 0}")
        header(
            "fd_service_component_restarts_total",
            "counter",
            "Supervised restarts of daemon components (snapshot timer, HTTP)",
        )
        for component in sorted(daemon.component_restarts):
            lines.append(
                "fd_service_component_restarts_total"
                f'{{component="{_escape_label(component)}"}} '
                f"{daemon.component_restarts[component]}"
            )

        # Per-application series: a live KV failover controller, when one
        # is attached (repro.kv.live).
        kv = getattr(daemon, "kv_controller", None)
        if kv is not None:
            kv.render_metrics(lines, header)

        # Profile-drift gauges, when drift monitoring is enabled
        # (repro.obs.drift; values as of the last periodic evaluation).
        drift = getattr(daemon, "drift", None)
        if drift is not None:
            drift.render_metrics(lines, header)

        monitors = sorted(daemon.registry, key=lambda m: m.name)
        header(
            "fd_endpoint_heartbeats_total",
            "counter",
            "Heartbeats received per endpoint",
        )
        for monitor in monitors:
            label = _escape_label(monitor.name)
            lines.append(
                f'fd_endpoint_heartbeats_total{{endpoint="{label}"}} '
                f"{monitor.heartbeats}"
            )
        header(
            "fd_endpoint_crashed",
            "gauge",
            "Whether the endpoint is currently crashed",
        )
        for monitor in monitors:
            label = _escape_label(monitor.name)
            lines.append(
                f'fd_endpoint_crashed{{endpoint="{label}"}} '
                f"{1 if monitor.crashed else 0}"
            )

        self._render_meta(lines, header)
        return "\n".join(lines) + "\n"

    def _render_meta(self, lines: List[str], header: Any) -> None:
        """Observability-of-the-observability: recorder, history and
        exporter self-measurement counters."""
        obs = getattr(self._daemon, "obs", None)
        tracer = obs.tracer if obs is not None else None
        history = obs.history if obs is not None else None
        if tracer is not None:
            stats = tracer.stats()
            header(
                "fd_obs_trace_events_total",
                "counter",
                "Span events emitted by the trace recorder",
            )
            lines.append(f"fd_obs_trace_events_total {stats['events_total']}")
            header(
                "fd_obs_trace_bytes_total",
                "counter",
                "JSONL bytes written by the trace recorder",
            )
            lines.append(f"fd_obs_trace_bytes_total {stats['bytes_total']}")
            header(
                "fd_obs_trace_evicted_total",
                "counter",
                "Events evicted from the in-memory trace ring",
            )
            lines.append(f"fd_obs_trace_evicted_total {stats['evicted_total']}")
            header(
                "fd_obs_trace_write_errors_total",
                "counter",
                "Failed JSONL writes (the recorder went ring-only)",
            )
            lines.append(
                f"fd_obs_trace_write_errors_total {stats['write_errors_total']}"
            )
            header(
                "fd_obs_trace_overhead_seconds_total",
                "counter",
                "Wall-clock seconds spent inside TraceRecorder emission",
            )
            lines.append(
                "fd_obs_trace_overhead_seconds_total "
                f"{_format_value(stats['overhead_seconds'])}"
            )
        if history is not None:
            stats = history.stats()
            header(
                "fd_obs_history_transitions_total",
                "counter",
                "Transitions recorded by the windowed QoS store",
            )
            lines.append(
                f"fd_obs_history_transitions_total {stats['transitions_total']}"
            )
            header(
                "fd_obs_history_snapshots_total",
                "counter",
                "QoS snapshots persisted by the windowed QoS store",
            )
            lines.append(
                f"fd_obs_history_snapshots_total {stats['snapshots_total']}"
            )
        header(
            "fd_metrics_scrapes_total",
            "counter",
            "Scrapes served by the incremental exporter",
        )
        lines.append(f"fd_metrics_scrapes_total {self.scrapes_total}")
        header(
            "fd_metrics_body_cache_hits_total",
            "counter",
            "Scrapes that reused the cached QoS body unchanged",
        )
        lines.append(
            f"fd_metrics_body_cache_hits_total {self.body_cache_hits_total}"
        )
        header(
            "fd_metrics_series_renders_total",
            "counter",
            "Per-(endpoint,detector) series blocks re-rendered",
        )
        lines.append(
            f"fd_metrics_series_renders_total {self.series_renders_total}"
        )

    def _render_body(self) -> str:
        if self._body is not None and not self._dirty:
            self.body_cache_hits_total += 1
            return self._body
        registry = self._daemon.registry
        for endpoint, detector in sorted(self._dirty):
            monitor = registry.get(endpoint)
            if monitor is None or detector not in monitor.accumulators:
                self._fragments.pop((endpoint, detector), None)
                continue
            self._fragments[(endpoint, detector)] = self._render_fragment(
                endpoint, detector, monitor
            )
            self.series_renders_total += 1
        self._dirty.clear()
        lines: List[str] = []
        keys = sorted(self._fragments)
        for metric, kind, help_text in _BODY_METRICS:
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for key in keys:
                lines.append(self._fragments[key][metric])
        self._body = "\n".join(lines) + "\n" if lines else "\n"
        self.body_assemblies_total += 1
        return self._body

    def _render_fragment(
        self, endpoint: str, detector: str, monitor: Any
    ) -> Dict[str, str]:
        """Render every metric line for one (endpoint, detector) series.

        Values come from ``snapshot()`` at the accumulator's last
        transition — exact there, and cacheable because nothing changes
        between transitions.
        """
        accumulator = monitor.accumulators[detector]
        qos: DetectorQos = accumulator.snapshot()
        labels = (
            f'endpoint="{_escape_label(endpoint)}",'
            f'detector="{_escape_label(detector)}"'
        )
        fragment: Dict[str, str] = {}
        for metric, value in _qos_values(qos).items():
            fragment[metric] = f"{metric}{{{labels}}} {_format_value(value)}"
        fragment["fd_qos_mistakes_total"] = (
            f"fd_qos_mistakes_total{{{labels}}} {len(qos.mistakes)}"
        )
        fragment["fd_qos_undetected_crashes_total"] = (
            f"fd_qos_undetected_crashes_total{{{labels}}} {qos.undetected_crashes}"
        )
        fragment["fd_suspecting"] = (
            f"fd_suspecting{{{labels}}} {1 if accumulator.suspecting else 0}"
        )
        fragment["fd_detection_latency_seconds"] = self._render_histogram(
            labels, qos.td_samples
        )
        fragment["fd_mistake_length_seconds"] = self._render_summary(
            labels, [end - start for start, end in qos.mistakes]
        )
        return fragment

    @staticmethod
    def _render_histogram(labels: str, samples: Sequence[float]) -> str:
        ordered = sorted(samples)
        lines: List[str] = []
        count = 0
        index = 0
        for bound in _TD_BUCKETS:
            while index < len(ordered) and ordered[index] <= bound:
                index += 1
            count = index
            lines.append(
                f'fd_detection_latency_seconds_bucket{{{labels},le="{bound}"}} '
                f"{count}"
            )
        lines.append(
            f'fd_detection_latency_seconds_bucket{{{labels},le="+Inf"}} '
            f"{len(ordered)}"
        )
        lines.append(
            f"fd_detection_latency_seconds_sum{{{labels}}} "
            f"{_format_value(math.fsum(ordered))}"
        )
        lines.append(
            f"fd_detection_latency_seconds_count{{{labels}}} {len(ordered)}"
        )
        return "\n".join(lines)

    @staticmethod
    def _render_summary(labels: str, durations: Sequence[float]) -> str:
        ordered = sorted(durations)
        lines: List[str] = []
        for q in _TM_QUANTILES:
            value = _quantile(ordered, q) if ordered else None
            lines.append(
                f'fd_mistake_length_seconds{{{labels},quantile="{q}"}} '
                f"{_format_value(value)}"
            )
        lines.append(
            f"fd_mistake_length_seconds_sum{{{labels}}} "
            f"{_format_value(math.fsum(ordered))}"
        )
        lines.append(f"fd_mistake_length_seconds_count{{{labels}}} {len(ordered)}")
        return "\n".join(lines)


__all__ = ["IncrementalExporter", "render_prometheus", "render_status"]
