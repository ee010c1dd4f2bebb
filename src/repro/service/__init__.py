"""Live fleet-monitoring service: the reproduction's online runtime mode.

The batch paths (discrete-event campaigns, trace replay) answer "what QoS
*would* these detectors have?".  This package answers "what QoS are they
delivering *right now*": a long-running :class:`MonitorDaemon` watches an
arbitrary fleet of heartbeat endpoints over real UDP datagrams (same wire
format as :mod:`repro.net.udp`), runs the full thirty-combination
:class:`~repro.fd.bank.DetectorBank` per endpoint so every
(predictor, margin) pair sees identical live traffic, and keeps streaming
:class:`~repro.nekostat.metrics.OnlineQosAccumulator` state per detector
— T_D, T_M, T_MR and P_A so far, updated on every transition.  Metrics
are exported in Prometheus text format and as JSON over a local HTTP
endpoint, which also accepts runtime endpoint add/remove.

The sending side is :class:`HeartbeatFleet`: the simulator's
``Heartbeater`` over :class:`LiveCrash` (SimCrash that announces its
crashes to the monitor) on a UDP network backend, so end-to-end
detection time is measurable on a real network.  ``repro serve-monitor``
and ``repro serve-heartbeat`` expose both over the CLI.
"""

from repro.service.daemon import MonitorDaemon
from repro.service.exporter import render_prometheus, render_status
from repro.service.heartbeat import HeartbeatFleet, LiveCrash
from repro.service.http import MetricsHttpServer
from repro.service.registry import EndpointMonitor, EndpointRegistry
from repro.service.runtime import AsyncioScheduler, BoundedEventLog

__all__ = [
    "AsyncioScheduler",
    "BoundedEventLog",
    "EndpointMonitor",
    "EndpointRegistry",
    "HeartbeatFleet",
    "LiveCrash",
    "MetricsHttpServer",
    "MonitorDaemon",
    "render_prometheus",
    "render_status",
]
