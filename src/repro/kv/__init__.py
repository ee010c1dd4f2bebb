"""`repro.kv` — a replicated KV service with FD-driven failover.

The first *application* built on the reproduction's detector stack: a
primary/backup GET/SET store whose failover decisions come from the
paper's failure-detector combinations, measured by the QoS users
actually see (unavailability windows, failed and stale reads, write
loss) next to the raw detector metrics (T_D, T_M).

Modules
-------
``store``
    Monotonic ``(epoch, seq)``-versioned key-value state.
``node``
    The primary/backup replica state machine (transport-agnostic core
    plus the simulation layer adapter).
``failover``
    Sticky-leadership election over detector suspect/trust transitions.
``client`` / ``workload``
    Seeded closed-loop clients with retry/redirect, and their traffic
    specification.
``metrics``
    User-visible QoS extraction (:class:`~repro.kv.metrics.KvRunSummary`).
``sim``
    One cluster builder for a simulated or a real UDP network
    (:func:`~repro.kv.sim.build_kv_cluster`), and deterministic
    end-to-end runs on the simulated WAN
    (:func:`~repro.kv.sim.run_kv_sim`).
"""

from repro.kv.client import KvClientLayer, OpRecord
from repro.kv.failover import FailoverControllerLayer, FailoverState, ViewChange
from repro.kv.metrics import KvRunSummary, compute_summary
from repro.kv.node import KvNodeCore, KvNodeLayer
from repro.kv.sim import (
    KvCluster,
    KvSimConfig,
    KvSimResult,
    build_kv_cluster,
    run_kv_sim,
)
from repro.kv.store import Version, VersionedStore
from repro.kv.workload import WorkloadSpec

__all__ = [
    "FailoverControllerLayer",
    "FailoverState",
    "KvClientLayer",
    "KvCluster",
    "KvNodeCore",
    "KvNodeLayer",
    "KvRunSummary",
    "KvSimConfig",
    "KvSimResult",
    "OpRecord",
    "Version",
    "VersionedStore",
    "ViewChange",
    "WorkloadSpec",
    "build_kv_cluster",
    "compute_summary",
    "run_kv_sim",
]
