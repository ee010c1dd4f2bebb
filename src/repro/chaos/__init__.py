"""repro.chaos — deterministic fault injection for sim and live paths.

See docs/robustness.md for the scenario DSL, the fault taxonomy, and the
invariant suite this subsystem backs.
"""

from repro.chaos.engine import ChaosEngine, ChaosStats, Decision
from repro.chaos.link import ChaosLink, install_chaos, uninstall_chaos
from repro.chaos.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanBuilder,
    WILDCARD,
    add_channel_plan,
    plan_from_spec,
)
from repro.chaos.runner import (
    run_daemon_scenario,
    run_daemon_scenario_async,
    run_kv_scenario,
    run_sim_scenario,
)
from repro.chaos.shim import ChaosIntake, attach_backend

__all__ = [
    "FAULT_KINDS",
    "WILDCARD",
    "ChaosEngine",
    "ChaosIntake",
    "ChaosLink",
    "ChaosStats",
    "Decision",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanBuilder",
    "add_channel_plan",
    "attach_backend",
    "install_chaos",
    "plan_from_spec",
    "run_daemon_scenario",
    "run_daemon_scenario_async",
    "run_kv_scenario",
    "run_sim_scenario",
]
