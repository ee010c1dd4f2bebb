"""Experiment configuration objects.

Neko drives executions from a configuration file; here the equivalent is a
frozen dataclass.  :class:`ExperimentConfig` captures the paper's Table 5
parameters (and defaults to them) plus the knobs this reproduction adds:
the network profile, the seed, and the clock-error model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one failure-detector QoS experiment run.

    Defaults reproduce the paper's Table 5:

    ==============  =======================================
    ``num_cycles``  100 000 heartbeat cycles per run
    ``mttc``        300 s mean time to crash
    ``ttr``         30 s time to repair (constant)
    ``eta``         1 s heartbeat sending period
    ==============  =======================================

    With these values each run injects roughly
    ``num_cycles * eta / (mttc + ttr) ≈ 300`` crashes; the paper used 13
    runs collecting ≥ 30 ``T_D`` samples each.  ``num_cycles`` can be
    reduced for faster runs (the benchmarks do).
    """

    num_cycles: int = 100_000
    mttc: float = 300.0
    ttr: float = 30.0
    eta: float = 1.0
    profile_name: str = "italy-japan"
    seed: int = 0
    run_id: int = 0
    clock_offset: float = 0.0
    clock_drift: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_cycles <= 0:
            raise ValueError(f"num_cycles must be > 0, got {self.num_cycles}")
        if self.mttc <= 0:
            raise ValueError(f"mttc must be > 0, got {self.mttc}")
        if self.ttr < 0:
            raise ValueError(f"ttr must be >= 0, got {self.ttr}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")

    @property
    def duration(self) -> float:
        """Total virtual duration of the run, in seconds."""
        return self.num_cycles * self.eta

    @property
    def initial_timeout(self) -> float:
        """The detectors' time-out before the first heartbeat:
        ``extras["initial_timeout"]`` when set, else ``10 * eta``."""
        return self.extras.get("initial_timeout", 10.0 * self.eta)

    @property
    def expected_crashes(self) -> float:
        """Expected number of injected crashes in the run."""
        return self.duration / (self.mttc + self.ttr)

    def with_run(self, run_id: int) -> "ExperimentConfig":
        """Derive the config of the ``run_id``-th repetition.

        Each repetition gets an independent seed derived from the base
        seed, mirroring the paper's 13 independent runs.
        """
        return replace(self, run_id=run_id, seed=self.seed + 1_000_003 * run_id)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"run={self.run_id} cycles={self.num_cycles} eta={self.eta}s "
            f"MTTC={self.mttc}s TTR={self.ttr}s profile={self.profile_name} "
            f"seed={self.seed}"
        )


__all__ = ["ExperimentConfig"]
