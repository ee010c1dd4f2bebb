"""Workload description for the closed-loop KV clients.

A :class:`WorkloadSpec` is the seeded-workload contract shared by the
clients (:mod:`repro.kv.client`) and the sweep layer: a read/write mix
over a shared key space, paced by a think time, with a per-operation
timeout and a bounded retry budget.  All randomness is drawn from named
:class:`~repro.sim.random.RandomStreams` generators, so the same seed
always produces the same operation sequence — the property the
byte-stability test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class WorkloadSpec:
    """The knobs of one client population's traffic.

    Parameters
    ----------
    read_fraction:
        Probability that an operation is a GET (the rest are SETs).
    key_space:
        Number of distinct keys, shared by every client.
    think_time:
        Mean pause between an operation completing and the next one
        starting, seconds (jittered uniformly in ``[0.5, 1.5]×``).
    op_timeout:
        How long a client waits for a reply before retrying against the
        next replica, seconds.
    max_retries:
        Retry budget per operation; once exhausted the operation is
        recorded as failed (a user-visible error).
    """

    read_fraction: float = 0.7
    key_space: int = 16
    think_time: float = 0.2
    op_timeout: float = 1.0
    max_retries: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction!r}"
            )
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {self.key_space!r}")
        if self.think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {self.think_time!r}")
        if self.op_timeout <= 0:
            raise ValueError(f"op_timeout must be > 0, got {self.op_timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")

    def keys(self) -> List[str]:
        """The shared key space."""
        return [f"k{index}" for index in range(self.key_space)]

    def choose_op(self, rng: np.random.Generator) -> str:
        """Draw the next operation kind: ``"get"`` or ``"set"``."""
        return "get" if float(rng.random()) < self.read_fraction else "set"

    def choose_key(self, rng: np.random.Generator) -> str:
        """Draw the key the next operation targets."""
        return f"k{int(rng.integers(0, self.key_space))}"

    def next_think(self, rng: np.random.Generator) -> float:
        """Draw the pause before the next operation."""
        if self.think_time <= 0:
            return 0.0
        return self.think_time * float(rng.uniform(0.5, 1.5))


__all__ = ["WorkloadSpec"]
