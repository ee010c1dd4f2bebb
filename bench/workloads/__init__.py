"""The four workloads and what they share.

A workload is a module with:

``NAME``, ``UNIT``, ``REPETITIONS``
    its name, what one unit of work is, and ``R`` at the nominal
    ``--seconds``;
``prepare(seed, scale, tmp) -> inputs``
    the seeded inputs (part of set-up time); ``inputs.step_ids`` names
    every step of the sequence and ``inputs.units`` counts the work of one
    repetition;
``repetition(inputs, laps) -> out``
    one execution of the whole step sequence, calling ``laps()`` after
    every step;
``fingerprint(inputs, out)``
    what must be identical in every repetition (and equal the golden), or
    ``None`` when the workload's clock is real;
``summary(inputs, out, clean)``
    ``wait_ms``, ``attempted``, ``failed`` and what the record should keep;
``checks(inputs, out)``
    the output checks that run after the timed part;
``layers(inputs, out, traced, clean)``
    the per-layer metrics this workload exercises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from time import perf_counter
from types import ModuleType
from typing import Any, Dict, List, Optional, Tuple

NAMES: Tuple[str, ...] = (
    "campaign_sim",
    "campaign_replay",
    "live_fleet",
    "kv_failover",
)

Check = Tuple[str, bool, str]


def load(name: str) -> ModuleType:
    """The module of workload ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    return importlib.import_module(f"{__name__}.{name}")


class Laps:
    """Times the steps of one repetition.

    ``start()`` sets the reference, every call closes one step, ``stop()``
    ends the timed part (set-up and tear-down sit outside it).  All time
    between ``start()`` and the last call lands in some step, so glue
    between steps is measured too.  With a tracer, every step is the root
    span of whatever the wrapped entry points record inside it.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.times: List[float] = []
        self._tracer = tracer
        self._last = 0.0

    def start(self) -> None:
        self._last = perf_counter()
        if self._tracer is not None:
            self._tracer.open_root(self._last)

    def __call__(self) -> None:
        now = perf_counter()
        self.times.append(now - self._last)
        self._last = now
        if self._tracer is not None:
            self._tracer.close_root(now)
            self._tracer.open_root(now)

    def stop(self) -> None:
        if self._tracer is not None:
            self._tracer.close_root(perf_counter(), timed=False)


def derive_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``labels`` (never on
    ``hash()``, which varies with ``PYTHONHASHSEED``)."""
    text = json.dumps([seed, *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") & 0x7FFFFFFF


def scaled(value: int, scale: float, *, minimum: int = 1, multiple: int = 1) -> int:
    """``value * scale`` rounded to a multiple, never below ``minimum``."""
    units = max(1, round(value * scale / multiple))
    return max(minimum, units * multiple)


def _canonical(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # Ten significant digits: only a real change of a statistic moves
        # the digest, not the last bits of a least-squares fit.
        return float(f"{value:.10g}") if value == value else "nan"
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """sha256 over the canonical JSON of ``value``."""
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def per(total: float, count: float, factor: float = 1.0) -> float:
    """``factor * total / count`` (0 when nothing was counted)."""
    return factor * total / count if count else 0.0


def stats_dict(summary: Optional[Any]) -> Optional[Dict[str, Any]]:
    """A ``SummaryStats`` as a plain dict (``None`` stays ``None``)."""
    return None if summary is None else dataclasses.asdict(summary)
