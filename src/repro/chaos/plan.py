"""Fault plans: typed, seeded, serialisable chaos scenario timelines.

A :class:`FaultPlan` is a declarative timeline of :class:`FaultEvent`
windows — partitions, loss bursts, duplication, reordering, payload
corruption/truncation, delay spikes, clock skew, process pauses — plus a
seed.  The plan is *pure data*: every random decision taken while
executing it is derived from ``(plan.seed, source, destination)`` and the
per-pair datagram order by :class:`repro.chaos.engine.ChaosEngine`, so
the same plan JSON replays identically against the discrete-event
simulator and (modulo real-network nondeterminism in the underlying
traffic) against the live UDP loopback path.

A plan is written as ``FaultPlan(events=[FaultEvent(...), ...],
seed=...)`` or read back with :meth:`FaultPlan.from_json` /
:meth:`FaultPlan.load`; ``repro chaos --plan`` replays one from a file.
The ADD-channel generator (:func:`add_channel_plan`) produces the
worst-case adversary family of Kumar & Welch: before a stabilization
time the channel may behave arbitrarily badly (unbounded delay spikes,
near-total loss bursts); after it, delay and loss are bounded.  It is a
first-class scenario family because ◇P-style detectors are exactly the
ones that must survive it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Every fault family the engine understands, and what ``magnitude``,
#: ``rate`` and ``copies`` mean for each (see docs/robustness.md).
FAULT_KINDS = (
    "partition",    # matched datagrams dropped (rate = drop probability)
    "loss-burst",   # like partition but conventionally rate < 1
    "duplicate",    # matched datagrams transmitted `copies` times
    "reorder",      # extra delay ~ U(0, magnitude) forces overtaking
    "corrupt",      # payload bytes flipped; undecodable results are dropped
    "truncate",     # payload cut to a random prefix
    "delay-spike",  # extra delay of exactly `magnitude` seconds
    "clock-skew",   # sender timestamp shifted by `magnitude` seconds
    "pause",        # process stops: outbound dropped, inbound held to end
)

WILDCARD = "*"


@dataclass(frozen=True)
class FaultEvent:
    """One fault window on the plan timeline.

    ``source``/``destination`` select traffic by ordered pair; ``"*"``
    matches any process.  A ``pause`` event names the paused process in
    ``source`` and matches traffic in *both* directions.  Times are in
    plan-relative seconds (the engine anchors them to a time origin at
    attach).
    """

    kind: str
    start: float
    end: float
    source: str = WILDCARD
    destination: str = WILDCARD
    rate: float = 1.0
    magnitude: float = 0.0
    copies: int = 2
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        for label in ("start", "end", "magnitude"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"fault {label} must be finite, got {value!r}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start!r}")
        if not self.end > self.start:
            raise ValueError(
                f"fault window must be non-empty: start={self.start!r} end={self.end!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude!r}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies!r}")

    def active(self, rel_now: float) -> bool:
        """Whether this window covers plan-relative time ``rel_now``."""
        return self.start <= rel_now < self.end

    def matches(self, source: str, destination: str) -> bool:
        """Whether this event selects the ordered traffic pair."""
        if self.kind == "pause":
            return source == self.source or destination == self.source
        return (self.source in (WILDCARD, source)) and (
            self.destination in (WILDCARD, destination)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "source": self.source,
            "destination": self.destination,
            "rate": self.rate,
            "magnitude": self.magnitude,
            "copies": self.copies,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        if not isinstance(data, dict) or not {"kind", "start", "end"} <= data.keys():
            raise ValueError(f"a fault event needs kind, start and end, got {data!r}")
        return cls(
            kind=str(data["kind"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            source=str(data.get("source", WILDCARD)),
            destination=str(data.get("destination", WILDCARD)),
            rate=float(data.get("rate", 1.0)),  # type: ignore[arg-type]
            magnitude=float(data.get("magnitude", 0.0)),  # type: ignore[arg-type]
            copies=int(data.get("copies", 2)),  # type: ignore[arg-type]
            note=str(data.get("note", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded timeline of fault events.

    The plan is immutable; :meth:`from_json` / :meth:`load` read one back.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = "chaos"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

    @property
    def horizon(self) -> float:
        """Latest event end time (0 for an empty plan)."""
        return max((event.end for event in self.events), default=0.0)

    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan under a different seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError("fault plan 'events' must be a list")
        return cls(
            events=tuple(FaultEvent.from_dict(item) for item in events),
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            name=str(data.get("name", "chaos")),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def add_channel_plan(
    *,
    seed: int = 0,
    stabilization_time: float = 60.0,
    horizon: float = 120.0,
    source: str = WILDCARD,
    destination: str = WILDCARD,
    max_delay_spike: float = 8.0,
    bounded_delay: float = 0.25,
    bounded_loss_rate: float = 0.05,
    name: str = "add-channel",
) -> FaultPlan:
    """Generate an ADD-channel adversary scenario (Kumar & Welch).

    Before ``stabilization_time`` the channel is adversarial: a seeded
    sequence of near-total loss bursts and delay spikes whose magnitude
    grows toward ``max_delay_spike`` (unbounded-*looking* behaviour over
    a finite prefix).  From ``stabilization_time`` to ``horizon`` the
    channel is bounded: delay spikes never exceed ``bounded_delay`` and
    loss never exceeds ``bounded_loss_rate`` — the "eventually ADD"
    property that ◇P detectors must exploit to re-trust.
    """
    if not 0 < stabilization_time < horizon:
        raise ValueError(
            "need 0 < stabilization_time < horizon, got "
            f"{stabilization_time!r} / {horizon!r}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pair = dict(source=source, destination=destination)
    events: List[FaultEvent] = []
    # Adversarial prefix: alternating loss bursts and growing delay spikes.
    cursor = float(rng.uniform(0.0, stabilization_time * 0.1))
    spike_index = 0
    while cursor < stabilization_time:
        width = float(rng.uniform(0.05, 0.2)) * stabilization_time
        end = min(cursor + width, stabilization_time)
        if end <= cursor:
            break
        if rng.random() < 0.5:
            events.append(FaultEvent(
                "loss-burst", cursor, end, rate=float(rng.uniform(0.7, 1.0)),
                note="adversarial loss burst", **pair,
            ))
        else:
            spike_index += 1
            # Successive spikes grow: no bound holds before stabilization.
            magnitude = float(
                rng.uniform(0.3, 1.0) * max_delay_spike * min(1.0, spike_index / 3.0)
            )
            events.append(FaultEvent(
                "delay-spike", cursor, end, magnitude=max(magnitude, bounded_delay),
                note="adversarial delay spike", **pair,
            ))
        cursor = end + float(rng.uniform(0.02, 0.1)) * stabilization_time
    # Bounded suffix: mild, bounded loss and delay until the horizon.
    events.append(FaultEvent(
        "loss-burst", stabilization_time, horizon, rate=bounded_loss_rate,
        note="bounded residual loss", **pair,
    ))
    events.append(FaultEvent(
        "delay-spike", stabilization_time, horizon, rate=0.25,
        magnitude=bounded_delay, note="bounded residual delay", **pair,
    ))
    events.sort(key=lambda e: (e.start, e.end, e.kind))
    return FaultPlan(events=events, seed=seed, name=name)


__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "WILDCARD",
    "add_channel_plan",
]
