"""The datagram model shared by simulated and real network backends."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


_UID = itertools.count(1)


@dataclass(frozen=True)
class Datagram:
    """An immutable network message.

    A datagram carries an opaque ``payload`` plus the addressing metadata
    the framework needs.  ``uid`` is unique per datagram so links can drop
    or reorder without ambiguity, and the statistics layer can pair ``Sent``
    and ``Received`` events.

    ``kind`` is a short protocol tag (``"heartbeat"``, ``"pull-request"``,
    …) that lets multiplexing layers dispatch without inspecting payloads.
    """

    source: str
    destination: str
    kind: str
    payload: Any = None
    seq: Optional[int] = None
    timestamp: Optional[float] = None
    uid: int = field(default_factory=_UID.__next__)

    def reply(self, kind: str, payload: Any = None, *, seq: Optional[int] = None,
              timestamp: Optional[float] = None) -> "Datagram":
        """Build a datagram going back to this one's source."""
        return Datagram(
            source=self.destination,
            destination=self.source,
            kind=kind,
            payload=payload,
            seq=seq,
            timestamp=timestamp,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.source}->{self.destination}", self.kind]
        if self.seq is not None:
            parts.append(f"seq={self.seq}")
        return f"Datagram({', '.join(parts)}, uid={self.uid})"


__all__ = ["Datagram"]
