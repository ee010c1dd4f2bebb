"""Finding and suppression records produced by the analyzer.

A :class:`Finding` pins one invariant violation to a ``file:line``
location, names the rule that produced it and suggests a fix.  A
:class:`Suppression` records one *applied* ``# fdlint: disable=`` pragma
together with its written justification, so the engine (and the tier-1
self-check) can prove that every silenced finding was silenced for a
stated reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Rule severities, most severe first.  Everything the repo ships today
#: is an ``error`` — the rules encode invariants, not style.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    code: str
    severity: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """The one-line text form (``--format text``)."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} {self.rule}: {self.message}"
        )
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text


@dataclass(frozen=True)
class Suppression:
    """One pragma that silenced at least one finding."""

    path: str
    line: int
    rules: Tuple[str, ...]
    justification: str
    suppressed: Tuple[Finding, ...] = field(default=())

    @property
    def justified(self) -> bool:
        """Whether the pragma carried a non-empty written reason."""
        return bool(self.justification.strip())


__all__ = ["Finding", "SEVERITIES", "Suppression"]
