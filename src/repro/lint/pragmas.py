"""Inline suppression pragmas: ``# fdlint: disable=<rules>  (reason)``.

A pragma names one or more rules (by slug or ``FDLnnn`` code, comma
separated, or ``all``) and *must* carry a justification in parentheses —
an unjustified pragma does not suppress anything and is itself reported
by the engine's ``unjustified-suppression`` meta-rule.  Placement:

* trailing on the offending line;
* alone on the line directly above it; or
* trailing on a ``def`` / ``class`` / ``with`` header line, in which
  case it covers the whole (lexical) body of that block — used to keep
  a bounded choke point (e.g. a rotation routine) to one pragma.

Pragmas are extracted with :mod:`tokenize` so strings that merely
*mention* the marker are never parsed as pragmas.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Tuple

_PRAGMA_RE = re.compile(
    r"#\s*fdlint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"(?:\s*\((?P<reason>.*)\))?\s*$"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed ``fdlint: disable`` comment."""

    line: int
    rules: Tuple[str, ...]
    justification: str
    own_line: bool

    @property
    def justified(self) -> bool:
        """Whether the pragma carries a non-empty written reason."""
        return bool(self.justification.strip())

    def covers(self, rule: str, code: str) -> bool:
        """Whether this pragma names ``rule`` (slug, code, or ``all``)."""
        return any(r in ("all", rule, code) for r in self.rules)


def parse_pragmas(source: str) -> Dict[int, Pragma]:
    """Extract pragmas from ``source``, keyed by their own line number.

    Unreadable sources (tokenize errors) yield no pragmas — the engine
    reports the syntax error separately.
    """
    pragmas: Dict[int, Pragma] = {}
    if "fdlint" not in source:
        return pragmas  # most files: skip the tokenizer
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(token.string)
        if match is None:
            continue
        rules = tuple(
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        if not rules:
            continue
        line = token.start[0]
        own_line = token.line[: token.start[1]].strip() == ""
        pragmas[line] = Pragma(
            line=line,
            rules=rules,
            justification=(match.group("reason") or "").strip(),
            own_line=own_line,
        )
    return pragmas


__all__ = ["Pragma", "parse_pragmas"]
