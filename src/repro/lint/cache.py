"""Incremental lint cache: per-file records keyed by content hash.

A warm ``repro lint src`` should not re-parse 100 unchanged files.  The
cache stores, per source file, its record: the per-file rules' raw
(unsuppressed) findings and its
:class:`~repro.lint.project.ModuleSummary`, both as
:func:`dataclasses.asdict` JSON — everything the engine needs to skip
the parse *and* still run the project-wide and suppression passes
(which re-link the cached summaries every run, so doc/reference edits
are always picked up without any staleness logic).

Keys are ``sha256(salt + path + sha256(content))``:

* the **salt** folds in the cache format version, the content of every
  module in ``repro.lint`` itself, the :class:`LintConfig` repr and the
  select/ignore sets — editing a rule, the policy or the selection
  invalidates everything at once, with no manual cache-busting;
* the **content hash** means touching a file's mtime alone stays warm,
  while any byte change misses.

Entries are one JSON file each under the cache directory (default
``.repro-lint-cache/`` in the working directory), written atomically
via temp-file + :func:`os.replace`; a corrupt or unreadable entry is
treated as a miss.  The cache is opt-in at the library level
(``lint_paths(..., cache_dir=...)``) and on by default in the CLI with
a ``--no-cache`` escape hatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from repro.lint import rules as rules_package
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary, load_summary

#: Bump to invalidate every existing cache entry.
CACHE_VERSION = 2

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def _lint_package_digest() -> str:
    """Hash of the analyzer's own sources (rules included)."""
    digest = hashlib.sha256()
    package_dir = os.path.dirname(os.path.abspath(__file__))
    for directory in (package_dir, os.path.join(package_dir, "rules")):
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode())
            try:
                with open(
                    os.path.join(directory, name), "rb"
                ) as handle:
                    digest.update(handle.read())
            except OSError:
                digest.update(b"<unreadable>")
    # rules discovered from an overridden package path (tests) also salt
    digest.update(";".join(sorted(rules_package.__path__)).encode())
    return digest.hexdigest()


class LintCache:
    """Content-addressed store of per-file lint results."""

    def __init__(
        self,
        cache_dir: str,
        config: LintConfig,
        select: Optional[Sequence[str]],
        ignore: Sequence[str],
    ) -> None:
        self.cache_dir = cache_dir
        salt = hashlib.sha256()
        salt.update(f"v{CACHE_VERSION}".encode())
        salt.update(_lint_package_digest().encode())
        salt.update(repr(config).encode())
        salt.update(b"-" if select is None else repr(sorted(select)).encode())
        salt.update(repr(sorted(ignore)).encode())
        self.salt = salt.hexdigest()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _entry_path(self, path: str, source: str) -> str:
        key = hashlib.sha256()
        key.update(self.salt.encode())
        key.update(path.encode())
        key.update(hashlib.sha256(source.encode()).hexdigest().encode())
        return os.path.join(self.cache_dir, key.hexdigest() + ".json")

    def get(
        self, path: str, source: str
    ) -> Optional[Tuple[List[Finding], Optional[ModuleSummary]]]:
        """The cached record for this exact content, or ``None``."""
        try:
            with open(
                self._entry_path(path, source), "r", encoding="utf-8"
            ) as handle:
                data = json.load(handle)
            findings = [Finding(**f) for f in data["findings"]]
            summary = data["summary"]
            if summary is not None:
                summary = load_summary(summary)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, summary

    def put(
        self,
        path: str,
        source: str,
        findings: Sequence[Finding],
        summary: Optional[ModuleSummary],
    ) -> None:
        """Record a freshly-computed record; failures are silent."""
        document = {
            "findings": [asdict(f) for f in findings],
            "summary": None if summary is None else asdict(summary),
        }
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, separators=(",", ":"))
            os.replace(temp_path, self._entry_path(path, source))
        except OSError:
            pass


__all__ = ["CACHE_VERSION", "DEFAULT_CACHE_DIR", "LintCache"]
