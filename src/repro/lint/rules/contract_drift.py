"""FDL013 — the code's externally-visible contracts match their docs.

Three surfaces of this repo are *contracts* consumed outside the
process, where silent drift breaks users without failing a unit test:

* **Prometheus metric names** rendered by the exporter tier
  (``service/exporter.py``, ``obs/drift.py``) versus the names
  documented in ``docs/*.md`` and asserted in tests.  A
  renamed gauge breaks every dashboard scraping it.
* **Trace span kinds** emitted through ``TraceRecorder.emit`` /
  ``_emit`` versus the kinds the trace analyzer handles or the
  observability docs list.  An unhandled kind silently vanishes from
  ``repro trace-analyze`` breakdowns.
* **CLI subcommands and flags**: every subcommand must appear in the
  README/docs, and every ``repro <sub> --flag`` shown in docs must name
  a flag the parser actually accepts.

Matching is prefix-tolerant on ``_``-boundaries in both directions
(docs may list a family prefix like ``fd_service_drift_``; code may
render a base name the docs show with a histogram suffix).  Each
sub-check is **gated on its source files being part of the linted set**
— linting a fixture corpus or a single unrelated file never cross-fires
against the repo docs — and skips silently when its reference files are
absent.  Findings anchor at the offending code line (or line 1 of the
relevant source file for doc-side drift) so pragmas and baselines work
exactly like every other rule.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import path_matches
from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary, ProjectContext
from repro.lint.rules.base import ProjectRule

_METRIC_TOKEN = re.compile(r"\bfd_[a-z0-9_]+\b")
_BACKTICK_TOKEN = re.compile(r"`([a-z][a-z0-9-]*)`")
_FLAG_TOKEN = re.compile(r"(--[a-z][a-z0-9-]*)")
_SUBCOMMAND_USE = re.compile(r"\brepro\s+([a-z][a-z0-9-]*)")


def _find_root(project: ProjectContext) -> Optional[str]:
    """The repo root: configured override, or walk up to a ``docs`` dir."""
    override = project.config.contract_root
    if override:
        return override if os.path.isdir(override) else None
    for summary in project.summaries:
        current = os.path.dirname(os.path.abspath(summary.path))
        for _ in range(12):
            if os.path.isdir(os.path.join(current, "docs")):
                return current
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    return None


def _read_text(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def _doc_files(root: str, entries: Sequence[str]) -> List[str]:
    """Expand config doc entries (files or ``dir/``) under ``root``."""
    files: List[str] = []
    for entry in entries:
        full = os.path.join(root, entry.rstrip("/"))
        if entry.endswith("/") and os.path.isdir(full):
            for name in sorted(os.listdir(full)):
                if name.endswith(".md"):
                    files.append(os.path.join(full, name))
        elif os.path.isfile(full):
            files.append(full)
    return files


def _prefix_match(a: str, b: str) -> bool:
    """Symmetric ``_``-boundary prefix match between two metric tokens."""
    if a == b:
        return True
    return a.startswith(b.rstrip("_") + "_") or b.startswith(
        a.rstrip("_") + "_"
    )


class ContractDriftRule(ProjectRule):
    rule = "contract-drift"
    code = "FDL013"
    invariant = (
        "rendered metric names, emitted span kinds and CLI surfaces "
        "match what the docs, analyzer and tests promise"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        root = _find_root(project)
        if root is None:
            return
        yield from self._check_metrics(project, root)
        yield from self._check_spans(project, root)
        yield from self._check_cli(project, root)

    # ------------------------------------------------------------------
    # Prometheus metric names
    # ------------------------------------------------------------------
    def _sources(
        self, project: ProjectContext, entries: Sequence[str]
    ) -> List[ModuleSummary]:
        return [
            s
            for s in project.summaries
            if path_matches(s.rel_path, tuple(entries))
        ]

    def _check_metrics(
        self, project: ProjectContext, root: str
    ) -> Iterator[Finding]:
        config = project.config
        renderers = self._sources(project, config.contract_metric_renderers)
        if not renderers:
            return
        doc_files = _doc_files(root, config.contract_metric_docs)
        if not doc_files:
            return
        documented: Set[str] = set()
        for path in doc_files:
            text = _read_text(path)
            if text is not None:
                documented.update(_METRIC_TOKEN.findall(text))
        # Test assertions count as references (forward direction only):
        # an asserted-but-missing metric already fails its own test, and
        # tests legitimately mention fixture/hypothetical series names,
        # so they must not feed the documented-but-unrendered direction.
        referenced: Set[str] = set(documented)
        tests_dir = os.path.join(root, "tests")
        if os.path.isdir(tests_dir):
            for name in sorted(os.listdir(tests_dir)):
                if not name.endswith(".py"):
                    continue
                text = _read_text(os.path.join(tests_dir, name))
                if text is not None:
                    referenced.update(_METRIC_TOKEN.findall(text))
        rendered: Dict[str, Tuple[str, int]] = {}
        for summary in renderers:
            for line, token in summary.metric_literals:
                rendered.setdefault(token, (summary.path, line))
        for token in sorted(rendered):
            if not any(_prefix_match(token, ref) for ref in referenced):
                path, line = rendered[token]
                yield self.at(
                    path,
                    line,
                    f"metric {token} is rendered here but documented "
                    "nowhere under docs/ (nor asserted in tests)",
                    hint="add the series to the metrics table in docs/ "
                    "(observability.md / service.md / kv.md)",
                )
        # The reverse direction (documented but rendered nowhere) is only
        # meaningful when *every* configured renderer is in the linted
        # set — a single-file lint must not blame one exporter for the
        # whole repo's doc surface.
        if len(renderers) < len(config.contract_metric_renderers):
            return
        anchor = renderers[0]
        for ref in sorted(documented):
            if not any(_prefix_match(ref, tok) for tok in rendered):
                yield self.at(
                    anchor.path,
                    1,
                    f"metric {ref} is documented but no exporter "
                    "renders it",
                    hint="remove the stale doc entry or restore the series "
                    "in the renderer",
                )

    # ------------------------------------------------------------------
    # Trace span kinds
    # ------------------------------------------------------------------
    def _check_spans(
        self, project: ProjectContext, root: str
    ) -> Iterator[Finding]:
        config = project.config
        analyzers = self._sources(project, config.contract_span_analyzers)
        if not analyzers:
            return
        handled: Set[str] = set()
        for summary in analyzers:
            handled.update(summary.kind_handles)
        if not handled:
            return
        documented: Set[str] = set()
        for path in _doc_files(root, config.contract_span_docs):
            text = _read_text(path)
            if text is not None:
                documented.update(_BACKTICK_TOKEN.findall(text))
        emitters = self._sources(project, config.contract_span_emitters)
        seen: Set[str] = set()
        for summary in emitters:
            for line, kind in summary.emit_kinds:
                if kind in seen:
                    continue
                seen.add(kind)
                if kind in handled or kind in documented:
                    continue
                yield self.at(
                    summary.path,
                    line,
                    f"span kind {kind!r} is emitted here but neither "
                    "handled by the trace analyzer nor documented in the "
                    "span-kind table",
                    hint="teach obs/analyze.py the kind or add it to the "
                    "docs/observability.md span table",
                )

    # ------------------------------------------------------------------
    # CLI surface
    # ------------------------------------------------------------------
    def _check_cli(
        self, project: ProjectContext, root: str
    ) -> Iterator[Finding]:
        config = project.config
        cli_sources = self._sources(project, config.contract_cli_files)
        if not cli_sources:
            return
        subcommands: Dict[str, Dict[str, object]] = {}
        global_flags: Set[str] = {"--help"}
        cli_path = cli_sources[0].path
        for summary in cli_sources:
            for name, entry in summary.cli_subcommands.items():
                if name == "":
                    global_flags.update(entry["flags"])
                else:
                    subcommands.setdefault(
                        name, {"line": entry["line"], "flags": set()}
                    )
                    subcommands[name]["flags"].update(entry["flags"])
        if not subcommands:
            return
        doc_files = _doc_files(root, config.contract_cli_docs)
        if not doc_files:
            return
        mentioned: Set[str] = set()
        flag_uses: List[Tuple[str, int, str, Set[str]]] = []
        for path in doc_files:
            text = _read_text(path)
            if text is None:
                continue
            for line_no, logical in _logical_lines(text):
                for sub in _SUBCOMMAND_USE.findall(logical):
                    mentioned.add(sub)
                    if sub in subcommands:
                        flags = set(_FLAG_TOKEN.findall(logical))
                        if flags:
                            flag_uses.append((path, line_no, sub, flags))
        for name in sorted(subcommands):
            if name not in mentioned:
                yield self.at(
                    cli_path,
                    int(subcommands[name]["line"]),
                    f"CLI subcommand {name!r} is not documented anywhere "
                    "in README.md or docs/",
                    hint="add a `repro " + name + "` usage example to the "
                    "docs",
                )
        for path, line_no, sub, flags in flag_uses:
            known = set(subcommands[sub]["flags"]) | global_flags
            for flag in sorted(flags - known):
                rel = os.path.relpath(path, root)
                yield self.at(
                    cli_path,
                    int(subcommands[sub]["line"]),
                    f"{rel}:{line_no} shows `repro {sub} {flag}` but the "
                    f"parser accepts no such flag",
                    hint="fix the doc example or add the flag to the "
                    "subcommand parser",
                )


def _logical_lines(text: str) -> Iterator[Tuple[int, str]]:
    """Doc lines with backslash continuations joined, keyed by first line."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        start = index
        logical = lines[index]
        while logical.rstrip().endswith("\\") and index + 1 < len(lines):
            index += 1
            logical = logical.rstrip()[:-1] + " " + lines[index]
        yield start + 1, logical
        index += 1


RULES = [ContractDriftRule()]

__all__ = ["ContractDriftRule", "RULES"]
