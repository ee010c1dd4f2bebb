"""The analyzer core: rule discovery, the per-file and project passes.

Rules are discovered from :mod:`repro.lint.rules` by package scan —
any submodule exposing a ``RULES`` list contributes; deleting a rule
module genuinely removes its check (the fixture tests assert this).
Two kinds of rule coexist behind one registry:

* **per-file rules** run on each file's own AST via ``check(ctx)``;
* **project rules** (``rule.project`` is true) run once per invocation
  via ``check_project(project)`` over the linked
  :class:`~repro.lint.project.ProjectContext` — the import graph and
  approximate call graph of every linted file.  :func:`lint_paths`
  always runs this pass; :func:`lint_file` stays per-file so
  single-snippet unit tests see exactly the lexical rules.

Both entry points reject an unknown rule id in ``select``, ``ignore``
or :attr:`LintConfig.ignore` with :class:`ValueError`, so a stale slug
can never turn a run into a silent no-op.  Both passes route findings
through the same suppression protocol:

* a finding covered by a *justified* ``# fdlint: disable=`` pragma is
  recorded as a :class:`~repro.lint.findings.Suppression`;
* a pragma **without** a written justification suppresses nothing and
  additionally raises the ``unjustified-suppression`` (FDL000)
  meta-finding, so the repo cannot be "clean" by silent fiat; so does
  a pragma naming a rule that does not exist.

A baseline file (``--baseline``) holds fingerprints of known findings
to tolerate during incremental adoption; fingerprints are
``path::rule::line``, so baselines are tied to the invocation paths.
With ``cache_dir`` set, per-file results and module summaries are
reused from the content-hash cache (:mod:`repro.lint.cache`); the
project pass always re-links from summaries, so cross-file and
doc-reference drift is never served stale.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint import rules as rules_package
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Suppression
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    build_module_summary,
)

#: Meta-rule identity for pragmas lacking a justification.
UNJUSTIFIED_RULE = "unjustified-suppression"
UNJUSTIFIED_CODE = "FDL000"

#: JSON schema version of ``--format json`` and baseline files.
SCHEMA_VERSION = 1


def discover_rules() -> Dict[str, object]:
    """Import every rule module and collect rules keyed by slug."""
    discovered: Dict[str, object] = {}
    for info in pkgutil.iter_modules(rules_package.__path__):
        module = importlib.import_module(
            f"{rules_package.__name__}.{info.name}"
        )
        for rule in getattr(module, "RULES", ()):
            discovered[rule.rule] = rule
    return dict(sorted(discovered.items()))


def known_rule_ids() -> List[str]:
    """Selectable identities: every slug and code, plus the meta-rule."""
    ids: List[str] = [UNJUSTIFIED_RULE, UNJUSTIFIED_CODE]
    for rule in discover_rules().values():
        ids.extend([rule.rule, rule.code])
    return ids


def _check_rule_ids(specs: Iterable[str]) -> None:
    """Raise :class:`ValueError` naming the first unknown rule id."""
    known = set(known_rule_ids())
    for spec in specs:
        if spec not in known:
            raise ValueError(
                f"unknown rule {spec!r} (known: "
                f"{', '.join(sorted(known))})"
            )


@dataclass
class LintResult:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    files_scanned: int = 0
    baselined: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def clean(self) -> bool:
        """No findings survived suppression and baselining."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """The ``--format json`` document."""
        return {
            "version": SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressions": [
                {
                    "path": s.path,
                    "line": s.line,
                    "rules": list(s.rules),
                    "justification": s.justification,
                    "suppressed": len(s.suppressed),
                }
                for s in self.suppressions
            ],
            "baselined": self.baselined,
            "counts": self._counts(),
        }

    def _counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def _selected(
    rule: object,
    select: Optional[Sequence[str]],
    ignore: Sequence[str],
) -> bool:
    identities = {rule.rule, rule.code}
    if select is not None and not (identities & set(select)):
        return False
    return not (identities & set(ignore))


def _meta_finding(path: str, line: int, message: str, hint: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=1,
        rule=UNJUSTIFIED_RULE,
        code=UNJUSTIFIED_CODE,
        severity="error",
        message=message,
        hint=hint,
    )


def _unjustified_finding(path: str, line: int) -> Finding:
    return _meta_finding(
        path,
        line,
        "fdlint pragma without a written justification suppresses nothing",
        "append the reason in parentheses: "
        "# fdlint: disable=<rule>  (why this is sound)",
    )


def _unknown_rule_findings(ctx: FileContext) -> List[Finding]:
    """FDL000 for every pragma naming a rule that does not exist."""
    known = set(known_rule_ids()) | {"all"}
    findings: List[Finding] = []
    for line, pragma in sorted(ctx.pragmas.items()):
        unknown = [r for r in pragma.rules if r not in known]
        if unknown:
            findings.append(_meta_finding(
                ctx.path,
                line,
                f"fdlint pragma names unknown rule(s) {', '.join(unknown)}",
                "name a rule slug, its FDLnnn code or `all` "
                "(docs/static-analysis.md lists them), or drop the pragma",
            ))
    return findings


def _apply_pragmas(
    raw: Sequence[Finding],
    pragma_for,
) -> Tuple[List[Finding], List[Suppression]]:
    """The suppression protocol, shared by both passes.

    ``pragma_for(finding) -> Optional[(line, rules, justification)]``
    locates the pragma covering a finding in that finding's own file.
    Findings covered by a justified pragma become :class:`Suppression`
    entries; unjustified pragmas keep the finding *and* raise the
    FDL000 meta-finding once per pragma line.
    """
    findings: List[Finding] = []
    by_pragma: Dict[
        Tuple[str, int], Tuple[Tuple[str, ...], str, List[Finding]]
    ] = {}
    for finding in sorted(raw):
        hit = pragma_for(finding)
        if hit is None:
            findings.append(finding)
            continue
        line, rules, justification = hit
        entry = by_pragma.setdefault(
            (finding.path, line), (tuple(rules), justification, [])
        )
        if not justification.strip():
            findings.append(finding)
        else:
            entry[2].append(finding)
    suppressions: List[Suppression] = []
    for (path, line), (rules, justification, suppressed) in sorted(
        by_pragma.items()
    ):
        suppression = Suppression(
            path=path,
            line=line,
            rules=rules,
            justification=justification,
            suppressed=tuple(suppressed),
        )
        if not suppression.justified:
            findings.append(_unjustified_finding(path, line))
        else:
            suppressions.append(suppression)
    return findings, suppressions


def _analyze_file(
    path: str,
    config: LintConfig,
    select: Optional[Sequence[str]],
    ignore: Sequence[str],
    source: str,
    *,
    want_summary: bool,
) -> Tuple[List[Finding], List[Suppression], Optional[ModuleSummary]]:
    """Parse one file, run the per-file rules, build its summary."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule="syntax-error",
            code="FDL999",
            severity="error",
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], [], None
    ctx = FileContext(path, source, tree, config)
    raw: List[Finding] = []
    for rule in discover_rules().values():
        if getattr(rule, "project", False):
            continue
        if _selected(rule, select, ignore):
            raw.extend(rule.check(ctx))

    def pragma_for(finding: Finding):
        pragma = ctx.pragma_for(finding.line, finding.rule, finding.code)
        if pragma is None:
            return None
        return pragma.line, pragma.rules, pragma.justification

    findings, suppressions = _apply_pragmas(raw, pragma_for)
    findings.extend(_unknown_rule_findings(ctx))
    summary = build_module_summary(ctx) if want_summary else None
    return findings, suppressions, summary


def lint_file(
    path: str,
    config: LintConfig = DEFAULT_CONFIG,
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    source: Optional[str] = None,
) -> LintResult:
    """Analyze one file with the per-file rules.

    Project rules need the cross-file graph and only run in
    :func:`lint_paths`; keeping this entry point lexical means snippet
    tests exercise exactly the rule under test.
    """
    ignore = tuple(ignore) + tuple(config.ignore)
    _check_rule_ids([*(select or ()), *ignore])
    result = LintResult(files_scanned=1)
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    findings, suppressions, _ = _analyze_file(
        path, config, select, ignore, source, want_summary=False
    )
    result.findings.extend(findings)
    result.suppressions.extend(suppressions)
    result.findings.sort()
    return result


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        else:
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git")
                )
                collected.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
    return collected


def _project_pass(
    summaries: Sequence[ModuleSummary],
    config: LintConfig,
    select: Optional[Sequence[str]],
    ignore: Sequence[str],
) -> Tuple[List[Finding], List[Suppression]]:
    """Run every selected project rule over the linked graph."""
    rules = [
        rule
        for rule in discover_rules().values()
        if getattr(rule, "project", False)
        and _selected(rule, select, ignore)
    ]
    if not rules or not summaries:
        return [], []
    project = ProjectContext(summaries, config)
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check_project(project))

    by_path = {s.path: s for s in summaries}

    def pragma_for(finding: Finding):
        summary = by_path.get(finding.path)
        if summary is None:
            return None
        hit = summary.pragma_for(finding.line, finding.rule, finding.code)
        if hit is None:
            return None
        line, entry = hit
        return line, tuple(entry[0]), entry[1]

    return _apply_pragmas(raw, pragma_for)


def _merge_suppressions(
    suppressions: Iterable[Suppression],
) -> List[Suppression]:
    """Collapse per-file and project suppressions sharing a pragma line."""
    merged: Dict[Tuple[str, int], Suppression] = {}
    for suppression in suppressions:
        key = (suppression.path, suppression.line)
        existing = merged.get(key)
        if existing is None:
            merged[key] = suppression
        else:
            merged[key] = Suppression(
                path=existing.path,
                line=existing.line,
                rules=existing.rules,
                justification=existing.justification,
                suppressed=existing.suppressed + suppression.suppressed,
            )
    return [merged[key] for key in sorted(merged)]


def lint_paths(
    paths: Sequence[str],
    config: LintConfig = DEFAULT_CONFIG,
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    baseline: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
) -> LintResult:
    """Analyze every ``.py`` file under ``paths``.

    Runs the per-file rules on each file, then links every file's
    summary into one :class:`~repro.lint.project.ProjectContext` and
    runs the project rules over it.  ``baseline`` is an iterable of
    fingerprints to drop from the result (counted in
    :attr:`LintResult.baselined`); ``cache_dir`` enables the
    content-hash result cache (:mod:`repro.lint.cache`).
    """
    ignore = tuple(ignore) + tuple(config.ignore)
    _check_rule_ids([*(select or ()), *ignore])
    total = LintResult()
    cache = None
    if cache_dir is not None:
        from repro.lint.cache import LintCache

        cache = LintCache(cache_dir, config, select, ignore)
    summaries: List[ModuleSummary] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        entry = cache.get(path, source) if cache is not None else None
        if entry is None:
            entry = _analyze_file(
                path, config, select, ignore, source, want_summary=True
            )
            if cache is not None:
                cache.put(path, source, *entry)
        findings, suppressions, summary = entry
        total.findings.extend(findings)
        total.suppressions.extend(suppressions)
        total.files_scanned += 1
        if summary is not None:
            summaries.append(summary)
    proj_findings, proj_suppressions = _project_pass(
        summaries, config, select, ignore
    )
    total.findings.extend(proj_findings)
    total.suppressions.extend(proj_suppressions)
    # FDL000 can legitimately surface from both passes for one pragma.
    total.findings = list(dict.fromkeys(total.findings))
    total.suppressions = _merge_suppressions(total.suppressions)
    if cache is not None:
        total.cache_hits = cache.hits
        total.cache_misses = cache.misses
    if baseline:
        known = set(baseline)
        kept = [
            f for f in total.findings if f.fingerprint() not in known
        ]
        total.baselined = len(total.findings) - len(kept)
        total.findings = kept
    total.findings.sort()
    return total


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def load_baseline(path: str) -> List[str]:
    """Fingerprints from a baseline JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if (
        not isinstance(document, dict)
        or document.get("version") != SCHEMA_VERSION
        or not isinstance(document.get("fingerprints"), list)
    ):
        raise ValueError(f"{path} is not a fdlint baseline file")
    return [str(fp) for fp in document["fingerprints"]]


def write_baseline(path: str, result: LintResult) -> int:
    """Record the result's findings as the accepted baseline."""
    fingerprints = sorted({f.fingerprint() for f in result.findings})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"version": SCHEMA_VERSION, "fingerprints": fingerprints},
            handle,
            indent=2,
        )
        handle.write("\n")
    return len(fingerprints)


__all__ = [
    "LintResult",
    "SCHEMA_VERSION",
    "UNJUSTIFIED_CODE",
    "UNJUSTIFIED_RULE",
    "discover_rules",
    "iter_python_files",
    "known_rule_ids",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "write_baseline",
]
