"""The analyzer core: rule discovery, one walk per file, one suppression pass.

Rules are discovered from :mod:`repro.lint.rules` by package scan —
any submodule exposing a ``RULES`` list contributes; deleting a rule
module genuinely removes its check (the fixture tests assert this).
Discovery runs once per :func:`lint_paths` / :func:`lint_file` call.
Two kinds of rule coexist behind one registry:

* **per-file rules** declare the node types they inspect; the engine
  parses each file and walks it **once**
  (:meth:`~repro.lint.context.FileContext.walk`), handing every node to
  the per-file rules registered for its type and to the
  :class:`~repro.lint.project.SummaryBuilder`.  The file's record is
  the rules' raw findings plus its
  :class:`~repro.lint.project.ModuleSummary`;
* **project rules** (``rule.project`` is true) run once per invocation
  via ``check_project(project)`` over the linked
  :class:`~repro.lint.project.ProjectContext` — the import graph and
  approximate call graph of every linted file.  :func:`lint_paths`
  always runs this pass; :func:`lint_file` stays per-file so
  single-snippet unit tests see exactly the lexical rules.

Both entry points reject an unknown rule id in ``select`` or
``ignore`` with :class:`ValueError`, so a stale slug can never turn a
run into a silent no-op.  Suppression runs once, after the project
pass, over the raw findings of both kinds; each finding's pragma comes
from :meth:`~repro.lint.project.ModuleSummary.pragma_for` of its file:

* a finding covered by a *justified* ``# fdlint: disable=`` pragma is
  recorded as a :class:`~repro.lint.findings.Suppression`;
* a pragma **without** a written justification suppresses nothing and
  additionally raises the ``unjustified-suppression`` (FDL000)
  meta-finding, so the repo cannot be "clean" by silent fiat; so does
  a pragma naming a rule that does not exist.

With ``cache_dir`` set, each file's record (raw findings and summary)
is reused from the content-hash cache (:mod:`repro.lint.cache`); the
project and suppression passes always run on the linked records, so
cross-file and doc-reference drift is never served stale.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint import rules as rules_package
from repro.lint.cache import LintCache
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Suppression
from repro.lint.pragmas import Pragma, parse_pragmas
from repro.lint.project import ModuleSummary, ProjectContext, SummaryBuilder

#: Meta-rule identity for pragmas lacking a justification.
UNJUSTIFIED_RULE = "unjustified-suppression"
UNJUSTIFIED_CODE = "FDL000"

#: JSON schema version of ``--format json``.
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


def _rule_ids(rules: Iterable[object]) -> List[str]:
    ids: List[str] = [UNJUSTIFIED_RULE, UNJUSTIFIED_CODE]
    for rule in rules:
        ids.extend([rule.rule, rule.code])
    return ids


def known_rule_ids() -> List[str]:
    """Selectable identities: every slug and code, plus the meta-rule."""
    return _rule_ids(discover_rules().values())


def _selected_rules(
    select: Optional[Sequence[str]], ignore: Sequence[str]
) -> Tuple[List[object], Set[str]]:
    """One run's rules, and every id a pragma may name.

    Raises :class:`ValueError` naming the first unknown rule id.
    """
    rules = discover_rules()
    known = set(_rule_ids(rules.values()))
    for spec in [*(select or ()), *ignore]:
        if spec not in known:
            raise ValueError(
                f"unknown rule {spec!r} (known: "
                f"{', '.join(sorted(known))})"
            )
    selected = []
    for rule in rules.values():
        identities = {rule.rule, rule.code}
        if select is not None and not identities & set(select):
            continue
        if not identities & set(ignore):
            selected.append(rule)
    return selected, known | {"all"}


@dataclass
class LintResult:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def clean(self) -> bool:
        """No findings survived suppression."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """The ``--format json`` document."""
        return {
            "version": SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "findings": [asdict(f) for f in self.findings],
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
            "counts": self._counts(),
        }

    def _counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


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


def _suppress(
    raw: Sequence[Finding],
    summaries: Sequence[ModuleSummary],
    known: Set[str],
) -> Tuple[List[Finding], List[Suppression]]:
    """The suppression protocol, applied once to a run's raw findings.

    Findings covered by a justified pragma become :class:`Suppression`
    entries; an unjustified pragma keeps its findings *and* raises the
    FDL000 meta-finding once, as does every pragma naming an unknown
    rule.  A finding reported twice (two identical calls on one line)
    is reported once.
    """
    by_path = {summary.path: summary for summary in summaries}
    findings: List[Finding] = []
    covered: Dict[Tuple[str, int], Tuple[Pragma, List[Finding]]] = {}
    for finding in sorted(raw):
        summary = by_path.get(finding.path)
        pragma = None if summary is None else summary.pragma_for(
            finding.line, finding.rule, finding.code
        )
        if pragma is None:
            findings.append(finding)
        else:
            covered.setdefault(
                (finding.path, pragma.line), (pragma, [])
            )[1].append(finding)
    suppressions: List[Suppression] = []
    for path, line in sorted(covered):
        pragma, suppressed = covered[(path, line)]
        if pragma.justified:
            suppressions.append(Suppression(
                path=path,
                line=line,
                rules=pragma.rules,
                justification=pragma.justification,
                suppressed=tuple(suppressed),
            ))
        else:
            findings.extend(suppressed)
            findings.append(_meta_finding(
                path,
                line,
                "fdlint pragma without a written justification suppresses "
                "nothing",
                "append the reason in parentheses: "
                "# fdlint: disable=<rule>  (why this is sound)",
            ))
    for summary in summaries:
        for line, pragma in sorted(summary.pragmas.items()):
            unknown = [r for r in pragma.rules if r not in known]
            if unknown:
                findings.append(_meta_finding(
                    summary.path,
                    line,
                    f"fdlint pragma names unknown rule(s) "
                    f"{', '.join(unknown)}",
                    "name a rule slug, its FDLnnn code or `all` "
                    "(docs/static-analysis.md lists them), or drop the "
                    "pragma",
                ))
    return sorted(set(findings)), suppressions


def _analyze_file(
    path: str,
    source: str,
    config: LintConfig,
    rules: Sequence[object],
) -> Tuple[List[Finding], Optional[ModuleSummary]]:
    """Parse one file and walk it once: the per-file ``rules``' raw
    findings and the file's summary (``None`` if it does not parse)."""
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
        return [finding], None
    ctx = FileContext(path, tree, config)
    builder = SummaryBuilder(ctx, parse_pragmas(source))
    visitors = builder.visitors()
    raw: List[Finding] = []
    for rule in rules:
        def visit(node: ast.AST, rule=rule) -> None:
            raw.extend(rule.visit(node, ctx))

        for node_type in rule.node_types:
            visitors.setdefault(node_type, []).append(visit)
    ctx.walk(visitors)
    return raw, builder.finish()


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
    rules, known = _selected_rules(select, ignore)
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    raw, summary = _analyze_file(
        path, source, config, [r for r in rules if not r.project]
    )
    findings, suppressions = _suppress(
        raw, [] if summary is None else [summary], known
    )
    return LintResult(findings, suppressions, files_scanned=1)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into the ``.py`` files under them.

    Directories are walked in sorted order.  A file reached through
    more than one argument (``src src/repro/fd``, ``src ./src``) is
    listed once, under its first spelling.
    """
    collected: List[str] = []
    seen: Set[str] = set()

    def add(path: str) -> None:
        real = os.path.realpath(path)
        if real not in seen:
            seen.add(real)
            collected.append(path)

    for path in paths:
        if os.path.isfile(path):
            add(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in ("__pycache__", ".git")
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    add(os.path.join(root, name))
    return collected


def lint_paths(
    paths: Sequence[str],
    config: LintConfig = DEFAULT_CONFIG,
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    cache_dir: Optional[str] = None,
) -> LintResult:
    """Analyze every ``.py`` file under ``paths``.

    Walks each file once for the per-file rules and its summary, links
    every summary into one :class:`~repro.lint.project.ProjectContext`
    and runs the project rules over it, then suppresses once over all
    raw findings.  ``cache_dir`` enables the content-hash record cache
    (:mod:`repro.lint.cache`).
    """
    rules, known = _selected_rules(select, ignore)
    file_rules = [rule for rule in rules if not rule.project]
    project_rules = [rule for rule in rules if rule.project]
    cache = (
        None if cache_dir is None
        else LintCache(cache_dir, config, select, ignore)
    )
    raw: List[Finding] = []
    summaries: List[ModuleSummary] = []
    files = iter_python_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        record = None if cache is None else cache.get(path, source)
        if record is None:
            record = _analyze_file(path, source, config, file_rules)
            if cache is not None:
                cache.put(path, source, *record)
        findings, summary = record
        raw.extend(findings)
        if summary is not None:
            summaries.append(summary)
    if project_rules and summaries:
        project = ProjectContext(summaries, config)
        for rule in project_rules:
            raw.extend(rule.check_project(project))
    findings, suppressions = _suppress(raw, summaries, known)
    return LintResult(
        findings,
        suppressions,
        files_scanned=len(files),
        cache_hits=0 if cache is None else cache.hits,
        cache_misses=0 if cache is None else cache.misses,
    )


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
]
