"""CLI glue for the ``repro lint`` subcommand.

Exit codes follow the usual analyzer convention:

* ``0`` — clean (no findings; justified suppressions are fine),
* ``1`` — findings reported,
* ``2`` — usage error (unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint.cache import DEFAULT_CACHE_DIR
from repro.lint.config import DEFAULT_CONFIG
from repro.lint.engine import lint_paths
from repro.lint.findings import Finding


def _escape_workflow(value: str, *, property_value: bool = False) -> str:
    """Percent-escape per the GitHub workflow-command grammar."""
    escaped = (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )
    if property_value:
        escaped = escaped.replace(":", "%3A").replace(",", "%2C")
    return escaped


def render_github(finding: Finding) -> str:
    """One ``::error`` workflow command annotating the PR diff."""
    message = f"{finding.code} {finding.rule}: {finding.message}"
    if finding.hint:
        message += f"  [fix: {finding.hint}]"
    return (
        f"::error file={_escape_workflow(finding.path, property_value=True)}"
        f",line={finding.line},col={finding.col}"
        f",title={_escape_workflow(finding.code, property_value=True)}"
        f"::{_escape_workflow(message)}"
    )


def add_lint_parser(subparsers) -> None:
    """Register the ``lint`` subcommand on the main CLI."""
    lint = subparsers.add_parser(
        "lint",
        help="run the repo's invariant-enforcing static analyzer",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format; 'github' emits ::error workflow commands "
        "that annotate the PR diff (default: text)",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk content-hash result cache "
        "(.repro-lint-cache/)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule slugs/codes to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default="", metavar="RULES",
        help="comma-separated rule slugs/codes to skip",
    )


def _split(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def command_lint(args: argparse.Namespace) -> int:
    """Entry point invoked by :func:`repro.cli.main`."""
    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(
            args.paths,
            DEFAULT_CONFIG,
            select=_split(args.select),
            ignore=_split(args.ignore) or [],
            cache_dir=None if args.no_cache else DEFAULT_CACHE_DIR,
        )
    except ValueError as exc:  # e.g. an unknown rule id
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.clean else 1

    if args.format == "github":
        for finding in result.findings:
            print(render_github(finding))
        print(
            f"{len(result.findings)} finding(s) in "
            f"{result.files_scanned} file(s)"
        )
        return 0 if result.clean else 1

    for finding in result.findings:
        print(finding.render())
    summary = (
        f"{len(result.findings)} finding(s) in "
        f"{result.files_scanned} file(s)"
    )
    if result.suppressions:
        summary += (
            f", {len(result.suppressions)} justified suppression(s)"
        )
    print(summary)
    return 0 if result.clean else 1


__all__ = ["add_lint_parser", "command_lint", "render_github"]
