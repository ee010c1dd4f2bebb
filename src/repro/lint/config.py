"""The lint policy: which invariant applies where.

The rules are repo-specific, so their scoping is too.  Rather than
hard-coding paths inside each rule, the policy lives here as one
:class:`LintConfig` with the repo's defaults (:data:`DEFAULT_CONFIG`).
Real-network modules that legitimately read the wall clock are
*whitelisted by config, not by silence*: the whitelist is a reviewable
list in this file, and anything not on it needs an inline
``# fdlint: disable=<rule>  (reason)`` pragma with a justification.

Path matching is suffix-based on POSIX-normalised paths
(``"repro/net/udp.py"`` matches ``/any/prefix/src/repro/net/udp.py``),
and directory scoping is segment-based (``"service/"`` matches any path
containing a ``service`` directory component), so the same policy works
on checkouts, installed trees and the test fixture corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def path_matches(rel_path: str, entries: Tuple[str, ...]) -> bool:
    """Whether ``rel_path`` ends with any whitelist entry."""
    normalized = rel_path.replace("\\", "/")
    return any(
        normalized == entry or normalized.endswith("/" + entry)
        for entry in entries
    )


def in_dirs(rel_path: str, dirs: Tuple[str, ...]) -> bool:
    """Whether ``rel_path`` contains any of ``dirs`` as a path segment."""
    normalized = "/" + rel_path.replace("\\", "/")
    return any("/" + d.strip("/") + "/" in normalized for d in dirs)


@dataclass(frozen=True)
class LintConfig:
    """Scoping policy consumed by the rules (see module docstring)."""

    #: clock-seed-taint: files allowed to read the wall clock.  This is
    #: the one real-network anchor — the asyncio scheduler that maps loop
    #: time onto the epoch.  Everything else must take time from a
    #: Scheduler surface (or carry a justified pragma).
    clock_allowed_files: Tuple[str, ...] = ("repro/service/runtime.py",)

    #: clock-seed-taint: files allowed to construct generators from
    #: module-level numpy/stdlib randomness.  ``sim/random.py`` *is* the
    #: seed-derivation root every simulation RNG flows from; the live
    #: heartbeat fleet draws OS entropy for real-network crash phases.
    random_allowed_files: Tuple[str, ...] = (
        "repro/sim/random.py",
        "repro/service/heartbeat.py",
    )

    #: async-blocking-reach: event-loop-resident modules whose
    #: *synchronous* functions also run on the loop (timer callbacks,
    #: datagram handlers) and are therefore roots, like every coroutine.
    loop_resident_files: Tuple[str, ...] = (
        "repro/obs/trace.py",
        "repro/obs/history.py",
        "repro/net/udp.py",
        "repro/service/daemon.py",
    )

    #: async-blocking-reach: receiver names whose ``.write()`` is the
    #: buffered asyncio-stream write (non-blocking; back-pressure via
    #: ``drain``).
    asyncio_safe_receivers: Tuple[str, ...] = ("writer", "transport")

    #: mutable-shared-state: directories whose *class-level* mutable
    #: attributes are flagged (detector/predictor banks must keep the
    #: thirty instances independent).
    mutable_class_dirs: Tuple[str, ...] = ("fd/", "timeseries/")

    #: float-time-equality: identifier fragments that mark an
    #: expression as time-valued, and exact short names likewise.
    time_name_fragments: Tuple[str, ...] = (
        "time",
        "deadline",
        "timeout",
        "delay",
        "duration",
        "elapsed",
    )
    time_exact_names: Tuple[str, ...] = (
        "t",
        "t0",
        "t1",
        "now",
        "when",
        "tau",
        "eta",
        "mttc",
        "ttr",
    )

    #: sample-array-narrowing: the batch metrics path — files and
    #: directories where QoS sample arrays must stay NumPy end to end,
    #: converted once at the boundary (``.tolist()``), never narrowed
    #: element by element.
    sample_batch_files: Tuple[str, ...] = ("repro/fd/replay.py",)
    sample_batch_dirs: Tuple[str, ...] = ("nekostat/", "metrics/")

    #: sample-array-narrowing: identifier fragments marking an iterable
    #: as a QoS sample array.
    sample_name_fragments: Tuple[str, ...] = (
        "samples",
        "durations",
        "starts",
        "ends",
        "arrivals",
    )

    #: error-swallowing: identifier fragments that mark an assignment
    #: target (or called function) inside a broad ``except`` as error
    #: accounting — incrementing ``*_errors_total``, bumping a restart
    #: counter, recording a degradation.
    error_counter_fragments: Tuple[str, ...] = (
        "total",
        "count",
        "dropped",
        "errors",
        "failures",
        "degrad",
        "restart",
        "shed",
    )

    #: clock-seed-taint: directories and files holding *deterministic*
    #: code — simulation, replay, experiment drivers — where calling a
    #: function that transitively reaches the wall clock or ambient RNG
    #: is a finding even though the primitive sits modules away.
    taint_sim_dirs: Tuple[str, ...] = ("sim/", "experiments/")
    taint_sim_files: Tuple[str, ...] = ("repro/fd/replay.py",)

    #: clock-seed-taint: runtime files whose primitives do not taint, on
    #: top of the clock/random whitelists above — live-mode adapters
    #: whose whole purpose is bridging to real wall-clock time.
    taint_runtime_files: Tuple[str, ...] = (
        "repro/service/daemon.py",
        "repro/service/exporter.py",
        "repro/obs/trace.py",
        "repro/obs/drift.py",
        "repro/chaos/runner.py",
        "repro/cli.py",
    )

    #: contract-drift: where each contract surface lives.  A sub-check
    #: only runs when at least one of its *source* files is part of the
    #: linted set, so fixture/subset lints never cross-fire; reference
    #: files (docs, tests) are read from the project root.
    contract_metric_renderers: Tuple[str, ...] = (
        "repro/service/exporter.py",
        "repro/obs/drift.py",
    )
    contract_metric_docs: Tuple[str, ...] = (
        "docs/observability.md",
        "docs/service.md",
        "docs/robustness.md",
        "docs/kv.md",
    )
    contract_span_emitters: Tuple[str, ...] = (
        "repro/service/daemon.py",
        "repro/net/udp.py",
        "repro/obs/drift.py",
    )
    contract_span_analyzers: Tuple[str, ...] = (
        "repro/obs/analyze.py",
    )
    contract_span_docs: Tuple[str, ...] = ("docs/observability.md",)
    contract_cli_files: Tuple[str, ...] = ("repro/cli.py",)
    contract_cli_docs: Tuple[str, ...] = ("README.md", "docs/")

    #: contract-drift: project-root override for fixture corpora.  When
    #: empty the root is found by walking up from a linted file to the
    #: first directory containing ``docs``.
    contract_root: str = ""


#: The repo's policy, used by ``repro lint`` and the tier-1 self-check.
DEFAULT_CONFIG = LintConfig()

__all__ = ["DEFAULT_CONFIG", "LintConfig", "in_dirs", "path_matches"]
