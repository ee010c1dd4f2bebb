"""FDL010 — time flows through the Scheduler, randomness from seeds.

The Neko promise — one detector stack, unchanged, on simulated or real
networks — only holds if no layer reads the wall clock directly, and
campaigns are bit-reproducible only if every random draw flows from
:class:`repro.sim.random.RandomStreams`.  The rule reports two kinds of
finding over the project summary:

* **direct** — every wall-clock call (``time.time``, ``time.sleep``,
  ``datetime.now``, ``asyncio.sleep`` …) outside
  :data:`~repro.lint.config.LintConfig.clock_allowed_files`, and every
  ambient-random call (module-level ``random.*`` / ``numpy.random.*``,
  an unseeded ``default_rng()``) outside
  :data:`~repro.lint.config.LintConfig.random_allowed_files`.
  Generator *machinery* built from explicit entropy (``SeedSequence``,
  ``Generator``, bit generators) is allowed everywhere;
* **chain** — wrapping ``time.time()`` in a helper one module away
  must not re-open the hole.  Any function that *transitively* reaches
  a primitive outside the whitelisted runtime files is **tainted**, and
  calling a tainted function from the deterministic tier (``sim/``,
  ``experiments/``, the replay engine) is a finding at the call site,
  with the offending chain in the message.

A pragma on a primitive accepts the direct call *in its own context*
(an exporter timestamping a scrape); the function still taints, so the
wall-clock value is never laundered into reproducible simulations.
Docstrings and comments that merely mention ``time.time()`` are not
calls and are never flagged.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import in_dirs, path_matches
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.rules.base import ProjectRule


class ClockSeedTaintRule(ProjectRule):
    rule = "clock-seed-taint"
    code = "FDL010"
    invariant = (
        "sim/real transparency and reproducibility: time is read only "
        "through the Scheduler and randomness drawn only from seeded "
        "generators, directly or through any call chain"
    )

    def _in_scope(self, project: ProjectContext, rel_path: str) -> bool:
        config = project.config
        return in_dirs(rel_path, config.taint_sim_dirs) or path_matches(
            rel_path, config.taint_sim_files
        )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._direct(project)
        yield from self._chains(project)

    def _direct(self, project: ProjectContext) -> Iterator[Finding]:
        config = project.config
        for summary in project.summaries:
            clock_ok = path_matches(
                summary.rel_path, config.clock_allowed_files
            )
            random_ok = path_matches(
                summary.rel_path, config.random_allowed_files
            )
            for info in summary.functions.values():
                for line, name in [] if clock_ok else info.clock:
                    yield self.at(
                        summary.path,
                        line,
                        f"wall-clock call {name}() outside the scheduler "
                        f"surface",
                        hint="take `now` from the injected scheduler "
                        "(sim.now / scheduler.now) or schedule() the "
                        "delay; real-network modules belong on "
                        "clock_allowed_files in repro/lint/config.py",
                    )
                for line, name in [] if random_ok else info.random:
                    yield self.at(
                        summary.path,
                        line,
                        f"module-level randomness {name}() in "
                        f"simulation-reachable code",
                        hint="accept an injected numpy.random.Generator "
                        "(one RandomStreams stream per consumer) instead "
                        "of the ambient module state",
                    )

    def _chains(self, project: ProjectContext) -> Iterator[Finding]:
        config = project.config
        clock_ok = config.clock_allowed_files + config.taint_runtime_files
        random_ok = config.random_allowed_files + config.taint_runtime_files
        table = project.taint_table(clock_ok, random_ok)
        if not table:
            return
        for edge in project.edges:
            if edge.callee not in table or edge.via == "def":
                # ``def`` edges are lexical nesting, not call sites —
                # the nested body's primitive is a direct finding.
                continue
            summary = project.by_path.get(edge.path)
            if summary is None or not self._in_scope(
                project, summary.rel_path
            ):
                continue
            chain = project.chain(edge.callee, table)
            primitive, _ = table[edge.callee]
            short_chain = " -> ".join(
                q.rsplit(".", 1)[-1] + "()" for q in chain
            )
            yield self.at(
                edge.path,
                edge.line,
                f"call into clock/seed-tainted {short_chain} reaching "
                f"{primitive} from deterministic code",
                hint="take time/randomness from the Scheduler/RandomState "
                "surface, or whitelist the runtime module in LintConfig",
            )


RULES = [ClockSeedTaintRule()]

__all__ = ["ClockSeedTaintRule", "RULES"]
