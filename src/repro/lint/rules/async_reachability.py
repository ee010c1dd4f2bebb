"""FDL011 — nothing on the event loop blocks on I/O, however deep.

The live service is a single-threaded asyncio daemon; one synchronous
sqlite ``execute``, file ``write``/``flush`` or socket ``recv`` inside
it stalls *every* endpoint's detector timers and skews T_D for the
whole fleet.  The **roots** are every coroutine plus every function of
the configured loop-resident modules
(:data:`~repro.lint.config.LintConfig.loop_resident_files` — timer
callbacks and datagram handlers that run on the loop).  The rule
reports two kinds of finding over the project summary:

* **direct** — a root makes a blocking call (sqlite
  execute/commit, file open/flush/fsync, socket recv/sendall,
  ``time.sleep`` …) itself;
* **chain** — a root calls a sync function that **blocks**: one that
  makes an unsuppressed blocking call or calls — without an executor
  offload — another sync project function that blocks.  The finding is
  at the root's call site, with the chain down to the primitive.

Not blocking: ``await``-ed calls (coroutines, non-blocking at the call
site), calls inside ``lambda`` bodies and call edges through a
recognised offload surface (``run_in_executor``, ``asyncio.to_thread``,
``Executor.submit``, ``threading.Thread``) — the sanctioned way to run
blocking work — and ``.write()`` on asyncio stream receivers
(buffered, back-pressured via ``drain``; see
``asyncio_safe_receivers``).  A *justified* pragma on a blocking
primitive marks an accepted choke point: it suppresses the direct
finding and stops propagation there, so suppression decisions stay
local to the primitive.  Its justification cites the latency bound
(see ``BENCH_obs.json``).
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import path_matches
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.rules.base import ProjectRule


class AsyncBlockingReachRule(ProjectRule):
    rule = "async-blocking-reach"
    code = "FDL011"
    invariant = (
        "service liveness: no blocking call is made by, or reachable "
        "through synchronous call chains from, a coroutine or "
        "loop-resident callback"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._direct(project)
        yield from self._chains(project)

    def _direct(self, project: ProjectContext) -> Iterator[Finding]:
        loop_resident = project.config.loop_resident_files
        for summary in project.summaries:
            resident = path_matches(summary.rel_path, loop_resident)
            for info in summary.functions.values():
                if not (resident or info.is_async):
                    continue
                for line, reason in info.blocking:
                    yield self.at(
                        summary.path,
                        line,
                        f"blocking call {reason} on the event loop",
                        hint="offload via loop.run_in_executor / "
                        "asyncio.to_thread, batch it behind a bounded "
                        "choke point, or pragma it with the measured "
                        "latency bound",
                    )

    def _chains(self, project: ProjectContext) -> Iterator[Finding]:
        table = project.blocking_table()
        if not table:
            return
        config = project.config
        for edge in project.edges:
            if edge.callee not in table:
                continue
            if edge.via in ("offload", "def") or edge.awaited:
                continue
            caller = project.functions.get(edge.caller)
            if caller is None:
                continue
            caller_summary, caller_info = caller
            is_root = caller_info.is_async or path_matches(
                caller_summary.rel_path, config.loop_resident_files
            )
            if not is_root:
                continue
            callee = project.functions.get(edge.callee)
            if callee is not None and callee[1].is_async:
                continue
            chain = project.chain(edge.callee, table)
            primitive, _ = table[edge.callee]
            short_chain = " -> ".join(
                q.rsplit(".", 1)[-1] + "()" for q in chain
            )
            yield self.at(
                edge.path,
                edge.line,
                f"event-loop code calls {short_chain} which blocks on "
                f"{primitive}",
                hint="await an executor (run_in_executor/to_thread) or "
                "mark the choke point with a justified fdlint pragma",
            )


RULES = [AsyncBlockingReachRule()]

__all__ = ["AsyncBlockingReachRule", "RULES"]
