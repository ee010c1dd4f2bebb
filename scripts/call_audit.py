#!/usr/bin/env python3
"""Which functions in ``src/`` does no user surface call?

    python scripts/call_audit.py

Drives the repository the way a user does and records every function of
``src/`` that runs.  The user surfaces are:

* the ten examples, with ``tests/test_examples.py``'s reduced arguments;
* ``benchmarks/`` at 2 000 cycles, 2 runs and a 5 000-sample trace, with
  pytest-benchmark's timing off (it pauses the hook while it times);
* ``bench/run.py --seconds 2`` on each of the four workloads;
* every CLI subcommand once: ``serve-monitor`` with ``serve-heartbeat``
  on loopback (its HTTP routes scraped), then ``trace-analyze``,
  ``postmortem`` and ``qos-history`` on what the monitor wrote;
  ``lint`` on ``src/`` (cold, then warm) and on ``examples/``.

A ``sitecustomize.py`` put first on ``PYTHONPATH`` installs
``sys.setprofile`` and ``threading.setprofile`` in every interpreter the
surfaces start, bench workers and pool processes included.  The hook
keeps each code object it sees called; at exit (``os._exit`` too, which
forked pool workers take) the process writes the
``(co_filename, co_firstlineno)`` of those under ``src/`` to a file of
its own.  ``cProfile`` replaces the hook while it runs and clears it on
``disable()``, so the hook takes over the profiler's own list of called
functions there and re-installs itself; a pytest plugin re-installs it
before each benchmark.  A surface that fails still counts what it ran.
Each surface has an expected exit status — 0, except ``lint`` on
``examples/``, whose findings make it 1 — and the drive prints ``[ok]``
when a surface returns it and ``[unexpected exit N]`` otherwise.

A function is reached when the line of its ``def`` (of its first
decorator, if any) was recorded.  Each line of ``src/`` inside a
function belongs to its innermost function, so the "function lines"
figure counts each line once.  A module is unreached when it defines a
function and none of its functions ran.  The figure is an upper bound:
an abstract method, a defensive branch's helper or a path the drive
does not take reads as unreached.

The script prints the unreached functions, the unreached modules and
the totals.  It exits 1 when any module is unreached or when more than
``MAX_UNREACHED_LINES`` function lines are, else 0.  Standard library
only.
"""

from __future__ import annotations

import ast
import glob
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Dict, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Mirrors ``tests/test_examples.py``'s table.
EXAMPLES = {
    "quickstart.py": [],
    "compare_30_detectors.py": ["2000"],
    "group_membership.py": [],
    "environments.py": [],
    "trace_workflow.py": ["4000"],
    "consensus_demo.py": [],
    "tune_timeout.py": [],
    "custom_predictor.py": [],
    "real_udp.py": [],
    "kv_failover_demo.py": ["40"],
}
WORKLOADS = ("campaign_sim", "campaign_replay", "live_fleet", "kv_failover")
BENCH_SCALE = {
    "REPRO_BENCH_CYCLES": "2000",
    "REPRO_BENCH_RUNS": "2",
    "REPRO_BENCH_TRACE": "5000",
}
TIMEOUT_S = 900.0
#: The ceiling on unreached function lines: the audit's figure when it was
#: set, plus 50 for drift between runs.  Lower it as code leaves ``src/``.
MAX_UNREACHED_LINES = 1174

HOOK = '''\
"""Records the functions of {source!r} that run in this process."""
import atexit
import cProfile
import os
import sys
import threading

_SOURCE = {source!r}
_RECORDS = {records!r}
_called = set()


def _hook(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _write():
    rows = set()
    for code in list(_called):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SOURCE + os.sep):
            rows.add(f"{{path}}\\t{{code.co_firstlineno}}\\n")
    name = os.path.join(_RECORDS, f"{{os.getpid()}}.txt")
    with open(name, "a", encoding="utf-8") as handle:
        handle.writelines(sorted(rows))


_disable = cProfile.Profile.disable


def _disable_then_install(self):
    _disable(self)
    _called.update(
        entry.code for entry in self.getstats() if not isinstance(entry.code, str)
    )
    install()


cProfile.Profile.disable = _disable_then_install

_exit = os._exit


def _write_then_exit(status):
    _write()
    _exit(status)


os._exit = _write_then_exit
atexit.register(_write)
install()
'''

PLUGIN = '''\
"""Re-installs the call hook before each test body runs."""
import pytest

import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sitecustomize.install()
    yield
'''


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start(argv: Sequence[str], env: Dict[str, str], cwd: str) -> subprocess.Popen:
    return subprocess.Popen(
        list(argv), env=env, cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def finish(
    label: str, process: subprocess.Popen, started: float, expect: int = 0
) -> None:
    """Wait for one surface and report whether it exited with ``expect``;
    an unexpected status is reported, not raised."""
    try:
        status = process.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        status = "timeout"
    verdict = "ok" if status == expect else f"unexpected exit {status}"
    print(f"  [{verdict}] {label} ({time.monotonic() - started:.1f} s)", flush=True)


def run(
    label: str, argv: Sequence[str], env: Dict[str, str], cwd: str, expect: int = 0
) -> None:
    finish(label, start(argv, env, cwd), time.monotonic(), expect)


def scrape(http_port: int) -> None:
    """GET each of the monitor's HTTP routes once, while it runs."""
    for path in ("/healthz", "/status", "/metrics", "/trace", "/qos", "/drift"):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{http_port}{path}", timeout=2.0
            ) as response:
                response.read()
        except OSError:
            pass


def live(env: Dict[str, str], work: str) -> None:
    """serve-monitor with two emitters on loopback, scraped over HTTP."""
    repro = [sys.executable, "-m", "repro"]
    port, http_port = free_port(), free_port()
    started = time.monotonic()
    monitor = start(repro + [
        "serve-monitor", "--port", str(port), "--http-port", str(http_port),
        "--eta", "0.1", "--trace", "m.jsonl", "--history-db", "h.sqlite",
        "--snapshot-interval", "1", "--drift-window", "20",
        "--drift-interval", "1", "--duration", "7",
    ], env, work)
    time.sleep(1.0)
    run("repro serve-heartbeat", repro + [
        "serve-heartbeat", "--names", "a,b", "--monitor-port", str(port),
        "--eta", "0.1", "--mttc", "2", "--ttr", "0.5", "--seed", "1",
        "--duration", "4", "--trace", "hb.jsonl",
    ], env, work)
    scrape(http_port)
    finish("repro serve-monitor", monitor, started)


def drive(env: Dict[str, str], work: str) -> None:
    """Run every user surface under the hook."""
    python = sys.executable
    repro = [python, "-m", "repro"]
    print("examples:", flush=True)
    for name, args in sorted(EXAMPLES.items()):
        run(name, [python, os.path.join(ROOT, "examples", name), *args], env, work)

    print("CLI:", flush=True)
    cli = [
        ["characterize", "--samples", "2000"],
        ["accuracy", "--count", "2000"],
        ["trace", "--output", "trace.txt", "--count", "3000"],
        ["select-order", "--input", "trace.txt", "--max-p", "1", "--max-d", "1",
         "--max-q", "1", "--limit", "1000"],
        ["calibrate", "--input", "trace.txt", "--check-samples", "2000"],
        ["qos", "--cycles", "600", "--runs", "2", "--detectors", "Last+JAC_med",
         "--chart", "--output", "qos.json"],
        # The replay on lan: the default loss and delay loops
        # (campaign_replay below runs italy-japan's blocks).
        ["qos", "--cycles", "600", "--runs", "2", "--detectors", "Last+JAC_med",
         "--mttc", "1500", "--engine", "replay", "--workers", "2",
         "--profile", "lan"],
        ["report", "--input", "qos.json", "--chart"],
        ["kv-sweep", "--etas", "0.5", "--detectors", "Last+JAC_med",
         "--duration", "20", "--output", "kv.json"],
        ["chaos", "--add-channel", "--horizon", "30", "--stabilization", "10",
         "--save-plan", "plan.json", "--output", "chaos.json"],
        ["chaos", "--plan", "plan.json", "--target", "kv", "--duration", "30"],
        ["chaos", "--plan", "plan.json", "--target", "daemon", "--duration", "3"],
    ]
    for argv in cli:
        run(f"repro {argv[0]}", repro + argv, env, work)
    live(env, work)
    for argv in (
        ["trace-analyze", "--input", "m.jsonl", "--merge", "hb.jsonl",
         "--history-db", "h.sqlite"],
        ["postmortem", "--input", "m.jsonl", "--limit", "3"],
        ["qos-history", "--db", "h.sqlite", "--window", "60"],
    ):
        run(f"repro {argv[0]}", repro + argv, env, work)
    # Cold, then warm: the second run reads the result cache.  The
    # examples are user code with findings to render (FDL010 flags the
    # real event loop's sleeps in real_udp.py), so that run exits 1.
    examples = os.path.join(ROOT, "examples")
    for target, expect in ((SOURCE, 0), (SOURCE, 0), (examples, 1)):
        run("repro lint", repro + ["lint", target], env, work, expect)

    print("benchmarks/:", flush=True)
    # From the root: the benchmark modules import ``benchmarks.conftest``.
    # pytest-benchmark pauses any profile hook while it times a function;
    # disabled, it calls the function once, hook in place.
    run("pytest benchmarks", [
        python, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
        "-p", "call_audit_plugin", "-p", "no:cacheprovider",
    ], dict(env, **BENCH_SCALE), ROOT)

    print("bench/run.py:", flush=True)
    for workload in WORKLOADS:
        run(workload, [
            python, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
            "--seconds", "2", "--out", os.path.join(work, "results.jsonl"),
        ], env, work)


def functions(path: str) -> List[Tuple[int, int, str]]:
    """``(first line, last line, qualified name)`` of each def in a file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def report(reached: Set[Tuple[str, int]]) -> int:
    """Print what was not reached; the exit status."""
    total = unreached_lines = src_lines = 0
    dead: List[str] = []
    modules: List[str] = []
    for path in sorted(glob.glob(os.path.join(SOURCE, "**", "*.py"), recursive=True)):
        path = os.path.realpath(path)
        relative = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
        defs = functions(path)
        owner: Dict[int, int] = {}
        for index, (first, last, _) in sorted(enumerate(defs), key=lambda d: d[1][0]):
            for line in range(first, last + 1):
                owner[line] = index
        sizes = [0] * len(defs)
        for index in owner.values():
            sizes[index] += 1
        total += len(owner)
        hit = [(path, first) in reached for first, _, _ in defs]
        for index, (first, _, name) in enumerate(defs):
            if not hit[index]:
                unreached_lines += sizes[index]
                dead.append(f"  {relative}:{first} {name} ({sizes[index]} lines)")
        if defs and not any(hit):
            modules.append(f"  {relative}")
    print(f"unreached functions ({len(dead)}):")
    print("\n".join(dead))
    print(f"unreached modules ({len(modules)}):")
    print("\n".join(modules) if modules else "  none")
    print(
        f"summary: {unreached_lines} of {total} function lines unreached, "
        f"{len(modules)} modules unreached, src/ holds {src_lines} lines"
    )
    if unreached_lines > MAX_UNREACHED_LINES:
        print(f"over the ceiling: more than {MAX_UNREACHED_LINES} function lines unreached")
        return 1
    return 1 if modules else 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="call-audit-") as scratch:
        hooks, records, work = (os.path.join(scratch, d) for d in ("hooks", "records", "work"))
        for directory in (hooks, records, work):
            os.mkdir(directory)
        with open(os.path.join(hooks, "sitecustomize.py"), "w", encoding="utf-8") as handle:
            handle.write(HOOK.format(source=os.path.realpath(SOURCE), records=records))
        with open(os.path.join(hooks, "call_audit_plugin.py"), "w", encoding="utf-8") as handle:
            handle.write(PLUGIN)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([hooks, SOURCE]))
        drive(env, work)
        reached: Set[Tuple[str, int]] = set()
        for name in os.listdir(records):
            with open(os.path.join(records, name), encoding="utf-8") as handle:
                for row in handle:
                    path, line = row.rstrip("\n").split("\t")
                    reached.add((path, int(line)))
    return report(reached)


if __name__ == "__main__":
    sys.exit(main())
