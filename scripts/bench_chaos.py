#!/usr/bin/env python3
"""Benchmark the chaos shim's overhead on the live loopback path.

The chaos layer's cost contract (docs/robustness.md): wrapping a
:class:`repro.service.MonitorDaemon`'s datagram intake with a
:class:`repro.chaos.ChaosIntake` carrying an **empty** fault plan adds
less than 10% to the measured intake latency — the shim must be cheap
enough to leave attached while reproducing an incident.

Two measurements back the contract:

* end-to-end: the bench_service intake-latency probe (emitter send
  timestamp to daemon dispatch, shared epoch-anchored clock), run twice
  per repeat — bare daemon vs shimmed daemon — taking the best mean of
  each arm across repeats to suppress loopback noise;
* in isolation: the shim's per-datagram cost (decode + decide +
  deliver) on a canned heartbeat, which is the exact code added to the
  hot path.

Results are appended to a JSON file (default ``BENCH_chaos.json``);
``benchmarks/test_bench_chaos.py`` asserts the contract on every run.

Usage::

    PYTHONPATH=src python scripts/bench_chaos.py \
        [--endpoints 10] [--eta 0.05] [--duration 2.0] \
        [--repeats 3] [--output BENCH_chaos.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.chaos import ChaosEngine, FaultPlan, attach_backend  # noqa: E402
from repro.net.message import Datagram  # noqa: E402
from repro.net.udp import encode_datagram  # noqa: E402
from repro.service import HeartbeatFleet, MonitorDaemon  # noqa: E402

#: The contract: empty-plan shim overhead stays under 10% of intake
#: latency.  Loopback latency has a noise floor, so the guard also
#: accepts any absolute delta under ``NOISE_FLOOR_MS``.
OVERHEAD_BUDGET_RATIO = 0.10
NOISE_FLOOR_MS = 0.05


async def _measure_intake_latency(
    *,
    endpoints: int,
    eta: float,
    duration: float,
    with_shim: bool,
    seed: int,
) -> Dict:
    daemon = MonitorDaemon(
        port=0,
        http_port=None,
        eta=eta,
        detector_ids=["Last+CI_med"],
        initial_timeout=10.0 * eta,
    )
    if with_shim:
        intake = attach_backend(
            ChaosEngine(FaultPlan(name="empty")), daemon.network, name="daemon"
        )
    await daemon.start()
    if with_shim:
        intake.arm(daemon.scheduler.now)

    latencies: List[float] = []
    original_dispatch = daemon.dispatch

    def timed_dispatch(message):
        if message.kind == "heartbeat" and message.timestamp is not None:
            latencies.append(daemon.scheduler.now - message.timestamp)
        original_dispatch(message)

    daemon.dispatch = timed_dispatch

    names = [f"bench{i:03d}" for i in range(endpoints)]
    fleet = HeartbeatFleet(names, daemon.udp_endpoint, eta=eta, seed=seed)
    await fleet.start()
    await asyncio.sleep(duration)
    await fleet.stop()
    await daemon.stop()
    return {
        "heartbeats": len(latencies),
        "mean_ms": (
            1e3 * sum(latencies) / len(latencies) if latencies else math.nan
        ),
    }


def _measure_shim_unit_cost(iterations: int = 20000) -> float:
    """Per-datagram shim cost in microseconds (decode+decide+deliver)."""
    from repro.chaos import ChaosIntake

    class _Clock:
        now = 0.0

    sink: List[bytes] = []
    intake = ChaosIntake(
        ChaosEngine(FaultPlan(name="empty")),
        lambda data, *rest: sink.append(data),
        scheduler_fn=lambda: _Clock,
        name="bench",
    )
    intake.arm(0.0)
    raw = encode_datagram(Datagram(
        kind="heartbeat", source="bench000", destination="monitor",
        seq=1, timestamp=1.0,
    ))
    started = time.perf_counter()
    for _ in range(iterations):
        intake(raw)
    elapsed = time.perf_counter() - started
    assert len(sink) == iterations
    return 1e6 * elapsed / iterations


def run_benchmark(
    *,
    endpoints: int = 10,
    eta: float = 0.05,
    duration: float = 2.0,
    repeats: int = 3,
    seed: int = 11,
) -> Dict:
    """Run both arms ``repeats`` times; best mean per arm is the result."""
    bare_means: List[float] = []
    shim_means: List[float] = []
    heartbeats = 0
    for index in range(repeats):
        for with_shim, bucket in ((False, bare_means), (True, shim_means)):
            record = asyncio.run(_measure_intake_latency(
                endpoints=endpoints, eta=eta, duration=duration,
                with_shim=with_shim, seed=seed + index,
            ))
            bucket.append(record["mean_ms"])
            heartbeats += record["heartbeats"]
    bare_best = min(bare_means)
    shim_best = min(shim_means)
    delta_ms = shim_best - bare_best
    ratio = delta_ms / bare_best if bare_best > 0 else math.nan
    return {
        "endpoints": endpoints,
        "eta_seconds": eta,
        "duration_seconds": duration,
        "repeats": repeats,
        "heartbeats_measured": heartbeats,
        "bare_intake_mean_ms": round(bare_best, 4),
        "shim_intake_mean_ms": round(shim_best, 4),
        "overhead_delta_ms": round(delta_ms, 4),
        "overhead_ratio": round(ratio, 4),
        "shim_unit_cost_us": round(_measure_shim_unit_cost(), 3),
        "budget_ratio": OVERHEAD_BUDGET_RATIO,
        "noise_floor_ms": NOISE_FLOOR_MS,
        "within_budget": (
            ratio < OVERHEAD_BUDGET_RATIO or delta_ms < NOISE_FLOOR_MS
        ),
    }


def format_report(record: Dict) -> str:
    return (
        f"intake latency bare {record['bare_intake_mean_ms']:.4f}ms, "
        f"shimmed {record['shim_intake_mean_ms']:.4f}ms "
        f"(delta {record['overhead_delta_ms']:+.4f}ms, "
        f"ratio {record['overhead_ratio']:+.1%}); "
        f"shim unit cost {record['shim_unit_cost_us']:.2f}us/datagram; "
        f"contract < {record['budget_ratio']:.0%} "
        f"(noise floor {record['noise_floor_ms']}ms): "
        f"{'OK' if record['within_budget'] else 'EXCEEDED'}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--endpoints", type=int, default=10)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    record = run_benchmark(
        endpoints=args.endpoints, eta=args.eta, duration=args.duration,
        repeats=args.repeats, seed=args.seed,
    )
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record["python"] = platform.python_version()

    if args.output == "-":
        print(json.dumps(record, indent=2))
        print(format_report(record))
        return 0 if record["within_budget"] else 1

    history = []
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                history = json.load(handle)
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    with open(args.output, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")

    print(json.dumps(record, indent=2))
    print(format_report(record))
    print(f"appended to {args.output} ({len(history)} run(s) recorded)")
    return 0 if record["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
