#!/usr/bin/env python3
"""Benchmark the observability layer: incremental ``/metrics``, tracing,
the windowed QoS history store, trace analysis and drift monitoring.

Five independent measurements:

* **Exposition** — a daemon with ``--endpoints x --detectors`` live
  series, every accumulator carrying real samples.  Compares the legacy
  full render (``render_prometheus(daemon.status())``, which re-closes
  every accumulator at scrape time) against the incremental exporter's
  no-change scrape (cached QoS body + fresh head).  The contract proved
  by ``benchmarks/test_bench_obs.py`` is a >= 10x speedup at 50 x 30.
* **Tracing** — per-event cost of ``TraceRecorder.emit`` with the ring
  alone and with JSONL persistence, and of ``emit_batch`` at the detector
  bank's thirty rows per heartbeat.
* **History** — transition insert throughput, window-query latency and
  the per-endpoint query (thirty detectors together) of
  :class:`repro.obs.WindowedQosStore`.
* **Analyze** — ``repro trace-analyze``'s core (load + full analysis)
  over a synthesized ~100k-span JSONL trace.  The contract proved by
  ``benchmarks/test_bench_obs.py`` is completion within seconds.
* **Drift** — per-heartbeat cost of :class:`repro.obs.DriftMonitor`
  intake and the latency of one full evaluation pass.

Results are appended to a JSON history file (default ``BENCH_obs.json``),
the same layout as ``scripts/bench_service.py``.

Usage::

    PYTHONPATH=src python scripts/bench_obs.py \
        [--endpoints 50] [--detectors 30] [--output BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from typing import Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.fd.combinations import combination_ids  # noqa: E402
from repro.obs import TraceRecorder, WindowedQosStore  # noqa: E402
from repro.service import MonitorDaemon  # noqa: E402
from repro.service.exporter import render_prometheus  # noqa: E402


def _populate(daemon: MonitorDaemon, endpoints: int) -> int:
    """Register endpoints and feed every accumulator a realistic mix of
    samples (one mistake, one detected crash) so histogram and summary
    rendering is exercised, not skipped."""
    series = 0
    for i in range(endpoints):
        name = f"bench{i:03d}"
        monitor = daemon.add_endpoint(name)
        # Accumulators start at registration time and require
        # non-decreasing observations, so the synthetic transitions sit
        # a few hundred microseconds after it — already in the past by
        # the time anything scrapes (the caller sleeps briefly).
        base = daemon.scheduler.now
        for detector_id, accumulator in monitor.accumulators.items():
            accumulator.observe_suspect(base + 0.0001)
            accumulator.observe_trust(base + 0.0002)
            accumulator.observe_crash(base + 0.0003)
            accumulator.observe_suspect(base + 0.0004)
            accumulator.observe_restore(base + 0.0005)
            accumulator.observe_trust(base + 0.0006)
            daemon.obs.on_detector_transition(
                name, detector_id, False, base + 0.0006
            )
            series += 1
    return series


async def _bench_exposition(
    endpoints: int, detectors: int, full_iters: int, scrape_iters: int
) -> Dict:
    daemon = MonitorDaemon(
        port=0,
        http_port=None,
        eta=1.0,
        detector_ids=combination_ids()[:detectors],
    )
    await daemon.start()
    try:
        series = _populate(daemon, endpoints)
        await asyncio.sleep(0.01)  # let the clock pass every transition

        # Legacy path: recompute + render everything at scrape time.
        started = time.perf_counter()
        for _ in range(full_iters):
            full_text = render_prometheus(daemon.status())
        full_ms = 1e3 * (time.perf_counter() - started) / full_iters

        # First incremental scrape renders every dirty series once.
        started = time.perf_counter()
        incremental_text = daemon.metrics_text()
        cold_ms = 1e3 * (time.perf_counter() - started)

        # Steady state: no transitions between scrapes, body from cache.
        started = time.perf_counter()
        for _ in range(scrape_iters):
            daemon.metrics_text()
        cached_ms = 1e3 * (time.perf_counter() - started) / scrape_iters

        # One transition between scrapes: re-render exactly one series.
        monitor = daemon.registry.get("bench000")
        detector_id = next(iter(monitor.accumulators))
        started = time.perf_counter()
        for _ in range(scrape_iters):
            daemon.obs.on_detector_transition(
                "bench000", detector_id, False, daemon.scheduler.now
            )
            daemon.metrics_text()
        dirty_ms = 1e3 * (time.perf_counter() - started) / scrape_iters

        exporter = daemon.exporter
        return {
            "endpoints": endpoints,
            "detector_combinations": detectors,
            "series": series,
            "full_render_ms": round(full_ms, 3),
            "cold_incremental_ms": round(cold_ms, 3),
            "cached_scrape_ms": round(cached_ms, 4),
            "dirty_one_series_scrape_ms": round(dirty_ms, 4),
            "speedup_cached_vs_full": round(full_ms / cached_ms, 1),
            "full_metrics_bytes": len(full_text.encode("utf-8")),
            "incremental_metrics_bytes": len(
                incremental_text.encode("utf-8")
            ),
            "series_renders_total": exporter.series_renders_total,
            "body_cache_hits_total": exporter.body_cache_hits_total,
        }
    finally:
        await daemon.stop()


def _bench_trace(events: int, tmp_dir: str) -> Dict:
    ring = TraceRecorder(ring_capacity=4096)
    started = time.perf_counter()
    for i in range(events):
        ring.emit(float(i), "receive", "bench", seq=i, delay=0.01)
    ring_ns = 1e9 * (time.perf_counter() - started) / events
    ring.close()

    path = os.path.join(tmp_dir, "bench-trace.jsonl")
    jsonl = TraceRecorder(path, ring_capacity=4096)
    started = time.perf_counter()
    for i in range(events):
        jsonl.emit(float(i), "receive", "bench", seq=i, delay=0.01)
    jsonl_ns = 1e9 * (time.perf_counter() - started) / events
    stats = jsonl.stats()
    jsonl.close()
    os.unlink(path)

    # What the detector bank emits per heartbeat: thirty ``freshness``
    # rows in one batch, time-outs and deadlines of full float precision.
    detector_ids = combination_ids()
    batches = max(1, events // len(detector_ids))
    batched = TraceRecorder(path, ring_capacity=4096)
    started = time.perf_counter()
    for i in range(batches):
        t = 1000.0 + 0.1 * i
        batched.emit_batch(
            t,
            "freshness",
            "bench",
            [
                (detector_id, None, 0.2 + 1e-7 * (i + row), t + 0.3 + 1e-7 * row)
                for row, detector_id in enumerate(detector_ids)
            ],
            seq=i,
        )
    batch_ns = 1e9 * (time.perf_counter() - started) / (
        batches * len(detector_ids)
    )
    batch_stats = batched.stats()
    batched.close()
    os.unlink(path)
    return {
        "events": events,
        "ring_only_ns_per_event": round(ring_ns, 1),
        "jsonl_ns_per_event": round(jsonl_ns, 1),
        "jsonl_batch_ns_per_event": round(batch_ns, 1),
        "jsonl_bytes_per_event": round(stats["bytes_total"] / events, 1),
        "jsonl_batch_bytes_per_event": round(
            batch_stats["bytes_total"] / batch_stats["events_total"], 1
        ),
        "self_measured_overhead_s": round(stats["overhead_seconds"], 4),
    }


def _synthesize_trace(path: str, spans: int) -> int:
    """Write a realistic JSONL trace of ~``spans`` events: clean
    four-span heartbeat journeys with a suspicion every 500 heartbeats.
    Returns the actual event count."""
    eta = 0.1
    written = 0
    recorder = TraceRecorder(path, max_bytes=1 << 30)
    heartbeats = max(1, spans // 4)
    for seq in range(heartbeats):
        send_t = seq * eta
        delay = 0.01 + 0.002 * (seq % 7)
        receive_t = send_t + delay
        recorder.emit(send_t, "send", "bench", seq=seq)
        recorder.emit(receive_t, "receive", "bench", seq=seq, delay=delay)
        recorder.emit(receive_t + 1e-4, "fanout", "bench", seq=seq)
        recorder.emit(
            receive_t + 2e-4, "freshness", "bench", detector="fd", seq=seq,
            timeout=0.03, deadline=receive_t + eta + 0.03,
        )
        written += 4
        if seq % 500 == 499:
            recorder.emit(
                receive_t + 0.05, "suspect", "bench", detector="fd", seq=seq
            )
            recorder.emit(
                receive_t + 0.08, "trust", "bench", detector="fd", seq=seq
            )
            written += 2
    recorder.close()
    return written


def _bench_analyze(spans: int, tmp_dir: str) -> Dict:
    """Time ``repro trace-analyze``'s core over a ~``spans``-span file."""
    import repro.obs.analyze as obs_analyze

    path = os.path.join(tmp_dir, "bench-analyze.jsonl")
    events_written = _synthesize_trace(path, spans)
    try:
        started = time.perf_counter()
        events = obs_analyze.load_events([path])
        load_s = time.perf_counter() - started

        started = time.perf_counter()
        analysis = obs_analyze.analyze(events)
        analyze_s = time.perf_counter() - started
    finally:
        os.unlink(path)
    assert analysis.events_total == events_written
    assert analysis.qos and analysis.mortems
    total_s = load_s + analyze_s
    return {
        "spans": events_written,
        "load_s": round(load_s, 3),
        "analyze_s": round(analyze_s, 3),
        "total_s": round(total_s, 3),
        "spans_per_s": round(events_written / total_s, 1),
        "post_mortems": len(analysis.mortems),
    }


def _bench_drift(observations: int) -> Dict:
    """Per-heartbeat cost of DriftMonitor.observe and evaluate latency."""
    from repro.obs.drift import DriftMonitor

    monitor = DriftMonitor(window_samples=512, baseline_samples=512)
    started = time.perf_counter()
    for i in range(observations):
        monitor.observe("bench", i * 0.1, 0.01 + 0.002 * (i % 7), seq=i)
    observe_ns = 1e9 * (time.perf_counter() - started) / observations

    started = time.perf_counter()
    report = monitor.evaluate(observations * 0.1)
    evaluate_ms = 1e3 * (time.perf_counter() - started)
    assert report["endpoints"]["bench"]["status"] == "ok"
    return {
        "observations": observations,
        "observe_ns_per_heartbeat": round(observe_ns, 1),
        "evaluate_ms": round(evaluate_ms, 3),
        "ks": round(report["endpoints"]["bench"]["ks"], 4),
    }


def _bench_history(transitions: int) -> Dict:
    store = WindowedQosStore(":memory:", retention=float(transitions))
    try:
        started = time.perf_counter()
        for i in range(transitions):
            t = float(i)
            if i % 2 == 0:
                store.record_suspect("bench", "fd", t)
            else:
                store.record_trust("bench", "fd", t)
        store.flush()
        insert_s = time.perf_counter() - started

        start = transitions * 0.25
        end = transitions * 0.75
        started = time.perf_counter()
        window = store.query("bench", "fd", start, end)
        query_ms = 1e3 * (time.perf_counter() - started)
        assert window.qos.mistakes  # the window really replayed rows

        # What ``/qos?endpoint=`` asks: thirty detectors of one endpoint,
        # a few mistakes each inside the window, answered together.
        detector_ids = combination_ids()
        for i in range(8):
            for detector_id in detector_ids:
                store.record_suspect("fleet", detector_id, 10.0 * i)
                store.record_trust("fleet", detector_id, 10.0 * i + 0.5)
        store.flush()
        rounds = 20
        started = time.perf_counter()
        for _ in range(rounds):
            windows = store.query_endpoint("fleet", detector_ids, 5.0, 75.0)
        endpoint_ms = 1e3 * (time.perf_counter() - started) / rounds
        assert all(len(w.qos.mistakes) == 7 for w in windows)
        return {
            "transitions": transitions,
            "insert_rows_per_s": round(transitions / insert_s, 1),
            "window_query_ms": round(query_ms, 3),
            "window_rows_replayed": int(transitions * 0.5),
            "endpoint_query_ms": round(endpoint_ms, 3),
            "endpoint_query_detectors": len(detector_ids),
        }
    finally:
        store.close()


def run_benchmark(
    endpoints: int = 50,
    detectors: int = 30,
    *,
    full_iters: int = 5,
    scrape_iters: int = 50,
    trace_events: int = 100_000,
    history_transitions: int = 50_000,
    analyze_spans: int = 100_000,
    drift_observations: int = 100_000,
    tmp_dir: str = ".",
) -> Dict:
    """Run all five measurements and return one JSON-able record."""
    record = {
        "exposition": asyncio.run(
            _bench_exposition(endpoints, detectors, full_iters, scrape_iters)
        ),
        "trace": _bench_trace(trace_events, tmp_dir),
        "history": _bench_history(history_transitions),
        "analyze": _bench_analyze(analyze_spans, tmp_dir),
        "drift": _bench_drift(drift_observations),
    }
    return record


def format_report(record: Dict) -> str:
    e = record["exposition"]
    t = record["trace"]
    h = record["history"]
    a = record["analyze"]
    d = record["drift"]
    return "\n".join(
        [
            f"exposition ({e['endpoints']} endpoints x "
            f"{e['detector_combinations']} detectors = {e['series']} series)",
            f"  full render          : {e['full_render_ms']:10.3f} ms",
            f"  cold incremental     : {e['cold_incremental_ms']:10.3f} ms",
            f"  cached scrape        : {e['cached_scrape_ms']:10.4f} ms",
            f"  dirty-1-series scrape: "
            f"{e['dirty_one_series_scrape_ms']:10.4f} ms",
            f"  speedup (cached/full): {e['speedup_cached_vs_full']:10.1f} x",
            f"trace ({t['events']} events)",
            f"  ring only            : {t['ring_only_ns_per_event']:10.1f} "
            "ns/event",
            f"  ring + JSONL         : {t['jsonl_ns_per_event']:10.1f} "
            "ns/event",
            f"  ring + JSONL, batch  : {t['jsonl_batch_ns_per_event']:10.1f} "
            "ns/event (30 rows per batch)",
            f"history ({h['transitions']} transitions)",
            f"  insert               : {h['insert_rows_per_s']:10.1f} rows/s",
            f"  window query         : {h['window_query_ms']:10.3f} ms",
            f"  endpoint query       : {h['endpoint_query_ms']:10.3f} ms "
            f"({h['endpoint_query_detectors']} detectors)",
            f"analyze ({a['spans']} spans)",
            f"  load                 : {a['load_s']:10.3f} s",
            f"  analyze              : {a['analyze_s']:10.3f} s",
            f"  throughput           : {a['spans_per_s']:10.1f} spans/s",
            f"drift ({d['observations']} observations)",
            f"  observe              : "
            f"{d['observe_ns_per_heartbeat']:10.1f} ns/heartbeat",
            f"  evaluate             : {d['evaluate_ms']:10.3f} ms",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--endpoints", type=int, default=50)
    parser.add_argument(
        "--detectors",
        type=int,
        default=30,
        help="number of detector combinations per endpoint (1..30)",
    )
    parser.add_argument("--trace-events", type=int, default=100_000)
    parser.add_argument("--history-transitions", type=int, default=50_000)
    parser.add_argument("--analyze-spans", type=int, default=100_000)
    parser.add_argument("--drift-observations", type=int, default=100_000)
    parser.add_argument("--output", default="BENCH_obs.json")
    args = parser.parse_args(argv)
    if not 1 <= args.detectors <= 30:
        parser.error("--detectors must be in 1..30")

    result = run_benchmark(
        args.endpoints,
        args.detectors,
        trace_events=args.trace_events,
        history_transitions=args.history_transitions,
        analyze_spans=args.analyze_spans,
        drift_observations=args.drift_observations,
    )
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result["python"] = platform.python_version()

    if args.output == "-":
        print(format_report(result))
        speedup = result["exposition"]["speedup_cached_vs_full"]
        if speedup < 10.0:
            print(f"WARNING: cached scrape only {speedup:.1f}x faster "
                  "(contract is >= 10x)")
        return 0

    history = []
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                history = json.load(handle)
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(result)
    with open(args.output, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")

    print(format_report(result))
    speedup = result["exposition"]["speedup_cached_vs_full"]
    if speedup < 10.0:
        print(f"WARNING: cached scrape only {speedup:.1f}x faster "
              "(contract is >= 10x)")
    print(f"\nappended to {args.output} ({len(history)} run(s) recorded)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
