"""Command-line interface to the reproduction's experiments.

Usage (also via ``python -m repro``):

.. code-block:: text

    repro characterize [--profile italy-japan] [--samples 100000]
    repro accuracy     [--count 100000] [--seed 5] [--profile ...]
    repro trace        --output delays.txt [--count 100000]
    repro select-order --input delays.txt [--max-p 3 --max-d 2 --max-q 3]
    repro qos          [--cycles 20000] [--runs 5] [--workers N]
                       [--detectors all|id,id,...]
                       [--engine simulator|replay]
    repro serve-monitor   [--port 9999] [--http-port 9100] [--eta 1.0]
                          [--trace [PATH]] [--history-db qos.sqlite]
                          [--drift-window 512] [--drift-baseline delays.txt]
    repro serve-heartbeat --names node-1,node-2 [--monitor-port 9999]
                          [--mttc 120 --ttr 20] [--trace [PATH]]
    repro qos-history     --db qos.sqlite [--window 3600]
                          [--endpoint node-1] [--detectors all|id,...]
    repro trace-analyze   --input fd-trace.jsonl [--merge hb-trace.jsonl]
                          [--history-db qos.sqlite] [--json]
    repro postmortem      --input fd-trace.jsonl [--endpoint node-1]
                          [--detector Last+CI_med] [--json]
    repro kv-sweep        [--etas 0.1,0.5,1.0] [--detectors all|id,...]
                          [--duration 120] [--workers N] [--output kv.json]
    repro chaos           (--plan plan.json | --add-channel)
                          [--target sim|daemon|kv] [--duration S]
                          [--save-plan PATH] [--output report.json]

Every subcommand prints its table or figure in the layout of the paper
(Tables 2-4, Figures 4-8) so terminal output can be compared directly.
The ``serve-*`` commands instead run the live fleet-monitoring service
(see ``docs/service.md``) until interrupted or ``--duration`` elapses;
``qos-history`` replays a monitor's windowed-QoS database offline (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments.accuracy import collect_delay_trace, predictor_accuracy
from repro.experiments.characterize import characterize_profile
from repro.experiments.kv_sweep import HEATMAP_METRICS as KV_HEATMAP_METRICS
from repro.experiments.qos import FIGURE_METRICS, figure_data
from repro.experiments.report import (
    format_figure_grid,
    format_predictor_accuracy_table,
    format_wan_table,
)
from repro.experiments.runner import aggregate_runs, run_repetitions
from repro.neko.config import ExperimentConfig
from repro.net.traces import DelayTrace
from repro.net.wan import PROFILES, get_profile
from repro.timeseries.selection import select_arima_order


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="italy-japan",
        choices=sorted(PROFILES),
        help="network profile (default: italy-japan)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Experimental Evaluation of the QoS of "
            "Failure Detectors on Wide Area Network' (DSN 2005)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    characterize = subparsers.add_parser(
        "characterize", help="measure a network profile (paper Table 4)"
    )
    _add_profile_argument(characterize)
    characterize.add_argument("--samples", type=int, default=100_000)
    characterize.add_argument("--seed", type=int, default=2)

    accuracy = subparsers.add_parser(
        "accuracy", help="rank predictors by msqerr (paper Table 3)"
    )
    _add_profile_argument(accuracy)
    accuracy.add_argument("--count", type=int, default=100_000)
    accuracy.add_argument("--seed", type=int, default=5)

    trace = subparsers.add_parser(
        "trace", help="collect a one-way delay trace and save it"
    )
    _add_profile_argument(trace)
    trace.add_argument("--output", required=True, help="output text file")
    trace.add_argument("--count", type=int, default=100_000)
    trace.add_argument("--seed", type=int, default=5)
    trace.add_argument("--eta", type=float, default=1.0)

    select = subparsers.add_parser(
        "select-order", help="grid-search an ARIMA order on a trace (Table 2)"
    )
    select.add_argument("--input", required=True, help="trace file to load")
    select.add_argument("--max-p", type=int, default=3)
    select.add_argument("--max-d", type=int, default=2)
    select.add_argument("--max-q", type=int, default=3)
    select.add_argument("--limit", type=int, default=5000,
                        help="use at most this many samples")

    qos = subparsers.add_parser(
        "qos", help="run the QoS campaign and print Figures 4-8"
    )
    _add_profile_argument(qos)
    qos.add_argument("--cycles", type=int, default=20_000,
                     help="heartbeat cycles per run (paper: 100000)")
    qos.add_argument("--runs", type=int, default=3, help="repetitions (paper: 13)")
    qos.add_argument("--mttc", type=float, default=120.0)
    qos.add_argument("--ttr", type=float, default=20.0)
    qos.add_argument("--eta", type=float, default=1.0)
    qos.add_argument("--seed", type=int, default=2005)
    qos.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the repetitions (0 = one per core, "
             "default: 1 = serial)",
    )
    qos.add_argument(
        "--detectors", default="all",
        help="'all' or comma-separated ids, e.g. Last+JAC_med,Arima+CI_low",
    )
    qos.add_argument(
        "--engine", choices=("simulator", "replay"), default="simulator",
        help="campaign engine: event-driven simulator (default, supports "
             "crashes) or the vectorized trace replay (crash-free "
             "configurations only, orders of magnitude faster)",
    )
    qos.add_argument("--chart", action="store_true",
                     help="also draw the figures as ASCII charts")
    qos.add_argument("--output", default=None,
                     help="save the pooled campaign as JSON")

    report = subparsers.add_parser(
        "report", help="re-print figures from a saved campaign JSON"
    )
    report.add_argument("--input", required=True, help="campaign JSON file")
    report.add_argument("--chart", action="store_true",
                        help="also draw the figures as ASCII charts")

    calibrate = subparsers.add_parser(
        "calibrate", help="fit a WAN profile to a measured delay trace"
    )
    calibrate.add_argument("--input", required=True, help="trace file to load")
    calibrate.add_argument("--check-samples", type=int, default=20_000,
                           help="samples for the fitted-profile check")

    monitor = subparsers.add_parser(
        "serve-monitor",
        help="run the live fleet-monitoring daemon (online QoS + metrics)",
    )
    monitor.add_argument("--host", default="127.0.0.1",
                         help="UDP bind host for heartbeat intake")
    monitor.add_argument("--port", type=int, default=9999,
                         help="UDP bind port (0 = ephemeral)")
    monitor.add_argument("--http-host", default="127.0.0.1",
                         help="bind host of the metrics/control HTTP endpoint")
    monitor.add_argument("--http-port", type=int, default=9100,
                         help="HTTP port (0 = ephemeral, -1 = disabled)")
    monitor.add_argument("--eta", type=float, default=1.0,
                         help="fleet heartbeat period, seconds")
    monitor.add_argument("--initial-timeout", type=float, default=None,
                         help="grace before the first heartbeat (default 10*eta)")
    monitor.add_argument(
        "--detectors", default="all",
        help="'all' or comma-separated ids, e.g. Last+JAC_med,Arima+CI_low",
    )
    monitor.add_argument("--endpoints", default="",
                         help="comma-separated endpoints to pre-register")
    monitor.add_argument("--no-auto-register", action="store_true",
                         help="only accept pre-registered / HTTP-added endpoints")
    monitor.add_argument("--duration", type=float, default=0.0,
                         help="run this many seconds then exit (0 = forever)")
    monitor.add_argument(
        "--trace", nargs="?", const="fd-trace.jsonl", default=None,
        metavar="PATH",
        help="record heartbeat span events to this JSONL file and serve "
             "/trace (default path when given bare: fd-trace.jsonl)",
    )
    monitor.add_argument("--trace-ring", type=int, default=4096,
                         help="in-memory span events kept for /trace")
    monitor.add_argument("--trace-max-bytes", type=int, default=16_000_000,
                         help="JSONL size before rotation (.1/.2 backups)")
    monitor.add_argument("--history-db", default=":memory:", metavar="PATH",
                         help="sqlite path of the windowed QoS store "
                              "(default: in-memory, lost on exit)")
    monitor.add_argument("--history-retention", type=float, default=3600.0,
                         help="seconds of QoS history kept, seconds")
    monitor.add_argument("--snapshot-interval", type=float, default=30.0,
                         help="period of persisted QoS snapshots (0 = off)")
    monitor.add_argument("--no-history", action="store_true",
                         help="disable the windowed QoS store and /qos")
    monitor.add_argument("--drift-window", type=int, default=0,
                         help="rolling delay window, heartbeats per "
                              "endpoint, of the online drift monitor "
                              "(0 = disabled)")
    monitor.add_argument("--drift-baseline", default=None, metavar="PATH",
                         help="delay trace (repro trace format) used as "
                              "the drift baseline for every endpoint "
                              "(default: self-baseline from the first "
                              "drift-window delays)")
    monitor.add_argument("--drift-interval", type=float, default=5.0,
                         help="seconds between drift evaluations")

    heartbeat = subparsers.add_parser(
        "serve-heartbeat",
        help="run heartbeat emitters (with optional live crash injection)",
    )
    heartbeat.add_argument("--names", required=True,
                           help="comma-separated endpoint names to emit as")
    heartbeat.add_argument("--monitor-host", default="127.0.0.1",
                           help="monitor daemon host")
    heartbeat.add_argument("--monitor-port", type=int, default=9999,
                           help="monitor daemon UDP port")
    heartbeat.add_argument("--eta", type=float, default=1.0,
                           help="heartbeat period, seconds")
    heartbeat.add_argument("--mttc", type=float, default=0.0,
                           help="mean time to crash (0 = no crash injection)")
    heartbeat.add_argument("--ttr", type=float, default=20.0,
                           help="time to repair, seconds")
    heartbeat.add_argument("--seed", type=int, default=None,
                           help="seed for crash draws and start phases")
    heartbeat.add_argument("--duration", type=float, default=0.0,
                           help="run this many seconds then exit (0 = forever)")
    heartbeat.add_argument(
        "--trace", nargs="?", const="hb-trace.jsonl", default=None,
        metavar="PATH",
        help="record emitted heartbeats as send span events to this JSONL "
             "file (default path when given bare: hb-trace.jsonl)",
    )

    history = subparsers.add_parser(
        "qos-history",
        help="query windowed QoS from a monitor's history database",
    )
    history.add_argument("--db", required=True,
                         help="sqlite file written by serve-monitor "
                              "--history-db")
    history.add_argument("--window", type=float, default=3600.0,
                         help="trailing window length, seconds")
    history.add_argument("--end", type=float, default=None,
                         help="window end time (default: newest recorded)")
    history.add_argument("--endpoint", default=None,
                         help="restrict to one endpoint")
    history.add_argument(
        "--detectors", default="all",
        help="'all' or comma-separated ids, e.g. Last+JAC_med,Arima+CI_low",
    )
    history.add_argument("--json", action="store_true",
                         help="print the raw JSON documents instead")

    analyze = subparsers.add_parser(
        "trace-analyze",
        help="replay a recorded span trace into per-hop latency "
             "breakdowns and QoS (see docs/observability.md)",
    )
    analyze.add_argument("--input", required=True, metavar="PATH",
                         help="fd-trace.jsonl written by serve-monitor "
                              "--trace (rotated backups read "
                              "automatically)")
    analyze.add_argument("--merge", action="append", default=[],
                         metavar="PATH",
                         help="additional trace file merged by timestamp "
                              "(e.g. an emitter's hb-trace.jsonl); "
                              "repeatable")
    analyze.add_argument("--end", type=float, default=None,
                         help="close open QoS intervals at this time "
                              "(default: the history database's newest "
                              "recorded time with --history-db, else "
                              "the last span)")
    analyze.add_argument(
        "--detectors", default="all",
        help="'all' or comma-separated ids, e.g. Last+JAC_med,Arima+CI_low",
    )
    analyze.add_argument("--history-db", default=None, metavar="PATH",
                         help="cross-check the span-derived QoS against "
                              "this monitor history database's newest "
                              "snapshots")
    analyze.add_argument("--json", action="store_true",
                         help="print the full analysis as JSON")

    postmortem = subparsers.add_parser(
        "postmortem",
        help="explain every suspect/trust span pair in a recorded trace",
    )
    postmortem.add_argument("--input", required=True, metavar="PATH",
                            help="fd-trace.jsonl written by serve-monitor "
                                 "--trace")
    postmortem.add_argument("--merge", action="append", default=[],
                            metavar="PATH",
                            help="additional trace file merged by "
                                 "timestamp; repeatable")
    postmortem.add_argument("--endpoint", default=None,
                            help="restrict to one endpoint")
    postmortem.add_argument("--detector", default=None,
                            help="restrict to one detector combination")
    postmortem.add_argument("--limit", type=int, default=0,
                            help="print at most this many post-mortems "
                                 "(0 = all)")
    postmortem.add_argument("--json", action="store_true",
                            help="print the post-mortems as JSON lines")

    kv_sweep = subparsers.add_parser(
        "kv-sweep",
        help="sweep (eta x detector) over the replicated KV service "
             "and report user-visible QoS (see docs/kv.md)",
    )
    _add_profile_argument(kv_sweep)
    kv_sweep.add_argument(
        "--etas", default="0.1,0.5,1.0",
        help="comma-separated heartbeat periods, seconds",
    )
    kv_sweep.add_argument(
        "--detectors", default="all",
        help="'all' or comma-separated ids, e.g. Last+JAC_med,Arima+CI_low",
    )
    kv_sweep.add_argument("--nodes", type=int, default=3,
                          help="replicas (primary + backups)")
    kv_sweep.add_argument("--clients", type=int, default=2,
                          help="closed-loop workload clients")
    kv_sweep.add_argument("--duration", type=float, default=120.0,
                          help="simulated seconds per grid cell")
    kv_sweep.add_argument("--seed", type=int, default=0)
    kv_sweep.add_argument("--read-fraction", type=float, default=0.7,
                          help="fraction of client ops that are GETs")
    kv_sweep.add_argument("--write-concern", type=int, default=0,
                          help="backup acks required before a SET is acked")
    kv_sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the grid (0 = one per core, "
             "default: 1 = serial)",
    )
    kv_sweep.add_argument(
        "--heatmap-metric", default="unavailability_s",
        choices=KV_HEATMAP_METRICS,
        help="metric shaded in the ASCII heatmap",
    )
    kv_sweep.add_argument("--output", default=None,
                          help="save the sweep (config, cells, leaderboard) "
                               "as JSON")

    chaos = subparsers.add_parser(
        "chaos",
        help="replay a fault-injection scenario against the sim campaign, "
             "the live loopback daemon, or a KV run (see docs/robustness.md)",
    )
    chaos.add_argument(
        "--target", choices=("sim", "daemon", "kv"), default="sim",
        help="what to inject the plan into (default: sim)",
    )
    chaos.add_argument("--plan", default=None, metavar="PATH",
                       help="fault plan JSON to replay")
    chaos.add_argument(
        "--add-channel", action="store_true",
        help="generate an ADD-channel adversary plan instead of loading one",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="override the plan seed (also seeds --add-channel)")
    chaos.add_argument("--stabilization", type=float, default=20.0,
                       help="ADD-channel stabilization time, seconds")
    chaos.add_argument("--horizon", type=float, default=40.0,
                       help="ADD-channel plan horizon, seconds")
    chaos.add_argument("--duration", type=float, default=None,
                       help="run length, seconds (default: horizon * 1.5, "
                            "min 60 for sim/kv; 8 for daemon)")
    chaos.add_argument("--eta", type=float, default=None,
                       help="heartbeat period (default: 0.1 sim/kv, "
                            "0.25 daemon)")
    chaos.add_argument(
        "--detectors", default=None,
        help="comma-separated combination ids (default: Last+CI_med)",
    )
    chaos.add_argument("--save-plan", default=None, metavar="PATH",
                       help="also write the effective plan JSON here")
    chaos.add_argument("--output", default=None, metavar="PATH",
                       help="save the scenario report as JSON")

    from repro.lint.cli import add_lint_parser

    add_lint_parser(subparsers)
    return parser


def _command_characterize(args: argparse.Namespace) -> int:
    result = characterize_profile(
        get_profile(args.profile), samples=args.samples, seed=args.seed
    )
    print(format_wan_table(result))
    return 0


def _command_accuracy(args: argparse.Namespace) -> int:
    trace = collect_delay_trace(
        get_profile(args.profile), count=args.count, seed=args.seed
    )
    print(f"observed {len(trace)} delays ({args.count - len(trace)} lost)")
    print(format_predictor_accuracy_table(predictor_accuracy(trace)))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    trace = collect_delay_trace(
        get_profile(args.profile), count=args.count, seed=args.seed, eta=args.eta
    )
    trace.save(
        args.output,
        header=(
            f"one-way delays (s); profile={args.profile} count={args.count} "
            f"seed={args.seed} eta={args.eta}"
        ),
    )
    summary = trace.summary().as_milliseconds()
    print(f"wrote {len(trace)} delays to {args.output}")
    print(f"mean {summary.mean:.1f} ms, std {summary.std:.2f} ms, "
          f"min {summary.minimum:.1f} ms, max {summary.maximum:.1f} ms")
    return 0


def _command_select_order(args: argparse.Namespace) -> int:
    trace = DelayTrace.load(args.input)
    series = trace.delays[: args.limit]
    result = select_arima_order(
        series,
        p_range=range(0, args.max_p + 1),
        d_range=range(0, args.max_d + 1),
        q_range=range(0, args.max_q + 1),
    )
    print(f"searched p<=({args.max_p}) d<=({args.max_d}) q<=({args.max_q}) "
          f"on {series.size} samples")
    for order, score in result.ranked()[:8]:
        marker = "  <- selected" if order == result.best_order else ""
        print(f"  ARIMA{order}: msqerr = {score * 1e6:9.3f} ms^2{marker}")
    return 0


def _print_figures(pooled, *, chart: bool) -> None:
    from repro.experiments.chart import render_figure

    for metric, title in FIGURE_METRICS.items():
        data = figure_data(pooled, metric)
        if metric == "pa":
            print(format_figure_grid(data, title, unit="", scale=1.0, decimals=6))
        else:
            print(format_figure_grid(data, title, unit="ms", scale=1e3))
        if chart:
            print()
            print(render_figure(data, title, log_scale=(metric == "tmr")))
        print()


def _command_qos(args: argparse.Namespace) -> int:
    if args.detectors.strip().lower() == "all":
        detectors: Optional[List[str]] = None
    else:
        detectors = [d.strip() for d in args.detectors.split(",") if d.strip()]
        if not detectors:
            print("error: --detectors must name at least one combination",
                  file=sys.stderr)
            return 2
    config = ExperimentConfig(
        num_cycles=args.cycles,
        mttc=args.mttc,
        ttr=args.ttr,
        eta=args.eta,
        profile_name=args.profile,
        seed=args.seed,
    )
    workers: Optional[int] = args.workers if args.workers != 0 else None
    if workers is not None and workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    print(f"running {args.runs} x [{config.describe()}] engine={args.engine}")
    try:
        results = run_repetitions(
            config, args.runs, detectors, workers=workers, engine=args.engine
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    pooled = aggregate_runs(results)
    print(f"total crashes: {sum(r.crashes for r in results)}\n")
    _print_figures(pooled, chart=args.chart)
    if args.output:
        from repro.experiments.store import save_campaign

        save_campaign(args.output, pooled, config, runs=args.runs)
        print(f"saved campaign to {args.output}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.store import load_campaign

    pooled = load_campaign(args.input)
    print(f"loaded {len(pooled)} detectors from {args.input}\n")
    _print_figures(pooled, chart=args.chart)
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.net.calibrate import calibrate as fit

    trace = DelayTrace.load(args.input)
    result = fit(trace)
    print(f"calibrated from {len(trace)} samples:")
    print(f"  floor            : {result.floor * 1e3:8.2f} ms")
    print(f"  base queueing    : {result.base_queue * 1e3:8.2f} ms")
    print(f"  white jitter std : {result.white_std * 1e3:8.2f} ms")
    print(f"  epoch amplitude  : {result.telegraph_high * 1e3:8.2f} ms "
          f"(dwell {result.telegraph_dwell_low:.0f}/"
          f"{result.telegraph_dwell_high:.0f} samples)")
    print(f"  slow drift std   : {result.slow_std * 1e3:8.2f} ms")
    print(f"  spikes           : p={result.spike_probability:.2e}, "
          f"{result.spike_min * 1e3:.0f}-{result.spike_max * 1e3:.0f} ms")
    profile = result.build_profile()
    check = characterize_profile(profile, samples=args.check_samples)
    print("\nfitted profile check:")
    print(format_wan_table(check))
    return 0


def _parse_detectors(spec: str) -> Optional[List[str]]:
    if spec.strip().lower() == "all":
        return None
    detectors = [d.strip() for d in spec.split(",") if d.strip()]
    if not detectors:
        raise ValueError("--detectors must name at least one combination")
    return detectors


async def _run_until(duration: float, stoppers) -> None:
    """Serve until Ctrl-C or ``duration`` seconds, then stop gracefully.

    ``stoppers`` are awaited in order on the way out (daemon/fleet
    ``stop`` coroutine factories), so shutdown is always the graceful
    bounded-drain path.
    """
    import asyncio

    try:
        if duration > 0:
            # fdlint: disable=clock-discipline (the serve commands run in real time; --duration is wall-clock by contract)
            await asyncio.sleep(duration)
        else:
            await asyncio.Event().wait()  # parked until cancelled
    except asyncio.CancelledError:  # pragma: no cover - signal path
        pass
    finally:
        for stopper in stoppers:
            await stopper()


def _command_serve_monitor(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import TraceRecorder, WindowedQosStore
    from repro.service import MonitorDaemon

    try:
        detectors = _parse_detectors(args.detectors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    endpoints = [e.strip() for e in args.endpoints.split(",") if e.strip()]
    tracer = (
        TraceRecorder(
            args.trace,
            ring_capacity=args.trace_ring,
            max_bytes=args.trace_max_bytes,
        )
        if args.trace is not None
        else None
    )
    history = (
        None
        if args.no_history
        else WindowedQosStore(args.history_db, retention=args.history_retention)
    )
    baseline = None
    if args.drift_baseline is not None:
        if args.drift_window <= 0:
            print("error: --drift-baseline requires --drift-window > 0",
                  file=sys.stderr)
            return 2
        try:
            baseline = DelayTrace.load(args.drift_baseline).delays
        except (OSError, ValueError) as exc:
            print(f"error: cannot load drift baseline: {exc}", file=sys.stderr)
            return 2
    daemon = MonitorDaemon(
        host=args.host,
        port=args.port,
        http_host=args.http_host,
        http_port=None if args.http_port < 0 else args.http_port,
        eta=args.eta,
        detector_ids=detectors,
        initial_timeout=args.initial_timeout,
        auto_register=not args.no_auto_register,
        tracer=tracer,
        history=history,
        snapshot_interval=args.snapshot_interval,
        drift_window=max(0, args.drift_window),
        drift_baseline=baseline,
        drift_interval=args.drift_interval,
    )

    async def serve() -> None:
        await daemon.start()
        for name in endpoints:
            daemon.add_endpoint(name)
        host, port = daemon.udp_endpoint
        n = len(daemon.detector_ids)
        print(f"monitor: heartbeat intake on udp://{host}:{port} "
              f"({n} detector combinations per endpoint)")
        if daemon.http_endpoint is not None:
            http_host, http_port = daemon.http_endpoint
            routes = "/status, /healthz, /endpoints"
            if history is not None:
                routes += ", /qos"
            if tracer is not None:
                routes += ", /trace"
            if daemon.drift is not None:
                routes += ", /drift"
            print(f"monitor: metrics on http://{http_host}:{http_port}/metrics "
                  f"(also {routes})")
        if tracer is not None:
            print(f"monitor: tracing heartbeat spans to {args.trace}")
        if history is not None and args.history_db != ":memory:":
            print(f"monitor: windowed QoS history in {args.history_db} "
                  f"(retention {args.history_retention:.0f}s)")
        if daemon.drift is not None:
            source = (args.drift_baseline if args.drift_baseline is not None
                      else "self-baseline")
            print(f"monitor: drift monitor on ({args.drift_window} "
                  f"heartbeats/endpoint vs {source}, evaluated every "
                  f"{args.drift_interval:g}s)")
        await _run_until(args.duration, [daemon.stop])

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0


def _command_qos_history(args: argparse.Namespace) -> int:
    import json as json_module
    import os

    from repro.obs import WindowedQosStore

    if not os.path.exists(args.db):
        print(f"error: no such history database: {args.db}", file=sys.stderr)
        return 2
    try:
        detectors = _parse_detectors(args.detectors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.window <= 0:
        print("error: --window must be > 0", file=sys.stderr)
        return 2
    store = WindowedQosStore(args.db, retention=float(args.window))
    try:
        end = args.end if args.end is not None else store.latest_time()
        if end is None:
            print(f"history database {args.db} is empty")
            return 0
        start = end - args.window
        names = (
            [args.endpoint] if args.endpoint is not None else store.endpoints()
        )
        windows = []
        for name in names:
            ids = detectors if detectors is not None else store.detectors(name)
            windows.extend(store.query_endpoint(name, ids, start, end))
    finally:
        store.close()
    if args.json:
        for window in windows:
            print(json_module.dumps(window.to_dict()))
        return 0
    print(f"window ({start:.3f}, {end:.3f}] = trailing {args.window:.0f}s "
          f"from {args.db}")
    header = (f"{'endpoint':<16} {'detector':<16} {'T_D ms':>9} "
              f"{'T_M ms':>9} {'T_MR s':>9} {'P_A':>9} {'mist':>5}")
    print(header)
    print("-" * len(header))

    def fmt(value, scale=1.0):
        return "-" if value is None else f"{value * scale:9.3f}"

    for window in windows:
        qos = window.qos
        t_d = qos.t_d
        t_m = qos.t_m
        t_mr = qos.t_mr
        print(f"{window.endpoint:<16} {window.detector:<16} "
              f"{fmt(t_d.mean if t_d else None, 1e3):>9} "
              f"{fmt(t_m.mean if t_m else None, 1e3):>9} "
              f"{fmt(t_mr.mean if t_mr else None):>9} "
              f"{qos.p_a:9.6f} {len(qos.mistakes):>5}")
    return 0


def _command_trace_analyze(args: argparse.Namespace) -> int:
    import json as json_module

    # The package __init__ re-exports the analyze() function under the
    # submodule's name, so import the module by its full path.
    import repro.obs.analyze as obs_analyze

    try:
        detectors = _parse_detectors(args.detectors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        events = obs_analyze.load_events([args.input] + list(args.merge))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = None
    end_time = args.end
    if args.history_db:
        import os

        from repro.obs import WindowedQosStore

        if not os.path.exists(args.history_db):
            print(f"error: no such history database: {args.history_db}",
                  file=sys.stderr)
            return 2
        store = WindowedQosStore(args.history_db)
        try:
            reference = obs_analyze.history_reference(store)
            if end_time is None:
                # The daemon may outlive the last span (a stopped fleet
                # leaves open suspicions accruing wall time until the
                # shutdown snapshot). Close the replay at the store's
                # newest recorded time so both sides describe the same
                # observation window.
                end_time = store.latest_time()
        finally:
            store.close()
    analysis = obs_analyze.analyze(
        events, end_time=end_time, detectors=detectors
    )
    if args.json:
        print(json_module.dumps(analysis.to_dict(), sort_keys=True))
    else:
        print(obs_analyze.format_analysis(analysis))
    if reference is not None:
        problems = obs_analyze.cross_check(analysis, reference)
        if problems:
            print(f"\ncross-check vs {args.history_db}: "
                  f"{len(problems)} disagreement(s)")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"\ncross-check vs {args.history_db}: "
              f"{len(reference)} series agree")
    return 0


def _command_postmortem(args: argparse.Namespace) -> int:
    import json as json_module

    import repro.obs.analyze as obs_analyze

    try:
        events = obs_analyze.load_events([args.input] + list(args.merge))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mortems = obs_analyze.post_mortems(
        events, endpoint=args.endpoint, detector=args.detector
    )
    if args.limit > 0:
        mortems = mortems[: args.limit]
    if args.json:
        for mortem in mortems:
            print(json_module.dumps(mortem.to_dict(), sort_keys=True))
    else:
        print(obs_analyze.format_post_mortems(mortems))
    return 0


def _command_serve_heartbeat(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import HeartbeatFleet

    names = [n.strip() for n in args.names.split(",") if n.strip()]
    if not names:
        print("error: --names must list at least one endpoint", file=sys.stderr)
        return 2
    tracer = None
    if args.trace is not None:
        from repro.obs import TraceRecorder

        tracer = TraceRecorder(args.trace)
    fleet = HeartbeatFleet(
        names,
        (args.monitor_host, args.monitor_port),
        eta=args.eta,
        mttc=args.mttc if args.mttc > 0 else None,
        ttr=args.ttr,
        seed=args.seed,
        tracer=tracer,
    )

    async def serve() -> None:
        await fleet.start()
        crashes = (f"crash injection mttc={args.mttc}s ttr={args.ttr}s"
                   if args.mttc > 0 else "no crash injection")
        print(f"heartbeat: {len(names)} emitter(s) -> "
              f"udp://{args.monitor_host}:{args.monitor_port}, "
              f"eta={args.eta}s, {crashes}")
        await _run_until(args.duration, [fleet.stop])

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        if tracer is not None:
            tracer.close()
    print(f"heartbeat: sent {fleet.total_sent()} heartbeats")
    return 0


def _command_kv_sweep(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.experiments.kv_sweep import (
        format_kv_sweep,
        format_leaderboard,
        leaderboard,
        render_heatmap,
        run_kv_sweep,
        sweep_to_dict,
    )
    from repro.fd.combinations import combination_ids
    from repro.kv.sim import KvSimConfig
    from repro.kv.workload import WorkloadSpec

    try:
        detectors = _parse_detectors(args.detectors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if detectors is None:
        detectors = combination_ids()
    etas = []
    for token in args.etas.split(","):
        token = token.strip()
        if token:
            etas.append(float(token))
    workers: Optional[int] = args.workers if args.workers != 0 else None
    if workers is not None and workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    try:
        base = KvSimConfig(
            nodes=args.nodes,
            clients=args.clients,
            duration=args.duration,
            profile_name=args.profile,
            seed=args.seed,
            write_concern=args.write_concern,
            workload=WorkloadSpec(read_fraction=args.read_fraction),
        )
        print(f"running {len(etas)} eta x {len(detectors)} detector KV cells "
              f"({args.nodes} nodes, {args.clients} clients, "
              f"{args.duration:g}s each, profile={args.profile})")
        cells = run_kv_sweep(base, etas, detectors, workers=workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(format_kv_sweep(cells))
    print()
    print(render_heatmap(cells, args.heatmap_metric))
    print()
    print(format_leaderboard(leaderboard(cells)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(sweep_to_dict(base, cells), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"\nsaved sweep to {args.output}")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.chaos import (
        FaultPlan,
        add_channel_plan,
        run_daemon_scenario,
        run_kv_scenario,
        run_sim_scenario,
    )

    if args.add_channel and args.plan:
        print("error: --plan and --add-channel are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.add_channel:
        plan = add_channel_plan(
            seed=args.seed,
            stabilization_time=args.stabilization,
            horizon=args.horizon,
        )
    elif args.plan:
        plan = FaultPlan.load(args.plan)
        if args.seed:
            plan = plan.with_seed(args.seed)
    else:
        print("error: give --plan PATH or --add-channel", file=sys.stderr)
        return 2
    if args.save_plan:
        plan.save(args.save_plan)
        print(f"saved plan to {args.save_plan}")
    detectors = None
    if args.detectors is not None:
        try:
            detectors = _parse_detectors(args.detectors)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"chaos: plan {plan.name!r} seed={plan.seed} "
          f"({len(plan.events)} events, horizon {plan.horizon:g}s) "
          f"-> target {args.target}")
    if args.target == "sim":
        report = run_sim_scenario(
            plan,
            duration=args.duration,
            eta=args.eta if args.eta is not None else 0.1,
            detector_ids=detectors,
        )
    elif args.target == "daemon":
        report = run_daemon_scenario(
            plan,
            duration=args.duration if args.duration is not None else 8.0,
            eta=args.eta if args.eta is not None else 0.25,
            detector_ids=detectors,
        )
    else:
        report = run_kv_scenario(
            plan,
            duration=args.duration,
            eta=args.eta if args.eta is not None else 0.1,
            detector_id=detectors[0] if detectors else "Last+CI_med",
        )
    stats = report["chaos"]["stats"]
    print(f"chaos: survived={report['survived']} "
          f"decisions={stats['decisions']} dropped={stats['dropped']} "
          f"delayed={stats['delayed']} corrupted={stats['corrupted']}")
    if args.target == "sim":
        for detector_id, brief in sorted(report["qos"].items()):
            print(f"  {detector_id}: mistakes={brief['mistakes']} "
                  f"P_A={brief['empirical_p_a']:.6f}")
    elif args.target == "daemon":
        daemon = report["daemon"]
        print(f"  daemon: heartbeats={daemon['heartbeats_total']} "
              f"dropped={daemon['dropped_datagrams']} "
              f"shed={daemon['shed_datagrams']}")
        for name, endpoint in sorted(report["endpoints"].items()):
            print(f"  {name}: heartbeats={endpoint['heartbeats']} "
                  f"suspecting_at_end={endpoint['suspecting_at_end']}")
    else:
        summary = report["summary"]
        print(f"  kv: unavailability={summary['unavailability']['total_s']:.3f}s "
              f"lost_writes={summary['lost_writes']} "
              f"views={report['views']}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"saved report to {args.output}")
    return 0


_COMMANDS = {
    "characterize": _command_characterize,
    "accuracy": _command_accuracy,
    "trace": _command_trace,
    "select-order": _command_select_order,
    "qos": _command_qos,
    "report": _command_report,
    "calibrate": _command_calibrate,
    "serve-monitor": _command_serve_monitor,
    "serve-heartbeat": _command_serve_heartbeat,
    "qos-history": _command_qos_history,
    "trace-analyze": _command_trace_analyze,
    "postmortem": _command_postmortem,
    "kv-sweep": _command_kv_sweep,
    "chaos": _command_chaos,
}


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import command_lint

    return command_lint(args)


_COMMANDS["lint"] = _command_lint


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
