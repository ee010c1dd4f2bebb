"""The single registry of what this benchmark measures.

``BENCHMARK.json`` at the root of the repository is :func:`benchmark_json`
written out; ``bench/tests/test_registry.py`` fails if the two differ in
either direction.  The contract fixes the keys of that file, so what it
cannot hold — the default and held-out seeds, each workload's unit, ``R``
and sizes, each metric's time base and meaning — lives here and in the
result records.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
#: The ``--seconds`` at which the workloads' ``REPETITIONS`` apply; the
#: sizes are tuned so that the timed part then lasts about this long here.
RUN_SECONDS = 10
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Fresh interpreters whose set-up is timed per run (the worker is one).
SETUP_PROBES = 5
#: Traced repetitions of a ``--trace 1`` run.
TRACED_REPETITIONS = 5


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    #: ``host`` time, or ``workload`` for the workload's own time base
    #: (simulated time is exact; a count is neither).
    time_base: str
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: Which end-to-end metric it should move, and on which workload.
    moves: str


WORKLOADS: List[Workload] = [
    Workload(
        "campaign_sim",
        "paper campaign on the event-driven simulator, crashes on: the only "
        "one that yields T_D; sim, neko, scalar fd bank, scalar ARIMA and "
        "the event log do the work",
    ),
    Workload(
        "campaign_replay",
        "same QoS through array kernels, batched ARIMA and trace synthesis; "
        "sim, neko and fd.detector are bypassed, so a bank or engine change "
        "predicts no change here",
    ),
    Workload(
        "live_fleet",
        "one MonitorDaemon on loopback UDP with every feature on, closed "
        "loop, reads beside writes: the only one where net.udp, service, "
        "obs and asyncio do the work",
    ),
    Workload(
        "kv_failover",
        "replicated store failover as clients see it: sim, neko and fd "
        "with one detector per node and many message kinds instead of a "
        "30-way fan-out",
    ),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.10, "host",
        "interpreter start, imports, seeded inputs generated, ready for the "
        "first step; fastest of 5 fresh interpreters",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05, "host",
        "ru_maxrss of the workload process after all R repetitions",
    ),
    EndToEnd(
        "throughput_per_s", "1/s", "higher", 0.10, "host",
        "units of work per clean host second (the unit is the workload's)",
    ),
    EndToEnd(
        "wait_ms", "ms", "lower", 0.10, "workload",
        "how long the workload's client waits, in the workload's own time "
        "base",
    ),
    EndToEnd(
        "py_calls_per_unit", "count", "lower", 0.10, "count",
        "calls of functions defined under src/repro per unit of work, "
        "counted by cProfile in one separate untimed repetition",
    ),
]

_SIM = "campaign_sim"
_REPLAY = "campaign_replay"
_LIVE = "live_fleet"
_KV = "kv_failover"

PER_LAYER: List[PerLayer] = [
    PerLayer("sim.events_per_unit", "count", "lower",
             f"throughput_per_s, py_calls_per_unit @ {_SIM}, {_KV}"),
    PerLayer("sim.loop_self_us_per_event", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_KV}; nothing @ {_REPLAY}, {_LIVE}"),
    PerLayer("sim.timer_arms_per_hb", "count", "lower",
             f"throughput_per_s, py_calls_per_unit @ {_SIM}, {_LIVE} (30 today)"),
    PerLayer("net.link_self_us_per_send", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_KV}"),
    PerLayer("net.synth_us_per_cycle", "us", "lower",
             f"throughput_per_s @ {_REPLAY}"),
    PerLayer("net.decode_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_LIVE}"),
    PerLayer("net.decode_fail", "count", "lower", f"failed @ {_LIVE}"),
    PerLayer("neko.stack_self_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_LIVE}"),
    PerLayer("fd.fanout_self_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_LIVE}; wait_ms @ {_LIVE}"),
    PerLayer("fd.detector_self_us_per_update", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_LIVE}; no change @ {_KV}, {_REPLAY}"),
    PerLayer("fd.strategy_us_per_update", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_LIVE}"),
    PerLayer("fd.timer_rearm_us_per_update", "us", "lower",
             f"throughput_per_s @ {_SIM}, {_LIVE}"),
    PerLayer("fd.predictor_updates_per_hb", "count", "lower",
             f"throughput_per_s, py_calls_per_unit @ {_SIM}, {_LIVE} (30 today)"),
    PerLayer("fd.unique_predictor_share", "share", "higher",
             f"throughput_per_s @ {_SIM}, {_LIVE} (5 of 30 useful today)"),
    PerLayer("fd.replay_matrix_us_per_cycle", "us", "lower",
             f"throughput_per_s @ {_REPLAY}"),
    PerLayer("fd.transitions", "count", "lower",
             "explains wait_ms on both campaigns"),
    PerLayer("fd.mistakes", "count", "lower",
             "explains wait_ms on both campaigns"),
    PerLayer("timeseries.arima_fits", "count", "lower",
             f"throughput_per_s @ both campaigns; stalls in wait_ms @ {_LIVE}"),
    PerLayer("timeseries.arima_fit_ms", "ms", "lower",
             f"throughput_per_s @ both campaigns; stalls in wait_ms @ {_LIVE}"),
    PerLayer("timeseries.arima_share", "share", "lower",
             "throughput_per_s @ both campaigns"),
    PerLayer("timeseries.batch_arima_s", "s", "lower",
             f"throughput_per_s @ {_REPLAY}"),
    PerLayer("nekostat.events_logged_per_unit", "count", "lower",
             f"peak_rss_mb, throughput_per_s @ {_SIM}"),
    PerLayer("nekostat.extract_qos_s", "s", "lower",
             f"throughput_per_s @ {_SIM}"),
    PerLayer("nekostat.arrays_qos_s", "s", "lower",
             f"throughput_per_s @ {_REPLAY}"),
    PerLayer("nekostat.online_us_per_transition", "us", "lower",
             f"throughput_per_s @ {_LIVE}"),
    PerLayer("experiments.build_s", "s", "lower",
             f"throughput_per_s @ {_SIM}"),
    PerLayer("experiments.aggregate_s", "s", "lower",
             "throughput_per_s @ both campaigns"),
    PerLayer("service.dispatch_self_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_LIVE}"),
    PerLayer("service.registry_self_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_LIVE}"),
    PerLayer("service.scheduler_us_per_timer", "us", "lower",
             f"throughput_per_s @ {_LIVE}"),
    PerLayer("service.loop_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_LIVE} (step minus intake)"),
    PerLayer("service.scrape_ms", "ms", "lower",
             f"wait_ms @ {_LIVE} (reads stall writes)"),
    PerLayer("service.scrape_bytes", "bytes", "lower", f"wait_ms @ {_LIVE}"),
    PerLayer("service.series_per_scrape", "count", "lower", f"wait_ms @ {_LIVE}"),
    PerLayer("service.step_p50_us", "us", "lower", f"throughput_per_s @ {_LIVE}"),
    PerLayer("service.step_p99_us", "us", "lower", f"wait_ms @ {_LIVE}"),
    PerLayer("service.stall_max_ms", "ms", "lower", f"wait_ms @ {_LIVE}"),
    PerLayer("service.wait500_p99_ms", "ms", "lower",
             f"wait_ms @ {_LIVE} (fixed 500 hb/s; sits on the scrape cliff)"),
    PerLayer("service.shed", "count", "lower", f"failed @ {_LIVE}"),
    PerLayer("service.dropped", "count", "lower", f"failed @ {_LIVE}"),
    PerLayer("obs.spans_per_hb", "count", "lower",
             f"throughput_per_s @ {_LIVE} only (32 today)"),
    PerLayer("obs.trace_emit_us_per_span", "us", "lower",
             f"throughput_per_s @ {_LIVE} only"),
    PerLayer("obs.trace_bytes_per_hb", "bytes", "lower",
             f"throughput_per_s @ {_LIVE} only"),
    PerLayer("obs.history_us_per_transition", "us", "lower",
             f"throughput_per_s @ {_LIVE} only"),
    PerLayer("obs.drift_us_per_hb", "us", "lower",
             f"throughput_per_s @ {_LIVE} only"),
    PerLayer("obs.window_query_ms", "ms", "lower", f"wait_ms @ {_LIVE} only"),
    PerLayer("obs.trace_tail_ms", "ms", "lower", f"wait_ms @ {_LIVE} only"),
    PerLayer("obs.busy_share", "share", "lower",
             f"throughput_per_s @ {_LIVE} only (obs self time / step time)"),
    PerLayer("kv.node_self_us_per_op", "us", "lower", f"throughput_per_s @ {_KV}"),
    PerLayer("kv.client_self_us_per_op", "us", "lower", f"throughput_per_s @ {_KV}"),
    PerLayer("kv.msgs_per_op", "count", "lower",
             f"throughput_per_s, py_calls_per_unit @ {_KV}"),
    PerLayer("kv.retries", "count", "lower", f"wait_ms @ {_KV}"),
    PerLayer("kv.timeouts", "count", "lower", f"wait_ms @ {_KV}"),
    PerLayer("kv.failovers", "count", "lower", f"wait_ms @ {_KV}"),
    PerLayer("kv.stale_reads", "count", "lower", f"correct @ {_KV}"),
    PerLayer("kv.unserved_at_end", "count", "lower",
             f"wait_ms @ {_KV} (in flight at the horizon, some hung)"),
    PerLayer("kv.promotion_p95_s", "s", "lower", f"wait_ms @ {_KV}"),
    PerLayer("kv.summary_s", "s", "lower", f"throughput_per_s @ {_KV}"),
    PerLayer("bench.raw_over_clean", "ratio", "lower",
             "how contended the box was (median repetition / clean time)"),
    PerLayer("bench.confirmed_share", "share", "higher",
             "steps whose two fastest executions agree within 3 %"),
    PerLayer("bench.steps", "count", "higher", "steps in the sequence"),
    PerLayer("trace.overhead_share", "share", "lower",
             "what tracing cost (traced vs untraced clean time)"),
    PerLayer("trace.us_per_span", "us", "lower", "tracing cost per span"),
]


def benchmark_json() -> Dict[str, Any]:
    """The contents of ``BENCHMARK.json``, in the contract's schema."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def unit_of(name: str) -> str:
    """The unit of metric ``name``."""
    for metric in (*END_TO_END, *PER_LAYER):
        if metric.name == name:
            return metric.unit
    raise KeyError(name)
