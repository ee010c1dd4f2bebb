"""Span tracing from outside the program.

For the traced pass the entry points listed in :data:`ENTRY_POINTS` —
where one module of ``src/repro`` hands work to another — are replaced by
span wrappers, and restored afterwards; nothing under ``src/`` knows.  A
span is ``(name, start, end, parent)``; every span inside one step of a
workload shares that step's identifier (a heartbeat ``source#seq``, a
cycle block, a simulated run).  A span's *self time* is its duration
minus the part its child spans cover, so the self times of a tree sum to
its root; the calibrated cost of the wrappers themselves is taken off
when self times are aggregated per name.

Most entries are public functions and methods.  A few are the private
methods an engine calls back into a layer (``Timer._fire``,
``FairLossyLink._deliver``, ``MonitorDaemon._on_datagram`` …): they are
where a layer is entered in practice, and without them a layer's time
would be booked on the event loop that called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``(module, dotted attribute, span name)``; the prefix of the span name
#: is the layer (the module under ``src/repro``) the time is booked on.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # sim
    ("repro.sim.engine", "Simulator.step", "sim.step"),
    ("repro.sim.engine", "Simulator.schedule_at", "sim.schedule_at"),
    ("repro.sim.process", "Timer.arm_at", "sim.timer_arm"),
    ("repro.sim.process", "Timer._fire", "sim.timer_fire"),
    ("repro.sim.process", "PeriodicTimer._fire", "sim.timer_fire"),
    # net
    ("repro.net.link", "FairLossyLink.send", "net.link_send"),
    ("repro.net.link", "FairLossyLink._deliver", "net.link_deliver"),
    ("repro.net.udp", "decode_datagram", "net.decode"),
    ("repro.experiments.replay_engine", "synthesize_heartbeat_trace", "net.synth"),
    # neko
    ("repro.neko.process", "NekoProcess.receive_from_network", "neko.receive"),
    ("repro.neko.process", "NekoProcess._send_to_network", "neko.send"),
    ("repro.neko.system", "SimulatedNetwork.send", "neko.route"),
    ("repro.neko.system", "SimulatedNetwork._deliver", "neko.route_deliver"),
    # fd
    ("repro.fd.heartbeat", "Heartbeater._beat", "fd.heartbeat"),
    ("repro.fd.simcrash", "SimCrash._crash", "fd.simcrash"),
    ("repro.fd.simcrash", "SimCrash._restore", "fd.simcrash"),
    ("repro.fd.multiplexer", "MultiPlexer.deliver", "fd.fanout"),
    ("repro.fd.detector", "PushFailureDetector.deliver", "fd.detector"),
    ("repro.fd.detector", "PushFailureDetector._expired", "fd.expired"),
    ("repro.fd.timeout", "TimeoutStrategy.observe", "fd.strategy_observe"),
    ("repro.fd.timeout", "TimeoutStrategy.timeout", "fd.strategy_timeout"),
    ("repro.fd.predictors", "Predictor.observe", "fd.predictor_observe"),
    ("repro.fd.replay", "replay_detector_matrix", "fd.replay_matrix"),
    # timeseries
    ("repro.timeseries.arima", "ArimaForecaster.observe", "timeseries.arima_observe"),
    ("repro.timeseries.arma", "fit_arma_hannan_rissanen", "timeseries.arima_fit"),
    ("repro.timeseries.arima", "batch_arima_predictions", "timeseries.batch_arima"),
    # nekostat
    ("repro.nekostat.log", "EventLog.append", "nekostat.log_append"),
    ("repro.nekostat.metrics", "extract_qos", "nekostat.extract_qos"),
    ("repro.nekostat.metrics", "qos_from_suspicion_arrays", "nekostat.arrays_qos"),
    (
        "repro.nekostat.metrics",
        "OnlineQosAccumulator.observe_transition",
        "nekostat.online_transition",
    ),
    # experiments
    ("repro.experiments.runner", "build_qos_system", "experiments.build"),
    ("repro.experiments.runner", "aggregate_runs", "experiments.aggregate"),
    ("repro.experiments.replay_engine", "run_qos_replay", "experiments.replay_run"),
    # service
    ("repro.service.daemon", "MonitorDaemon._on_datagram", "service.intake"),
    ("repro.service.daemon", "MonitorDaemon.dispatch", "service.dispatch"),
    ("repro.service.daemon", "MonitorDaemon.metrics_text", "service.scrape"),
    ("repro.service.registry", "EndpointRegistry.get", "service.registry_get"),
    ("repro.service.registry", "EndpointMonitor.deliver", "service.monitor_deliver"),
    ("repro.service.runtime", "AsyncioScheduler.schedule_at", "service.schedule_at"),
    # obs
    ("repro.obs.trace", "TraceRecorder.emit", "obs.trace_emit"),
    ("repro.obs.hub", "ObservabilityHub.on_detector_transition", "obs.history_transition"),
    ("repro.obs.drift", "DriftMonitor.observe", "obs.drift_observe"),
    ("repro.service.daemon", "MonitorDaemon.qos_window", "obs.window_query"),
    ("repro.service.daemon", "MonitorDaemon.trace_tail", "obs.trace_tail"),
    ("repro.service.daemon", "MonitorDaemon.drift_report", "obs.drift_report"),
    # kv
    ("repro.kv.sim", "run_kv_sim", "kv.run"),
    ("repro.kv.node", "KvNodeLayer.deliver", "kv.node"),
    ("repro.kv.client", "KvClientLayer.deliver", "kv.client"),
    ("repro.kv.client", "KvClientLayer._begin_op", "kv.client"),
    ("repro.kv.client", "KvClientLayer._on_op_timeout", "kv.client"),
    ("repro.kv.failover", "FailoverControllerLayer.on_transition", "kv.controller"),
    ("repro.kv.failover", "FailoverControllerLayer._tick", "kv.controller"),
    ("repro.kv.metrics", "compute_summary", "kv.summary"),
)

#: Spans whose first argument's ``name`` is collected, to count distinct
#: receivers (five predictor kinds behind thirty predictor updates).
TAGGED = frozenset({"fd.predictor_observe"})

ROOT = "step"
UNTIMED = "untimed"

Span = Tuple[int, float, float, int]


class Aggregate:
    """Totals of one traced repetition, by span name and by
    ``(name, parent name)``: ``[count, duration, raw self time, children]``."""

    def __init__(self) -> None:
        self.by_name: Dict[str, List[float]] = {}
        self.by_edge: Dict[Tuple[str, str], List[float]] = {}
        self.tags: Dict[str, set] = {}
        self.spans = 0
        self.step_seconds = 0.0

    def count(self, name: str) -> int:
        return int(self.by_name.get(name, (0,))[0])

    def duration(self, name: str) -> float:
        return self.by_name.get(name, (0, 0.0))[1]

    def edge_count(self, name: str, parent: str) -> int:
        return int(self.by_edge.get((name, parent), (0,))[0])

    def edge_duration(self, name: str, parent: str) -> float:
        return self.by_edge.get((name, parent), (0, 0.0))[1]

    def self_time(self, name: str, inner: float = 0.0, outer: float = 0.0) -> float:
        """Self time of ``name`` with the wrapper cost taken off: ``inner``
        per span of its own, ``outer`` per child it called."""
        entry = self.by_name.get(name)
        if entry is None:
            return 0.0
        return max(0.0, entry[2] - entry[0] * inner - entry[3] * outer)

    def layer_self(self, layer: str, inner: float = 0.0, outer: float = 0.0) -> float:
        prefix = layer + "."
        return sum(
            self.self_time(name, inner, outer)
            for name in self.by_name
            if name.startswith(prefix)
        )


class Tracer:
    """Installs span wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT, UNTIMED]
        self._name_ids: Dict[str, int] = {ROOT: 0, UNTIMED: 1}
        self.spans: List[Optional[Span]] = []
        self.step_of_root: Dict[int, int] = {}
        self._stack: List[int] = []
        self._tags: Dict[int, set] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._root: Optional[int] = None
        self._root_start = 0.0
        self._steps = 0
        #: Calibrated wrapper cost, seconds: inside the span's own
        #: interval, and outside it (booked on the caller).
        self.inner_cost = 0.0
        self.outer_cost = 0.0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` recording one span per call."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = perf_counter
        tags = self._tags.setdefault(name_id, set()) if name in TAGGED else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if tags is not None:
                tags.add(args[0].name)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    def install(self, entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS) -> None:
        """Replace every entry point by its span wrapper."""
        for module_name, dotted, span_name in entry_points:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, attribute = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute] if path else getattr(owner, attribute)
            wrapper = self.wrap(original, span_name)
            if path:
                self._patch(owner, attribute, original, wrapper)
                continue
            # A module-level function may have been imported by name into
            # other modules (and into the workloads): patch every binding.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if namespace is not None and namespace.get(attribute) is original:
                    self._patch(other, attribute, original, wrapper)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def calibrate(self, calls: int = 20_000, trials: int = 3) -> None:
        """Measure what one wrapper costs inside and outside its span."""

        def nothing() -> None:
            return None

        wrapped = self.wrap(nothing, "trace.calibrate")
        best_inner = best_total = float("inf")
        for _ in range(trials):
            start = perf_counter()
            for _ in range(calls):
                nothing()
            bare = (perf_counter() - start) / calls
            self.reset()
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            total = (perf_counter() - start) / calls - bare
            inner = statistics.median(
                span[2] - span[1] for span in self.spans if span is not None
            )
            best_inner = min(best_inner, inner)
            best_total = min(best_total, total)
        self.reset()
        self.inner_cost = best_inner
        self.outer_cost = max(0.0, best_total - best_inner)

    # ------------------------------------------------------------------
    # Steps (driven by the repetition's lap function)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the spans of the previous repetition."""
        del self.spans[:]
        del self._stack[:]
        self.step_of_root.clear()
        for tags in self._tags.values():
            tags.clear()
        self._root = None
        self._steps = 0

    def open_root(self, start: float) -> None:
        """Start the root span of the next step at ``start``."""
        self._root = len(self.spans)
        self.spans.append(None)
        self._root_start = start
        del self._stack[:]
        self._stack.append(self._root)

    def close_root(self, end: float, *, timed: bool = True) -> None:
        """End the current step's root span; an untimed one (set-up or
        tear-down between steps) is kept but never counted."""
        root = self._root
        if root is None:
            return
        self.spans[root] = (0 if timed else 1, self._root_start, end, -1)
        if timed:
            self.step_of_root[root] = self._steps
            self._steps += 1
        self._root = None

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def aggregate(self) -> Aggregate:
        """Totals of the spans collected since :meth:`reset`."""
        spans = self.spans
        names = self.names
        children = [0.0] * len(spans)
        child_count = [0] * len(spans)
        timed = [False] * len(spans)
        for index, span in enumerate(spans):
            if span is None:
                continue
            parent = span[3]
            if parent < 0:
                timed[index] = span[0] == 0
                continue
            timed[index] = timed[parent]
            children[parent] += span[2] - span[1]
            child_count[parent] += 1
        result = Aggregate()
        for index, span in enumerate(spans):
            if span is None or not timed[index]:
                continue
            name_id, start, end, parent = span
            duration = end - start
            if parent < 0:
                result.step_seconds += duration
            name = names[name_id]
            entry = result.by_name.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children[index]
            entry[3] += child_count[index]
            if parent >= 0:
                parent_span = spans[parent]
                assert parent_span is not None
                edge = result.by_edge.setdefault(
                    (name, names[parent_span[0]]), [0, 0.0]
                )
                edge[0] += 1
                edge[1] += duration
            result.spans += 1
        result.tags = {
            names[name_id]: set(tags) for name_id, tags in self._tags.items()
        }
        return result

    def trees(self, step_ids: Sequence[str]) -> List[Dict[str, Any]]:
        """The collected spans as ``{name, start, end, parent, id}``
        records; ``parent`` indexes into the list (``None`` for a root)."""
        records: List[Dict[str, Any]] = []
        position: Dict[int, int] = {}
        identifiers: Dict[int, str] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, parent = span
            if parent < 0:
                step = self.step_of_root.get(index)
                identifier = (
                    step_ids[step] if step is not None else f"{UNTIMED}:{index}"
                )
            else:
                identifier = identifiers[parent]
            identifiers[index] = identifier
            position[index] = len(records)
            records.append(
                {
                    "name": self.names[name_id],
                    "start": start,
                    "end": end,
                    "parent": position[parent] if parent >= 0 else None,
                    "id": identifier,
                }
            )
        return records

    def write(self, path: str, step_ids: Sequence[str]) -> int:
        """Write :meth:`trees` as JSON lines; returns the span count."""
        records = self.trees(step_ids)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)


class TracedPass:
    """The traced repetitions of one run: every figure is the median over
    them (counts of a simulated workload are the same in each)."""

    def __init__(self, aggregates: Sequence[Aggregate], inner: float, outer: float) -> None:
        if not aggregates:
            raise ValueError("a traced pass needs at least one repetition")
        self.aggregates = list(aggregates)
        self.inner = inner
        self.outer = outer

    def median(self, value: Callable[[Aggregate], float]) -> float:
        return statistics.median(value(aggregate) for aggregate in self.aggregates)

    def count(self, name: str) -> float:
        return self.median(lambda a: a.count(name))

    def duration(self, name: str) -> float:
        return self.median(lambda a: a.duration(name))

    def self_time(self, name: str) -> float:
        return self.median(lambda a: a.self_time(name, self.inner, self.outer))

    def layer_self(self, layer: str) -> float:
        return self.median(lambda a: a.layer_self(layer, self.inner, self.outer))

    def edge_count(self, name: str, parent: str) -> float:
        return self.median(lambda a: a.edge_count(name, parent))

    def edge_duration(self, name: str, parent: str) -> float:
        return self.median(lambda a: a.edge_duration(name, parent))

    def tags(self, name: str) -> set:
        return set().union(*(a.tags.get(name, set()) for a in self.aggregates))

    @property
    def spans(self) -> float:
        return self.median(lambda a: a.spans)

    @property
    def step_seconds(self) -> float:
        return self.median(lambda a: a.step_seconds)


def check_trees(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Problems with span records (empty when they are well formed): one
    root per id, children inside their parents, and self times that sum
    to the root."""
    problems: List[str] = []
    roots: Dict[str, int] = {}
    self_sum: Dict[str, float] = {}
    covered = [0.0] * len(records)
    for index, record in enumerate(records):
        parent = record["parent"]
        if record["end"] < record["start"]:
            problems.append(f"span {index} ends before it starts")
        if parent is None:
            if record["id"] in roots:
                problems.append(f"id {record['id']!r} has more than one root")
            roots[record["id"]] = index
            continue
        if not 0 <= parent < index:
            problems.append(f"span {index} names parent {parent} that is not before it")
            continue
        above = records[parent]
        if above["id"] != record["id"]:
            problems.append(f"span {index} does not share its parent's id")
        if record["start"] < above["start"] or record["end"] > above["end"]:
            problems.append(f"span {index} is not inside its parent")
        covered[parent] += record["end"] - record["start"]
    for index, record in enumerate(records):
        own = record["end"] - record["start"] - covered[index]
        self_sum[record["id"]] = self_sum.get(record["id"], 0.0) + own
    for identifier, index in roots.items():
        root = records[index]
        duration = root["end"] - root["start"]
        if abs(self_sum[identifier] - duration) > 1e-9 + 1e-9 * duration:
            problems.append(
                f"self times of id {identifier!r} sum to {self_sum[identifier]!r}, "
                f"its root lasts {duration!r}"
            )
    return problems
