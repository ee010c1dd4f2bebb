"""Online profile-drift monitoring for the live delay stream.

The batch pipeline calibrates a WAN profile once from a recorded trace
(:func:`repro.net.calibrate.calibrate`); a long-running monitor needs
the converse: *is the network still the one we calibrated against?*
The :class:`DriftMonitor` consumes the daemon's observed one-way delay
stream per endpoint, freezes (or is given) a baseline sample, and
compares a rolling window against it:

* **moment drift** — window mean/std vs the baseline's;
* **distribution drift** — the two-sample Kolmogorov–Smirnov distance
  between the window and baseline empirical CDFs;
* **loss drift** — the heartbeat loss rate estimated from sequence-
  number gaps in the window vs the baseline window;
* **parameter drift** — when both samples are large enough for the
  calibrator (≥ 1000 points), the fitted
  :class:`~repro.net.calibrate.CalibrationResult` of each, so operators
  see *which* generator parameter moved (floor vs queueing vs jitter).

Both triggers are relative to the baseline's own spread, and a loopback
baseline's spread is tens of microseconds — so a verdict also needs an
**absolute effect size**: the largest shift among the quartiles and the
90th percentile must reach ``min_effect`` seconds.  Quantiles rather
than the mean, so that one stalled heartbeat in the window is not drift;
a floor rather than a tighter threshold, so that interpreter jitter late
in a long process (microseconds) cannot read as WAN drift however often
the window is re-tested.

Each evaluation updates ``fd_service_drift_*`` gauges (rendered into
the exporter head via :meth:`render_metrics`, the same extension hook
the live KV controller uses), feeds the ``/drift`` HTTP route, and —
when an endpoint's verdict flips — emits a ``calibration-drift`` trace
span whose ``delay``/``timeout``/``deadline`` fields carry the window
mean, baseline mean and KS distance.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder


#: Where the absolute effect size is read: the quartiles and the 90th
#: percentile (one outlier in a window of twenty or more moves none).
_EFFECT_QUANTILES = (0.25, 0.5, 0.75, 0.9)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``sup_x |F_a(x) - F_b(x)|``."""
    xs = np.sort(np.asarray(a, dtype=float))
    ys = np.sort(np.asarray(b, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([xs, ys])
    cdf_a = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_b = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(cdf_a - cdf_b).max())


class _EndpointDrift:
    """Rolling window + frozen baseline for one endpoint's delays."""

    __slots__ = (
        "baseline",
        "baseline_loss",
        "collecting",
        "window",
        "seqs",
        "drifted",
        "last",
    )

    def __init__(
        self,
        window_samples: int,
        baseline: Optional[np.ndarray],
    ) -> None:
        self.baseline: Optional[np.ndarray] = baseline
        self.baseline_loss: Optional[float] = None
        # Baseline observations being collected (None once frozen or
        # when an external baseline was supplied).
        self.collecting: Optional[List[float]] = (
            [] if baseline is None else None
        )
        self.window: "deque[float]" = deque(maxlen=window_samples)
        self.seqs: "deque[int]" = deque(maxlen=window_samples)
        self.drifted = False
        self.last: Optional[Dict[str, Any]] = None


class DriftMonitor:
    """Compare the live delay stream against a calibrated baseline.

    Parameters
    ----------
    window_samples:
        Rolling-window length, in heartbeats, per endpoint.
    baseline:
        Optional shared baseline delays (e.g. a recorded
        :class:`~repro.net.traces.DelayTrace` from the calibration run).
        Without one, each endpoint's first ``baseline_samples``
        observations are frozen as its own baseline — "drift" then
        means "different from how this run started".
    baseline_samples:
        Self-baseline length (ignored when ``baseline`` is given).
    min_samples:
        Observations required in the window before a verdict is issued.
    ks_threshold:
        KS distance at or above which the endpoint is flagged drifted.
    mean_shift_threshold:
        Alternative trigger: ``|window_mean - baseline_mean|`` as a
        multiple of the baseline std (guards near-constant baselines
        whose KS saturates on tiny absolute shifts).
    min_effect:
        Absolute effect-size floor, seconds: whichever threshold trips,
        the endpoint is flagged only if a quartile or the 90th percentile
        of the window moved at least this far from the baseline's.  The
        daemon scales it with the heartbeat period; a shift far below
        ``eta`` cannot matter to a time-out.
    calibrate_min:
        Run the full parameter calibration only when both samples reach
        this size (the calibrator itself requires ≥ 1000).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder` for
        ``calibration-drift`` spans on verdict flips.
    """

    def __init__(
        self,
        *,
        window_samples: int = 512,
        baseline: Optional[Sequence[float]] = None,
        baseline_samples: int = 512,
        min_samples: int = 64,
        ks_threshold: float = 0.35,
        mean_shift_threshold: float = 3.0,
        min_effect: float = 0.001,
        calibrate_min: int = 1000,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        if window_samples < 2:
            raise ValueError(
                f"window_samples must be >= 2, got {window_samples}"
            )
        if baseline_samples < 2:
            raise ValueError(
                f"baseline_samples must be >= 2, got {baseline_samples}"
            )
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        if ks_threshold <= 0 or ks_threshold > 1:
            raise ValueError(
                f"ks_threshold must be in (0, 1], got {ks_threshold}"
            )
        if min_effect < 0:
            raise ValueError(f"min_effect must be >= 0, got {min_effect!r}")
        self.window_samples = int(window_samples)
        self.baseline_samples = int(baseline_samples)
        # A window smaller than min_samples would never produce a
        # verdict (the deque caps at window_samples): clamp.
        self.min_samples = min(int(min_samples), self.window_samples)
        self.ks_threshold = float(ks_threshold)
        self.mean_shift_threshold = float(mean_shift_threshold)
        self.min_effect = float(min_effect)
        self.calibrate_min = int(calibrate_min)
        self._tracer = tracer
        self._shared_baseline: Optional[np.ndarray] = None
        if baseline is not None:
            arr = np.asarray(baseline, dtype=float)
            if arr.size < 2:
                raise ValueError("baseline needs at least 2 samples")
            self._shared_baseline = arr
        self._endpoints: Dict[str, _EndpointDrift] = {}
        self.observations_total = 0
        self.evaluations_total = 0
        self._last_report: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Intake (hot path: one deque append per heartbeat)
    # ------------------------------------------------------------------
    def observe(
        self, endpoint: str, t: float, delay: float, *, seq: Optional[int] = None
    ) -> None:
        """Record one observed one-way delay for ``endpoint`` at ``t``."""
        state = self._endpoints.get(endpoint)
        if state is None:
            state = _EndpointDrift(self.window_samples, self._shared_baseline)
            self._endpoints[endpoint] = state
        self.observations_total += 1
        if state.collecting is not None:
            state.collecting.append(delay)
            if len(state.collecting) >= self.baseline_samples:
                state.baseline = np.asarray(state.collecting, dtype=float)
                state.baseline_loss = None
                state.collecting = None
            return
        state.window.append(delay)
        if seq is not None and seq >= 0:
            state.seqs.append(seq)

    # ------------------------------------------------------------------
    # Evaluation (periodic; off the per-datagram path)
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> Dict[str, Any]:
        """Re-judge every endpoint and return the ``/drift`` report."""
        self.evaluations_total += 1
        endpoints: Dict[str, Any] = {}
        for name in sorted(self._endpoints):
            endpoints[name] = self._evaluate_endpoint(name, now)
        report = {
            "t": now,
            "window_samples": self.window_samples,
            "ks_threshold": self.ks_threshold,
            "min_effect": self.min_effect,
            "observations_total": self.observations_total,
            "evaluations_total": self.evaluations_total,
            "drifted": sorted(
                name
                for name, entry in endpoints.items()
                if entry.get("drifted")
            ),
            "endpoints": endpoints,
        }
        self._last_report = report
        return report

    def _evaluate_endpoint(self, name: str, now: float) -> Dict[str, Any]:
        state = self._endpoints[name]
        if state.baseline is None or len(state.window) < self.min_samples:
            entry = {
                "status": (
                    "collecting-baseline"
                    if state.baseline is None
                    else "filling-window"
                ),
                "drifted": False,
                "window_count": len(state.window),
            }
            state.last = entry
            return entry
        window = np.asarray(state.window, dtype=float)
        baseline = state.baseline
        baseline_mean = float(baseline.mean())
        baseline_std = float(baseline.std())
        window_mean = float(window.mean())
        window_std = float(window.std())
        ks = ks_distance(window, baseline)
        mean_shift = (
            abs(window_mean - baseline_mean) / baseline_std
            if baseline_std > 0
            else float("inf") if window_mean != baseline_mean else 0.0
        )
        loss = self._loss_rate(state)
        effect = float(
            np.abs(
                np.quantile(window, _EFFECT_QUANTILES)
                - np.quantile(baseline, _EFFECT_QUANTILES)
            ).max()
        )
        drifted = effect >= self.min_effect and (
            ks >= self.ks_threshold or mean_shift >= self.mean_shift_threshold
        )
        entry: Dict[str, Any] = {
            "status": "ok",
            "drifted": drifted,
            "window_count": int(window.size),
            "baseline_count": int(baseline.size),
            "ks": ks,
            # A baseline without spread makes any shift infinitely many
            # sigmas; JSON (RFC 8259) has no Infinity, so it is served as
            # null.  The verdict above used the unbounded value.
            "mean_shift_sigmas": mean_shift if mean_shift < float("inf") else None,
            "effect_seconds": effect,
            "window_mean": window_mean,
            "window_std": window_std,
            "baseline_mean": baseline_mean,
            "baseline_std": baseline_std,
            "window_loss_rate": loss,
        }
        calibration = self._calibration_delta(window, baseline)
        if calibration is not None:
            entry["calibration"] = calibration
        if drifted != state.drifted:
            state.drifted = drifted
            if self._tracer is not None:
                # Span fields repurposed per the module docstring:
                # delay = window mean, timeout = baseline mean,
                # deadline = KS distance; seq 1/0 = drifted/recovered.
                self._tracer.emit(
                    now,
                    "calibration-drift",
                    name,
                    seq=1 if drifted else 0,
                    delay=window_mean,
                    timeout=baseline_mean,
                    deadline=ks,
                )
        state.last = entry
        return entry

    def _loss_rate(self, state: _EndpointDrift) -> Optional[float]:
        if len(state.seqs) < 2:
            return None
        seqs = state.seqs
        expected = max(seqs) - min(seqs) + 1
        if expected <= 0:
            return None
        return max(0.0, 1.0 - len(set(seqs)) / expected)

    def _calibration_delta(
        self, window: np.ndarray, baseline: np.ndarray
    ) -> Optional[Dict[str, Any]]:
        if (
            window.size < self.calibrate_min
            or baseline.size < self.calibrate_min
        ):
            return None
        from repro.net.calibrate import calibrate

        try:
            fitted_window = calibrate(window)
            fitted_baseline = calibrate(baseline)
        except ValueError:
            return None
        return {
            parameter: {
                "window": getattr(fitted_window, parameter),
                "baseline": getattr(fitted_baseline, parameter),
            }
            for parameter in ("floor", "base_queue", "white_std")
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Optional[Dict[str, Any]]:
        """The most recent :meth:`evaluate` result (``/drift`` payload)."""
        return self._last_report

    def endpoints(self) -> List[str]:
        """Endpoints with any observed delay so far."""
        return sorted(self._endpoints)

    def render_metrics(self, lines: List[str], header: Any) -> None:
        """Append ``fd_service_drift_*`` series to an exposition head.

        Matches the exporter's extension-hook signature (``header`` is
        its HELP/TYPE emitter); only evaluated endpoints get series.
        """
        from repro.service.exporter import _escape_label, _format_value

        header(
            "fd_service_drift_evaluations_total",
            "counter",
            "Drift-monitor evaluation passes",
        )
        lines.append(
            f"fd_service_drift_evaluations_total {self.evaluations_total}"
        )
        gauges = (
            ("fd_service_drift_drifted", "Whether the endpoint's delay "
             "distribution drifted from baseline (1 = drifted)"),
            ("fd_service_drift_ks", "KS distance between the rolling delay "
             "window and the calibrated baseline"),
            ("fd_service_drift_window_mean_seconds",
             "Mean one-way delay over the rolling window"),
            ("fd_service_drift_baseline_mean_seconds",
             "Mean one-way delay of the calibrated baseline"),
            ("fd_service_drift_window_loss_rate",
             "Heartbeat loss rate estimated from window sequence gaps"),
        )
        values = {
            "fd_service_drift_drifted": lambda e: 1 if e["drifted"] else 0,
            "fd_service_drift_ks": lambda e: _format_value(e.get("ks")),
            "fd_service_drift_window_mean_seconds": lambda e: _format_value(
                e.get("window_mean")
            ),
            "fd_service_drift_baseline_mean_seconds": lambda e: _format_value(
                e.get("baseline_mean")
            ),
            "fd_service_drift_window_loss_rate": lambda e: _format_value(
                e.get("window_loss_rate")
            ),
        }
        for metric, help_text in gauges:
            header(metric, "gauge", help_text)
            for name in sorted(self._endpoints):
                entry = self._endpoints[name].last
                if entry is None or entry.get("status") != "ok":
                    continue
                lines.append(
                    f'{metric}{{endpoint="{_escape_label(name)}"}} '
                    f"{values[metric](entry)}"
                )


__all__ = ["DriftMonitor", "ks_distance"]
