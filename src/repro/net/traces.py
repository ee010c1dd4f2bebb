"""Delay trace persistence and characterisation.

The paper characterises its Italy–Japan path by collecting 100 000 one-way
heartbeat delays (Table 4) and reuses such traces to rank predictors
(Table 3, following the methodology of Nunes & Jansch-Pôrto).  This module
holds such a trace: save or load it as a plain text file, and summarise
it.  :func:`repro.experiments.accuracy.collect_delay_trace` synthesises
one from a network profile's models.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class TraceSummary:
    """Descriptive statistics of a delay trace (the shape of Table 4)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p99: float

    def as_milliseconds(self) -> "TraceSummary":
        """Return the same summary scaled from seconds to milliseconds."""
        return TraceSummary(
            count=self.count,
            mean=self.mean * 1e3,
            std=self.std * 1e3,
            minimum=self.minimum * 1e3,
            maximum=self.maximum * 1e3,
            median=self.median * 1e3,
            p99=self.p99 * 1e3,
        )


class DelayTrace:
    """An immutable sequence of one-way delays, in seconds."""

    def __init__(self, delays: Sequence[float]) -> None:
        arr = np.asarray(delays, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"trace must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("trace must contain at least one delay")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("trace delays must be finite and >= 0")
        self._delays = arr
        self._delays.setflags(write=False)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DelayTrace":
        """Load a trace from a text file of one delay (seconds) per line.

        Lines starting with ``#`` are comments and are skipped.
        """
        values: List[float] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line_number}: not a number: {text!r}"
                    ) from exc
        return cls(values)

    def save(self, path: Union[str, Path], *, header: str = "") -> None:
        """Write the trace as one delay per line, with an optional header."""
        with open(path, "w", encoding="utf-8") as handle:
            if header:
                for header_line in header.splitlines():
                    handle.write(f"# {header_line}\n")
            for delay in self._delays:
                handle.write(f"{delay:.9f}\n")

    # ------------------------------------------------------------------
    # Access and statistics
    # ------------------------------------------------------------------
    @property
    def delays(self) -> np.ndarray:
        """The delays as a read-only numpy array, in seconds."""
        return self._delays

    def __len__(self) -> int:
        return int(self._delays.shape[0])

    def __getitem__(self, index):
        return self._delays[index]

    def __iter__(self):
        return iter(self._delays)

    def summary(self) -> TraceSummary:
        """Descriptive statistics of the trace, in seconds."""
        arr = self._delays
        return TraceSummary(
            count=int(arr.size),
            mean=float(np.mean(arr)),
            std=float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(np.min(arr)),
            maximum=float(np.max(arr)),
            median=float(np.median(arr)),
            p99=float(np.percentile(arr, 99)),
        )

    def autocorrelation(self, max_lag: int = 20) -> np.ndarray:
        """Sample autocorrelation at lags ``0..max_lag``.

        Adaptive predictors win precisely when this decays slowly; the
        statistic is reported by the characterisation experiment.
        """
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag!r}")
        arr = self._delays - np.mean(self._delays)
        n = arr.size
        variance = float(np.dot(arr, arr)) / n
        if variance == 0.0:
            result = np.zeros(max_lag + 1)
            result[0] = 1.0
            return result
        correlations = np.empty(min(max_lag, n - 1) + 1)
        for lag in range(correlations.size):
            correlations[lag] = float(np.dot(arr[: n - lag], arr[lag:])) / (n * variance)
        if correlations.size < max_lag + 1:
            padding = np.zeros(max_lag + 1 - correlations.size)
            correlations = np.concatenate([correlations, padding])
        return correlations


__all__ = ["DelayTrace", "TraceSummary"]
