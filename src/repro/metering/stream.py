"""Streaming metering: chunk buffers over the batch analysis chain.

The paper analyses a trace with one pipeline (Section V-C2): cut each
program's window, drop the first and last 10 %, average.  That pipeline
lives in :mod:`repro.metering.analysis` as :func:`window_mask` →
:func:`trimmed_stats`.  The accumulators here accept the trace in
chunks as it arrives, buffer each window's samples, and hand them to
those same functions when the window closes — so finalised results are
bit-identical to the batch chain by construction, not by a parallel
implementation.

* :class:`StreamingTrim` buffers one window's chunks and returns
  ``trimmed_stats`` of their concatenation.
* :class:`StreamingWindow` routes each chunk into its program windows
  with ``window_mask`` and releases a window's buffer once the stream
  has passed its end, so peak memory is O(open windows), not O(trace)
  (``bench_stream_metering.py`` gates this with ``tracemalloc``).
* :class:`StreamingFeatures` buffers a run's PMU rows and power chunks
  and pairs them per PMU interval at close.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.metering.analysis import (
    DEFAULT_TRIM,
    EDGE_TOLERANCE_S,
    TrimmedStats,
    check_trim,
    trimmed_stats,
    window_mask,
)

__all__ = [
    "StreamingTrim",
    "StreamingWindow",
    "StreamingFeatures",
    "WindowSpec",
    "WindowResult",
]


class StreamingTrim:
    """One window's samples, buffered by chunk and trimmed at close."""

    __slots__ = ("trim", "ddof", "_chunks", "_n")

    def __init__(self, trim: float = DEFAULT_TRIM, ddof: int = 0) -> None:
        check_trim(trim)
        if ddof < 0:
            raise ConfigurationError(f"ddof must be >= 0, got {ddof}")
        self.trim = float(trim)
        self.ddof = int(ddof)
        self._chunks: list[np.ndarray] = []
        self._n = 0

    @property
    def n_seen(self) -> int:
        """Samples pushed so far."""
        return self._n

    def push_many(self, values: np.ndarray) -> None:
        """Accept a chunk of samples in stream order."""
        chunk = np.array(values, dtype=float).ravel()
        self._chunks.append(chunk)
        self._n += chunk.size

    def finalize(self) -> TrimmedStats:
        """Close the window: :func:`trimmed_stats` of every sample pushed."""
        values = np.concatenate(self._chunks) if self._chunks else []
        return trimmed_stats(values, self.trim, self.ddof)


@dataclass(frozen=True)
class WindowSpec:
    """One half-open program window ``[start_s, end_s)`` to meter."""

    label: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.end_s > self.start_s:
            raise ConfigurationError(
                f"window must be non-empty: [{self.start_s}, {self.end_s})"
            )


@dataclass(frozen=True)
class WindowResult:
    """A finalised window: its spec and the batch-identical statistics."""

    spec: WindowSpec
    stats: TrimmedStats


class StreamingWindow:
    """Routes a chunked sample stream into per-program trimmed windows.

    Each chunk is split across the open windows with :func:`window_mask`
    — the rule :func:`extract_window` applies — so a window receives, in
    arrival order, exactly the samples the batch mask would pick.

    Windows must be registered in non-decreasing ``start_s`` order
    (:meth:`add_window`), matching how a campaign schedules runs.  After
    each chunk the stream's watermark (its largest finite timestamp so
    far) is raised, and every window whose ``end_s + tol`` it has passed
    is finalised: no later sample within the edge tolerance can fall
    inside it.  :meth:`finalize` closes the rest.  Samples that arrive
    for an already-finalised window are counted (``late_samples``),
    never raised.
    """

    def __init__(
        self,
        trim: float = DEFAULT_TRIM,
        ddof: int = 0,
        edge_tolerance_s: float = EDGE_TOLERANCE_S,
    ) -> None:
        check_trim(trim)
        self.trim = float(trim)
        self.ddof = int(ddof)
        self.tol = float(edge_tolerance_s)
        self._windows: list[tuple[WindowSpec, StreamingTrim | None]] = []
        self._first_open = 0
        self._results: list[WindowResult] = []
        self._watermark = -math.inf
        self._finalized_horizon = -math.inf
        self.late_samples = 0

    def add_window(self, spec: WindowSpec) -> None:
        """Register the next window; ``start_s`` must not decrease."""
        if self._windows and spec.start_s < self._windows[-1][0].start_s:
            raise ConfigurationError(
                "windows must be registered in non-decreasing start order: "
                f"{spec.start_s} after {self._windows[-1][0].start_s}"
            )
        self._windows.append(
            (spec, StreamingTrim(trim=self.trim, ddof=self.ddof))
        )

    @property
    def n_open(self) -> int:
        """Windows registered but not yet finalised."""
        return len(self._windows) - self._first_open

    @property
    def n_buffered(self) -> int:
        """Samples retained across all open windows (memory footprint)."""
        return sum(acc.n_seen for _, acc in self._windows[self._first_open :])

    def push(self, t: float, value: float) -> None:
        """Route one timestamped sample."""
        self.push_many([t], [value])

    def push_many(self, times_s: np.ndarray, values: np.ndarray) -> None:
        """Route a chunk of timestamped samples in stream order."""
        times_s = np.asarray(times_s, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if times_s.shape != values.shape:
            raise ConfigurationError(
                f"times and values must align: {times_s.shape} vs "
                f"{values.shape}"
            )
        finite = times_s[np.isfinite(times_s)]
        top = float(finite.max()) if finite.size else -math.inf
        routed = np.zeros(times_s.shape, dtype=bool)
        for spec, acc in self._windows[self._first_open :]:
            if top < spec.start_s - self.tol:
                break  # starts are sorted; later windows begin later
            mask = window_mask(times_s, spec.start_s, spec.end_s, self.tol)
            if mask.any():
                acc.push_many(values[mask])
                routed |= mask
        late = int(
            np.count_nonzero(
                ~routed & (times_s < self._finalized_horizon - self.tol)
            )
        )
        if late:
            self.late_samples += late
            obs.inc("stream.late_samples", float(late))
        if top > self._watermark:
            self._watermark = top
            self._close_passed()
        obs.inc("stream.samples", float(times_s.size))
        obs.set_gauge("stream.depth", float(self.n_buffered))

    def _close_passed(self) -> None:
        """Finalise every leading window the watermark has passed."""
        while self._first_open < len(self._windows):
            spec, _ = self._windows[self._first_open]
            if self._watermark < spec.end_s + self.tol:
                break
            self._finalize_first()

    def _finalize_first(self) -> None:
        spec, acc = self._windows[self._first_open]
        started = time.perf_counter()
        self._windows[self._first_open] = (spec, None)  # release buffer
        self._first_open += 1
        self._finalized_horizon = max(self._finalized_horizon, spec.end_s)
        if not acc.n_seen:
            # The batch chain raises on an empty window; the stream
            # releases it first, so the caller may carry on.
            raise ConfigurationError(
                f"window {spec.label!r} [{spec.start_s}, {spec.end_s}) "
                "closed with no samples"
            )
        self._results.append(WindowResult(spec=spec, stats=acc.finalize()))
        obs.observe(
            "stream.finalize_seconds", time.perf_counter() - started
        )
        obs.inc("stream.windows_finalized")

    @property
    def results(self) -> list[WindowResult]:
        """Windows finalised so far, in registration order."""
        return list(self._results)

    def finalize(self) -> list[WindowResult]:
        """Close all remaining windows and return every result in order."""
        while self._first_open < len(self._windows):
            self._finalize_first()
        obs.set_gauge("stream.depth", 0.0)
        return self.results


def _pmu_vector(sample) -> np.ndarray:
    """A PMU sample (object with ``as_vector()``) or vector, as float64."""
    if hasattr(sample, "as_vector"):
        return sample.as_vector()
    return np.asarray(sample, dtype=float)


class StreamingFeatures:
    """Buffers one run's PMU rows and power chunks for the regression.

    Batch equivalents (and the bit-identity targets):

    * ``collect_hpcc_training`` pairs PMU sample ``k`` with
      ``measured_watts[k*interval : (k+1)*interval].mean()`` —
      :meth:`finalize` applies that slice reduction to the buffered
      power.
    * ``collect_npb_features`` uses ``run.pmu_matrix().mean(axis=0)`` —
      :meth:`pmu_mean` stacks the pushed PMU vectors identically.
    """

    def __init__(self, interval: int = 10) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"interval must be >= 1 sample, got {interval}"
            )
        self.interval = int(interval)
        self._pmu: list = []
        self._power: list[np.ndarray] = []

    def push_power_many(self, values: np.ndarray) -> None:
        """Accept a chunk of 1 Hz power samples in stream order."""
        self._power.append(np.array(values, dtype=float).ravel())

    def push_pmu_many(self, samples) -> None:
        """Accept a sequence of PMU samples (``as_vector()``) or vectors."""
        self._pmu.extend(samples)

    def _pmu_rows(self, n: int) -> np.ndarray:
        return np.vstack([_pmu_vector(s) for s in self._pmu[:n]])

    def pmu_mean(self) -> np.ndarray:
        """Column means of the stacked PMU rows (npb feature row)."""
        if not self._pmu:
            raise ConfigurationError("no PMU samples accumulated")
        return self._pmu_rows(len(self._pmu)).mean(axis=0)

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair PMU rows with their interval power means (hpcc rows).

        Returns ``(features, power)`` exactly as the batch inner loop of
        ``collect_hpcc_training`` builds them: PMU sample ``k`` pairs
        with interval ``k``'s mean, PMU rows past the last (possibly
        partial) power interval are skipped, and surplus power beyond
        the PMU rows is ignored.
        """
        power = np.concatenate(self._power) if self._power else np.empty(0)
        width = self.interval
        n = min(len(self._pmu), -(-power.size // width))
        if n == 0:
            raise ConfigurationError(
                "no PMU/power interval pairs accumulated"
            )
        means = [power[k * width : (k + 1) * width].mean() for k in range(n)]
        return self._pmu_rows(n), np.asarray(means, dtype=float)
