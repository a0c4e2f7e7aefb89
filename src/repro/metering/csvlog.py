"""WTViewer-style CSV logging.

The paper's procedure (Section V-C2) shares a directory from the metering
PC, copies the WTViewer CSV files to the server after the run, and merges
them into one file before extracting per-program windows.  These helpers
reproduce that file format and the merge step.

Format: a header line, then ``timestamp_s,watts`` rows.  Timestamps are
seconds relative to the campaign epoch (the paper synchronises server and
PC clocks first; :mod:`repro.engine.experiment` models the residual
offset).
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import MeterError

__all__ = [
    "write_power_csv",
    "read_power_csv",
    "read_power_csv_tolerant",
    "iter_power_csv",
    "merge_power_csvs",
    "CsvReadReport",
    "PowerCsvWriter",
    "HEADER",
    "DEFAULT_CHUNK_SIZE",
]

HEADER: tuple[str, str] = ("time_s", "power_w")

#: Format specs every row goes through.
TIME_FORMAT = ".3f"
POWER_FORMAT = ".2f"

#: Rows per chunk :func:`iter_power_csv` yields.
DEFAULT_CHUNK_SIZE = 4096


class PowerCsvWriter:
    """Incremental WTViewer-style CSV writer (context manager).

    Writes the header on open and rows on :meth:`write`, producing
    byte-identical files to :func:`write_power_csv` without ever holding
    the trace — the streaming merge appends one chunk at a time.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(HEADER)

    def write(self, t: float, w: float) -> None:
        """Append one row."""
        self._writer.writerow([f"{t:{TIME_FORMAT}}", f"{w:{POWER_FORMAT}}"])

    def write_many(self, times_s: np.ndarray, watts: np.ndarray) -> None:
        """Append a chunk of rows."""
        times_s = np.asarray(times_s, dtype=float)
        watts = np.asarray(watts, dtype=float)
        if times_s.shape != watts.shape:
            raise MeterError(
                f"times and watts must align: {times_s.shape} vs "
                f"{watts.shape}"
            )
        for t, w in zip(times_s, watts):
            self.write(t, w)

    def close(self) -> Path:
        """Flush and close; returns the path."""
        if not self._fh.closed:
            self._fh.close()
        return self.path

    def __enter__(self) -> "PowerCsvWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_power_csv(
    path: "str | Path", times_s: np.ndarray, watts: np.ndarray
) -> Path:
    """Write one WTViewer-style CSV; returns the path."""
    times_s = np.asarray(times_s, dtype=float)
    watts = np.asarray(watts, dtype=float)
    if times_s.shape != watts.shape:
        raise MeterError(
            f"times and watts must align: {times_s.shape} vs {watts.shape}"
        )
    with PowerCsvWriter(path) as writer:
        writer.write_many(times_s, watts)
    return writer.path


def read_power_csv(path: "str | Path") -> tuple[np.ndarray, np.ndarray]:
    """Read one CSV; returns (times_s, watts) arrays."""
    path = Path(path)
    times: list[float] = []
    watts: list[float] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != HEADER:
                raise MeterError(
                    f"{path}: not a power CSV (header {header!r})"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise MeterError(f"{path}:{lineno}: expected 2 columns")
                try:
                    times.append(float(row[0]))
                    watts.append(float(row[1]))
                except ValueError as exc:
                    raise MeterError(f"{path}:{lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MeterError(f"{path}: not a text CSV file ({exc})") from exc
    return np.asarray(times), np.asarray(watts)


@dataclass(frozen=True)
class CsvReadReport:
    """What the tolerant reader skipped in one file."""

    n_rows: int
    n_bad: int
    bad_lines: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """Whether every row parsed cleanly."""
        return self.n_bad == 0


def read_power_csv_tolerant(
    path: "str | Path",
) -> tuple[np.ndarray, np.ndarray, CsvReadReport]:
    """Read a possibly damaged CSV, salvaging every parseable row.

    Truncated files (a logger killed mid-write) and corrupt rows (disk
    or transfer damage) are the two failure modes the paper's shared-
    directory copy step can produce.  Unlike :func:`read_power_csv`,
    which fails fast, this reader skips malformed rows and reports their
    line numbers so the repair stage (:func:`repro.metering.analysis.
    repair_trace`) can treat them as dropouts.  A missing or wrong
    header still raises — that is a different file, not a damaged one.
    """
    path = Path(path)
    times: list[float] = []
    watts: list[float] = []
    bad: list[int] = []
    n_rows = 0
    with path.open(newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != HEADER:
            raise MeterError(f"{path}: not a power CSV (header {header!r})")
        for lineno, row in enumerate(reader, start=2):
            n_rows += 1
            if len(row) != 2:
                bad.append(lineno)
                continue
            try:
                t, w = float(row[0]), float(row[1])
            except ValueError:
                bad.append(lineno)
                continue
            times.append(t)
            watts.append(w)
    return (
        np.asarray(times),
        np.asarray(watts),
        CsvReadReport(n_rows=n_rows, n_bad=len(bad), bad_lines=tuple(bad)),
    )


def iter_power_csv(
    path: "str | Path", chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Read one CSV in bounded chunks of ``(times_s, watts)`` arrays.

    The streaming counterpart of :func:`read_power_csv`: identical
    header/row validation and identical parsed values, but peak memory
    is O(``chunk_size``) instead of O(file).  Concatenating every chunk
    reproduces the batch reader's arrays exactly.
    """
    if chunk_size < 1:
        raise MeterError(f"chunk_size must be >= 1, got {chunk_size}")
    path = Path(path)
    times: list[float] = []
    watts: list[float] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != HEADER:
                raise MeterError(
                    f"{path}: not a power CSV (header {header!r})"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise MeterError(f"{path}:{lineno}: expected 2 columns")
                try:
                    times.append(float(row[0]))
                    watts.append(float(row[1]))
                except ValueError as exc:
                    raise MeterError(f"{path}:{lineno}: {exc}") from exc
                if len(times) >= chunk_size:
                    yield np.asarray(times), np.asarray(watts)
                    times, watts = [], []
    except UnicodeDecodeError as exc:
        raise MeterError(f"{path}: not a text CSV file ({exc})") from exc
    if times:
        yield np.asarray(times), np.asarray(watts)


class _UnsortedFile(Exception):
    """Internal: a file fed to the streaming merge was out of order."""


def _sorted_rows(
    path: Path, chunk_size: int
) -> Iterator[tuple[float, float]]:
    """Yield one file's rows, proving non-decreasing order as we go."""
    last = float("-inf")
    for times, watts in iter_power_csv(path, chunk_size):
        for t, w in zip(times, watts):
            t = float(t)
            if t < last:
                raise _UnsortedFile(str(path))
            last = t
            yield t, float(w)


def merge_power_csvs(
    paths: "list[str | Path]",
    out_path: "str | Path",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Path:
    """Merge several CSVs into one, sorted by timestamp.

    Duplicate timestamps (overlapping logger files) keep the first
    occurrence — first in *argument order* for cross-file ties, first in
    file order within a file — matching WTViewer's merge behaviour.

    Sorted inputs (every file a campaign writes) are merged as a k-way
    stream: peak memory is O(files x chunk), not O(trace), and the
    output is byte-identical to the old concatenate-and-stable-sort
    implementation, whose tie-breaking a stable k-way merge reproduces
    exactly.  A file discovered out of order mid-stream falls back to
    materialising everything, preserving the historical behaviour for
    arbitrary inputs.  The merge lands via a temp file + rename, so a
    bad input never leaves a partial merge behind.
    """
    if not paths:
        raise MeterError("no CSV files to merge")
    out_path = Path(out_path)
    tmp_path = out_path.with_name(out_path.name + ".merge-tmp")
    try:
        streams = [_sorted_rows(Path(p), chunk_size) for p in paths]
        with PowerCsvWriter(tmp_path) as writer:
            last: "float | None" = None
            # heapq.merge is stable across its input iterables, so ties
            # resolve to the earliest file — the same winner the stable
            # argsort of the concatenation picked.
            for t, w in heapq.merge(*streams, key=lambda row: row[0]):
                if last is not None and t <= last:
                    continue  # duplicate timestamp: keep the first
                writer.write(t, w)
                last = t
    except _UnsortedFile:
        tmp_path.unlink(missing_ok=True)
        return _merge_materialized(paths, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    tmp_path.replace(out_path)
    return out_path


def _merge_materialized(
    paths: "list[str | Path]", out_path: "str | Path"
) -> Path:
    """The historical O(trace) merge, kept for unsorted inputs."""
    all_times: list[np.ndarray] = []
    all_watts: list[np.ndarray] = []
    for path in paths:
        t, w = read_power_csv(path)
        all_times.append(t)
        all_watts.append(w)
    times = np.concatenate(all_times)
    watts = np.concatenate(all_watts)
    order = np.argsort(times, kind="stable")
    times, watts = times[order], watts[order]
    keep = np.ones(times.shape[0], dtype=bool)
    keep[1:] = np.diff(times) > 0
    return write_power_csv(out_path, times[keep], watts[keep])
