"""Span recording around the public entry points of each repro layer.

The traced benchmark run wraps the functions and methods listed in
:data:`BOUNDARIES` from outside the package: nothing under ``src/`` knows
it is being timed.  Each call into a boundary opens a frame on a
per-thread stack; on return the frame's duration is charged to its
boundary, and its *self time* (duration minus the time covered by the
boundary calls nested directly inside it, in the same thread) is charged
to the boundary's layer.  Non-hot boundaries also keep a span record
(name, start, end, parent, trace id); a span opened with no parent in its
thread starts a new trace, so every span of one operation shares an id.

Hot boundaries (called once per PMU window on the serial engine) keep
only the aggregate, so a traced run does not store a span per sample.

A recorder writes its state to one JSON file per process.  Forked fleet
workers inherit the installed wrappers; :meth:`Recorder.after_fork`
clears what they inherited, and ``execute_chunk`` flushes the worker's
file after every chunk, because pool workers may be stopped without
running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``layer`` is the per-layer metric stem its self time is charged to
    (``<layer>_s``); ``attr`` is a function name or ``Class.method``.
    ``count`` derives exact counters from ``(args, result)``.  ``on``
    names the workloads on which the coverage check requires a call.
    """

    layer: str
    module: str
    attr: str
    on: tuple[str, ...] = ()
    hot: bool = False
    count: "Callable[[tuple, Any], dict[str, float]] | None" = None
    flush_after: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# -- counters derived from a boundary's arguments and result ------------


def _engine_counts(_args: tuple, out: Any) -> dict[str, float]:
    runs = getattr(out, "items", None)
    runs = [out] if runs is None else runs
    done = [r for r in runs if hasattr(r, "times_s")]
    return {
        "engine.runs": len(done),
        "engine.meter_samples": sum(int(r.times_s.size) for r in done),
        "engine.pmu_samples": sum(len(r.pmu_samples) for r in done),
    }


def _feature_rows(_args: tuple, out: Any) -> dict[str, float]:
    rows = out[0] if isinstance(out, tuple) else out
    return {"metering.feature_rows": 1 if rows.ndim == 1 else len(rows)}


def _saved_bytes(_args: tuple, out: Any) -> dict[str, float]:
    return {"io.bytes_written": Path(out).stat().st_size}


def _cache_hit(_args: tuple, out: Any) -> dict[str, float]:
    return {"fleet.cache_hit_count": 0 if out is None else 1}


def _cache_bytes(_args: tuple, out: Any) -> dict[str, float]:
    if out is None:
        return {}
    path = Path(out)
    return {
        "fleet.cache_bytes": path.stat().st_size
        + path.with_suffix(".bin").stat().st_size
    }


def _predict_rows(_args: tuple, out: Any) -> dict[str, float]:
    return {"model.predict_rows": out.n_rows}


_FLEET = ("fleet_cold", "serve_open")

#: Every wrapped entry point, grouped by the layer (module under
#: ``src/repro/``) it belongs to.  Functions that other modules import by
#: name are replaced in those modules too (see :func:`install`).
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(
        "hardware.calibrate",
        "repro.hardware.calibration",
        "calibrated_power_model",
        on=("evaluate_cold", "fleet_cold", "model_fit", "serve_open"),
    ),
    Boundary(
        "hardware.power",
        "repro.hardware.power",
        "SystemPowerModel.power_watts",
        on=("evaluate_cold", "fleet_cold", "model_fit", "serve_open"),
        hot=True,
    ),
    Boundary(
        "hardware.pmu",
        "repro.hardware.pmu",
        "Pmu.sample",
        on=("evaluate_cold", "fleet_cold", "model_fit", "serve_open"),
        hot=True,
    ),
    Boundary(
        "engine.run",
        "repro.engine.batch",
        "run_batch",
        on=("evaluate_cold", "fleet_cold", "serve_open"),
    ),
    Boundary(
        "engine.run",
        "repro.engine.batch",
        "BatchEngine.run",
        on=("evaluate_cold", "fleet_cold", "serve_open"),
        count=_engine_counts,
    ),
    Boundary(
        "engine.run",
        "repro.engine.simulator",
        "Simulator.run",
        on=("model_fit",),
        count=_engine_counts,
    ),
    Boundary(
        "metering.trim",
        "repro.engine.trace",
        "RunResult.average_power_watts",
        on=("evaluate_cold", "serve_open"),
    ),
    Boundary(
        "metering.trim",
        "repro.engine.trace",
        "RunResult.average_memory_mb",
        on=("evaluate_cold", "serve_open"),
    ),
    Boundary(
        "metering.features",
        "repro.metering.stream",
        "StreamingFeatures.push_pmu_many",
        on=("model_fit",),
    ),
    Boundary(
        "metering.features",
        "repro.metering.stream",
        "StreamingFeatures.push_power_many",
        on=("model_fit",),
    ),
    Boundary(
        "metering.features",
        "repro.metering.stream",
        "StreamingFeatures.finalize",
        on=("model_fit",),
        count=_feature_rows,
    ),
    Boundary(
        "metering.features",
        "repro.metering.stream",
        "StreamingFeatures.pmu_mean",
        on=("model_fit",),
        count=_feature_rows,
    ),
    Boundary(
        "metering.stream",
        "repro.metering.stream",
        "StreamingTrim.push_many",
        on=("model_fit",),
    ),
    Boundary(
        "metering.stream",
        "repro.metering.stream",
        "StreamingTrim.finalize",
        on=("model_fit",),
    ),
    Boundary(
        "metering.stream",
        "repro.metering.stream",
        "StreamingWindow.push_many",
        on=("serve_open",),
    ),
    Boundary(
        "metering.stream",
        "repro.metering.stream",
        "StreamingWindow.finalize",
        on=("serve_open",),
    ),
    Boundary(
        "core.evaluate",
        "repro.core.evaluation",
        "evaluate_server",
        on=("evaluate_cold", "serve_open"),
    ),
    Boundary(
        "core.collect",
        "repro.core.regression",
        "collect_hpcc_training",
        on=("model_fit",),
    ),
    Boundary(
        "core.collect",
        "repro.core.regression",
        "collect_npb_features",
        on=("model_fit",),
    ),
    Boundary(
        "core.train",
        "repro.core.regression",
        "train_power_model",
        on=("model_fit",),
    ),
    Boundary("stats.fit", "repro.stats.linreg", "fit_ols", on=("model_fit",)),
    Boundary(
        "stats.fit", "repro.stats.linreg", "forward_stepwise", on=("model_fit",)
    ),
    Boundary(
        "model.publish",
        "repro.model.registry",
        "ModelRegistry.publish",
        on=("model_fit",),
    ),
    Boundary(
        "model.predict",
        "repro.model.inference",
        "InferenceEngine.predict",
        on=("model_fit",),
        count=_predict_rows,
    ),
    Boundary(
        "io.serialise",
        "repro.io",
        "evaluation_to_dict",
        on=("evaluate_cold", "serve_open"),
    ),
    Boundary("io.serialise", "repro.io", "model_to_dict", on=("model_fit",)),
    Boundary(
        "io.serialise",
        "repro.io",
        "save_json",
        on=("evaluate_cold",),
        count=_saved_bytes,
    ),
    Boundary("fleet.run", "repro.fleet.runner", "FleetRunner.run", on=("fleet_cold",)),
    Boundary(
        "fleet.run",
        "repro.fleet.runner",
        "FleetRunner.run_jobs",
        on=_FLEET,
    ),
    Boundary(
        "fleet.worker",
        "repro.fleet.worker",
        "execute_chunk",
        on=("fleet_cold", "serve_open"),
        flush_after=True,
    ),
    Boundary(
        "fleet.cache_scan",
        "repro.fleet.cache",
        "ResultCache.__len__",
        on=_FLEET,
    ),
    Boundary(
        "fleet.cache_get",
        "repro.fleet.cache",
        "ResultCache.get",
        on=_FLEET,
        count=_cache_hit,
    ),
    Boundary(
        "fleet.cache_put",
        "repro.fleet.cache",
        "ResultCache.put",
        on=("fleet_cold", "serve_open"),
        count=_cache_bytes,
    ),
    Boundary(
        "storage.atomic_write",
        "repro.doctor.safewrite",
        "write_atomic",
        on=("fleet_cold", "model_fit", "serve_open"),
    ),
    Boundary(
        "storage.append",
        "repro.doctor.safewrite",
        "append_line",
        on=("serve_open",),
    ),
    Boundary(
        "serve.parse",
        "repro.serve.protocol",
        "parse_submission",
        on=("serve_open",),
    ),
    Boundary(
        "serve.submit",
        "repro.serve.scheduler",
        "ServeScheduler.submit",
        on=("serve_open",),
    ),
    Boundary(
        "serve.save_result",
        "repro.serve.state",
        "StateStore.save_result",
        on=("serve_open",),
    ),
)


class Recorder:
    """Collects frames, spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._reset(link=None)

    def _reset(self, link: "dict[str, Any] | None") -> None:
        self.pid = os.getpid()
        self.enabled = True
        self.started = self.clock()
        self.forked = link is not None
        self.link = link
        self.spans: list[dict[str, Any]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def after_fork(self) -> None:
        """In a forked child: drop the parent's records, keep the causal link.

        The innermost frame open in the forking thread becomes the
        cross-process parent of the child's root spans.
        """
        stack = getattr(self._local, "stack", None)
        link = None
        if stack:
            top = stack[-1]
            link = {"parent": top[1], "trace": top[2]}
        self._lock = threading.Lock()
        self._reset(link)
        self.forked = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        span_id = f"{self.pid}-{next(self._ids)}"
        if stack:
            parent, trace = stack[-1][1], stack[-1][2]
        elif self.link is not None:
            parent, trace = self.link["parent"], self.link["trace"]
        else:
            parent, trace = None, span_id
        # [name, id, trace, parent, start, time covered by children]
        frame = [name, span_id, trace, parent, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list, boundary: Boundary) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][5] += duration
        with self._lock:
            self.calls[boundary.name] += 1
            self.total_s[boundary.name] += duration
            self.self_s[boundary.name] += duration - frame[5]
            if not boundary.hot:
                self.spans.append(
                    {
                        "name": boundary.name,
                        "id": frame[1],
                        "trace": frame[2],
                        "parent": frame[3],
                        "start": frame[4],
                        "end": end,
                        "pid": self.pid,
                        "tid": threading.get_ident(),
                    }
                )

    def add_counts(self, counts: "dict[str, float]") -> None:
        with self._lock:
            self.counts.update(counts)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "pid": self.pid,
                "wall_s": self.clock() - self.started,
                "link": self.link,
                "forked": self.forked,
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "spans": list(self.spans),
            }

    def dump(self, directory: "str | Path") -> Path:
        """Write this process's records to ``<directory>/proc-<pid>.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"proc-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)
        return path


def _wrap(original: Callable, boundary: Boundary, recorder: Recorder,
          out_dir: "Path | None") -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return original(*args, **kwargs)
        frame = recorder.enter(boundary.name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit(frame, boundary)
        if boundary.count is not None:
            recorder.add_counts(boundary.count(args, result))
        if (
            boundary.flush_after
            and out_dir is not None
            and recorder.forked
        ):
            recorder.dump(out_dir)
        return result

    return wrapper


@dataclass
class Installation:
    """What :func:`install` replaced, so :meth:`undo` can restore it."""

    replaced: list

    def undo(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(
    recorder: Recorder,
    boundaries: "tuple[Boundary, ...]" = BOUNDARIES,
    out_dir: "str | Path | None" = None,
) -> Installation:
    """Wrap every boundary; rebind names other ``repro`` modules imported.

    Import the modules that call a boundary by name before installing:
    a module imported later keeps the unwrapped function.  A name that
    no caller looks up through a wrapped attribute records no call,
    which the coverage check reports.
    """
    out = Path(out_dir) if out_dir is not None else None
    replaced: list = []
    for boundary in boundaries:
        module = importlib.import_module(boundary.module)
        owner_name, _, attr = boundary.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            replaced.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, boundary, recorder, out))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(original, boundary, recorder, out)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    replaced.append((loaded, key, original))
                    setattr(loaded, key, wrapper)
    os.register_at_fork(after_in_child=recorder.after_fork)
    return Installation(replaced)


# -- analysis of recorded spans ----------------------------------------


def merge(directory: "str | Path") -> dict[str, Any]:
    """Combine every ``proc-*.json`` under ``directory``."""
    merged: dict[str, Any] = {
        "calls": Counter(),
        "total_s": Counter(),
        "self_s": Counter(),
        "counts": Counter(),
        "spans": [],
        "processes": [],
    }
    for path in sorted(Path(directory).glob("proc-*.json")):
        snap = json.loads(path.read_text())
        for key in ("calls", "total_s", "self_s", "counts"):
            merged[key].update(snap[key])
        merged["spans"].extend(snap["spans"])
        merged["processes"].append(
            {
                "pid": snap["pid"],
                "wall_s": snap["wall_s"],
                "self_s": sum(snap["self_s"].values()),
                "forked": snap["forked"],
            }
        )
    return merged


def coverage_gaps(
    merged: dict[str, Any],
    workload: str,
    boundaries: "tuple[Boundary, ...]" = BOUNDARIES,
) -> list[str]:
    """Boundaries mapped to ``workload`` that recorded no call."""
    return [
        b.name
        for b in boundaries
        if workload in b.on and not merged["calls"].get(b.name)
    ]
