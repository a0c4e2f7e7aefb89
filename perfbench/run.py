"""The repro benchmark: what users wait for, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it runs the program from ``src/``
there and keeps every file it writes under ``.perfbench-work/``.

``--trace 0`` runs the workload as users meet it and reports the
end-to-end metrics.  ``--trace 1`` runs the same inputs twice, plain and
with the wrappers of ``spans.py`` installed in every process involved
(fleet pool workers and the serve daemon included), and reports the
per-layer metrics, the tracing overhead and a coverage check.  Every
run checks the program's outputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit); the lines before it show each metric with its
sample count, and the machine and library versions.  The exit code is 1
when any check failed, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import inputs
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
PY = sys.executable
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: Seconds from start after which children are killed, so a run ends
#: within 180 s.
RUN_BUDGET_S = 165.0
EVALUATE_JOBS = 10

END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "import.cli_s": "s",
    "import.modules": "count",
    "import.scipy_modules": "count",
    "hardware.calibrate_s": "s",
    "hardware.calibrate_calls": "count",
    "hardware.power_s": "s",
    "hardware.pmu_s": "s",
    "engine.run_s": "s",
    "engine.runs": "count",
    "engine.meter_samples": "count",
    "engine.pmu_samples": "count",
    "metering.trim_s": "s",
    "metering.trim_calls": "count",
    "metering.features_s": "s",
    "metering.feature_rows": "count",
    "metering.stream_s": "s",
    "core.evaluate_s": "s",
    "core.evaluate_calls": "count",
    "core.collect_s": "s",
    "core.train_s": "s",
    "stats.fit_s": "s",
    "stats.fit_calls": "count",
    "model.publish_s": "s",
    "model.predict_s": "s",
    "model.predict_rows": "count",
    "model.r2_out_of_band": "count",
    "io.serialise_s": "s",
    "io.bytes_written": "bytes",
    "fleet.run_s": "s",
    "fleet.chunks": "count",
    "fleet.worker_busy_s": "s",
    "fleet.cache_scan_s": "s",
    "fleet.cache_scans": "count",
    "fleet.cache_scan_first_ms": "ms",
    "fleet.cache_scan_last_ms": "ms",
    "fleet.cache_get_s": "s",
    "fleet.cache_gets": "count",
    "fleet.cache_hits": "ratio",
    "fleet.cache_put_s": "s",
    "fleet.cache_puts": "count",
    "fleet.cache_bytes": "bytes",
    "storage.atomic_write_s": "s",
    "storage.atomic_writes": "count",
    "storage.append_s": "s",
    "storage.appends": "count",
    "serve.ack_p90_s": "s",
    "serve.parse_s": "s",
    "serve.submit_s": "s",
    "serve.http_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p90_s": "s",
    "serve.execute_p50_s": "s",
    "serve.execute_p90_s": "s",
    "serve.save_result_s": "s",
    "serve.deduped": "count",
    "serve.rejected": "count",
    "serve.polls": "count",
    "serve.late_p90_s": "s",
    "trace.overhead_share": "ratio",
    "trace.self_share": "ratio",
}


class BudgetExceeded(RuntimeError):
    """The run's time budget ran out before its work did."""


# -- statistics ---------------------------------------------------------


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def p90(values: "list[float]") -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- child processes ----------------------------------------------------


class Run:
    """Shared state of one benchmark run: work dir, env, deadline."""

    def __init__(self, workload: str) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        for var in ("REPRO_OBS", "REPRO_ENGINE", "REPRO_FAULT_ENOSPC"):
            env.pop(var, None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        env["TMPDIR"] = str(self.work)
        self.env = env
        self.children: "list[Child]" = []
        #: Subdirectory of the current pass, so a traced pass starts
        #: from the same empty state as the plain one.
        self.tag = "plain"

    def path(self, *parts: str) -> Path:
        """A file of the current pass; its directory exists."""
        path = self.work.joinpath(self.tag, *parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def directory(self, *parts: str) -> Path:
        path = self.work.joinpath(self.tag, *parts)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def spawn(self, argv: "list[str]", log: str, stdout: Any = subprocess.DEVNULL) -> "Child":
        if time.monotonic() > self.deadline:
            raise BudgetExceeded("run budget exhausted before spawning")
        child = Child(argv, self, log, stdout)
        self.children.append(child)
        return child

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


class Child:
    """A subprocess timed from spawn to exit, reaped with ``wait4``."""

    def __init__(self, argv: "list[str]", run: Run, log: str, stdout: Any) -> None:
        self.run = run
        self.log_path = run.path(log)
        self._log = open(self.log_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(a) for a in argv],
            cwd=ROOT,
            env=run.env,
            stdout=stdout,
            stderr=self._log,
        )
        self.rc: "int | None" = None
        self.elapsed_s = 0.0
        self.maxrss_mb = 0.0

    def wait(self) -> int:
        """Reap the child; kill it if the run's budget runs out."""
        while self.rc is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.elapsed_s = time.perf_counter() - self.t0
                self.rc = self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.maxrss_mb = usage.ru_maxrss / 1024.0
                break
            if time.monotonic() > self.run.deadline:
                self.proc.kill()
            time.sleep(0.002)
        self._log.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.rc

    def kill(self) -> None:
        if self.rc is None:
            self.proc.kill()
            self.wait()

    def stderr_tail(self) -> str:
        """The end of the child's stderr, for a failure message."""
        text = self.log_path.read_bytes()[-300:].decode(errors="replace")
        return " | ".join(line for line in text.splitlines() if line.strip())


def import_probe(run: Run, detail: bool = False) -> "float | dict[str, float]":
    """Fresh ``import repro.cli``: spawn-to-exit seconds, or in-process detail."""
    code = "import repro.cli"
    if detail:
        code = (
            "import json, sys, time\n"
            "t = time.perf_counter()\n"
            "import repro.cli\n"
            "t = time.perf_counter() - t\n"
            "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps({'cli_s': t, 'modules': len(sys.modules), "
            "'scipy_modules': len(scipy)}))\n"
        )
    child = run.spawn([PY, "-c", code], "import.log", stdout=subprocess.PIPE)
    out = child.proc.stdout.read()
    if child.wait() != 0:
        raise RuntimeError(f"import repro.cli failed: {child.stderr_tail()}")
    return json.loads(out) if detail else child.elapsed_s


# -- result bookkeeping -------------------------------------------------


def new_result() -> dict[str, Any]:
    return {
        "setup": [],
        "latencies": [],
        "jobs": 0,
        "window_s": 0.0,
        "rss_mb": 0.0,
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "extra": {},
    }


def end_to_end(result: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count).

    ``latency_s`` is the mean operation latency.  Every workload mixes
    operations of different cost by design (five servers, three servers,
    a growing cache, cache hits beside second-long evaluates), so a
    median lands inside one cost group and moves with that group alone.
    """
    lat = result["latencies"]
    attempted = max(result["attempted"], 1)
    typical = statistics.fmean(lat) if lat else 0.0
    return {
        "setup_s": (median(result["setup"]), len(result["setup"])),
        "latency_s": (typical, len(lat)),
        "jobs_per_s": (
            result["jobs"] / result["window_s"] if result["window_s"] else 0.0,
            result["jobs"],
        ),
        "peak_rss_mb": (result["rss_mb"], 1),
        "ok_share": (1.0 - result["failed"] / attempted, attempted),
    }


# -- evaluate_cold ------------------------------------------------------


def run_evaluate_cold(run: Run, plan: dict, spans_dir: "Path | None", setup: bool) -> dict:
    result = new_result()
    if setup:
        result["setup"] = [import_probe(run) for _ in range(SETUP_REPEATS)]
    outputs = []
    for i, op in enumerate(plan["ops"]):
        out = run.path(f"evaluate-{i}.json")
        cli = ["evaluate", op["server"], "--seed", str(op["seed"]), "--json", str(out)]
        argv = (
            [PY, HERE / "launch.py", spans_dir, *cli]
            if spans_dir is not None
            else [PY, "-m", "repro", *cli]
        )
        child = run.spawn(argv, f"evaluate-{i}.log")
        child.wait()
        result["attempted"] += 1
        result["latencies"].append(child.elapsed_s)
        result["rss_mb"] = max(result["rss_mb"], child.maxrss_mb)
        outputs.append((op, out, child))
    # Checks, outside every timed interval.
    from repro import io as repro_io
    from repro.core.evaluation import evaluate_server
    from repro.engine.simulator import Simulator
    from repro.hardware.zoo import resolve_server

    for i, (op, out, child) in enumerate(outputs):
        server = resolve_server(op["server"])
        reference = repro_io.save_json(
            repro_io.evaluation_to_dict(
                evaluate_server(server, Simulator(server, seed=op["seed"]))
            ),
            run.path(f"reference-{i}.json"),
        )
        problem = check_evaluate_output(child.rc, out, reference)
        if problem and child.rc:
            problem += f": {child.stderr_tail()}"
        if problem:
            result["failed"] += 1
            result["failures"].append(f"evaluate {i} {op['server']}/{op['seed']}: {problem}")
        else:
            result["jobs"] += EVALUATE_JOBS
    result["window_s"] = sum(result["latencies"])
    return result


def check_evaluate_output(rc: int, out: Path, reference: Path) -> "str | None":
    """Why an ``evaluate --json`` output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if not out.is_file():
        return "no JSON written"
    if out.read_bytes() != reference.read_bytes():
        return "JSON differs from the in-process reference"
    return None


# -- fleet_cold, model_fit (driver process) -----------------------------


def run_driver(run: Run, plan: dict, spans_dir: "Path | None", setup: bool) -> dict:
    plan_path = run.path("plan.json")
    plan_path.write_text(json.dumps(plan))
    driver = [PY, HERE / "driver.py", "--plan", plan_path]
    result = new_result()
    if setup:
        for i in range(SETUP_REPEATS - 1):
            probe = run.spawn([*driver, "--probe"], f"probe-{i}.log", subprocess.PIPE)
            probe.proc.stdout.readline()
            result["setup"].append(time.perf_counter() - probe.t0)
            probe.wait()
    out = run.path("driver-out.json")
    argv = [*driver, "--out", out, "--work", run.directory("driver")]
    if spans_dir is not None:
        argv += ["--spans", spans_dir]
    child = run.spawn(argv, "driver.log", subprocess.PIPE)
    line = child.proc.stdout.readline()
    ready_s = time.perf_counter() - child.t0
    if setup:
        result["setup"].append(ready_s)
    rc = child.wait()
    result["rss_mb"] = child.maxrss_mb
    if rc != 0 or not line.startswith(b"ready") or not out.is_file():
        result["attempted"] = result["failed"] = 1
        result["failures"].append(f"driver: exit code {rc}: {child.stderr_tail()}")
        return result
    report = json.loads(out.read_text())
    for key in ("latencies", "jobs", "window_s", "attempted", "failed", "failures", "extra"):
        result[key] = report[key]
    return result


# -- serve_open ---------------------------------------------------------


def http_json(addr: "tuple[str, int]", method: str, path: str,
              body: Any = None, headers: "dict | None" = None) -> "tuple[int, Any]":
    connection = http.client.HTTPConnection(*addr, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        send = dict(headers or {})
        if payload is not None:
            send["Content-Type"] = "application/json"
        connection.request(method, path, body=payload, headers=send)
        response = connection.getresponse()
        data = response.read()
    finally:
        connection.close()
    return response.status, (json.loads(data) if data else None)


def start_daemon(run: Run, name: str, spans_dir: "Path | None") -> "tuple[Child, tuple, float]":
    port_file = run.path(name, "port")
    cli = ["serve", "--port", "0", "--state-dir", run.directory(name, "state"),
           "--port-file", port_file]
    argv = (
        [PY, HERE / "launch.py", spans_dir, *cli]
        if spans_dir is not None
        else [PY, "-m", "repro", *cli]
    )
    child = run.spawn(argv, f"{name}.log")
    while True:
        if child.proc.poll() is not None:
            raise RuntimeError(f"serve daemon exited early: {child.stderr_tail()}")
        if time.monotonic() > run.deadline:
            raise BudgetExceeded("serve daemon did not become healthy")
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text.count(":") == 1:
            host, port = text.split(":")
            try:
                status, _ = http_json((host, int(port)), "GET", "/v1/health")
            except OSError:
                status = 0
            if status == 200:
                return child, (host, int(port)), time.perf_counter() - child.t0
        time.sleep(0.005)


def stop_daemon(child: Child) -> None:
    if child.rc is None:
        child.proc.send_signal(signal.SIGTERM)
        child.wait()


def vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


TERMINAL = ("done", "failed", "degraded")


def run_serve_open(run: Run, plan: dict, spans_dir: "Path | None", setup: bool) -> dict:
    result = new_result()
    if setup:
        for i in range(SETUP_REPEATS - 1):
            probe, _addr, ready_s = start_daemon(run, f"probe-{i}", None)
            result["setup"].append(ready_s)
            stop_daemon(probe)
    daemon, addr, ready_s = start_daemon(run, "daemon", spans_dir)
    if setup:
        result["setup"].append(ready_s)
    sent: list[dict] = []
    outstanding: dict[str, dict] = {}
    lock = threading.Lock()
    generating = threading.Event()
    generating.set()
    polls = [0]

    def poller() -> None:
        while (generating.is_set() or outstanding) and time.monotonic() < run.deadline:
            with lock:
                ids = list(outstanding)
            for campaign_id in ids:
                try:
                    status, doc = http_json(addr, "GET", f"/v1/campaigns/{campaign_id}")
                except OSError:
                    continue  # retried on the next sweep; the deadline bounds it
                polls[0] += 1
                if status == 200 and doc["status"] in TERMINAL:
                    with lock:
                        outstanding.pop(campaign_id)["final"] = doc
            time.sleep(0.25)

    watcher = threading.Thread(target=poller, daemon=True)
    watcher.start()
    base_perf = time.perf_counter() + 0.2
    base_wall = time.time() + (base_perf - time.perf_counter())
    try:
        for op in plan["ops"]:
            due = base_perf + op["due_s"]
            while (ahead := due - time.perf_counter()) > 0:
                time.sleep(ahead)
            t_send = time.perf_counter()
            status, doc = http_json(
                addr, "POST", "/v1/campaigns", op["body"], {"X-Repro-Tenant": op["tenant"]}
            )
            record = {
                "op": op,
                "due_wall": base_wall + op["due_s"],
                "late_s": t_send - due,
                "ack_s": time.perf_counter() - t_send,
                "status": status,
                "doc": doc,
            }
            sent.append(record)
            if status == 202:
                with lock:
                    outstanding[doc["id"]] = record
    finally:
        generating.clear()
    watcher.join(timeout=max(1.0, run.deadline - time.monotonic()))
    result["rss_mb"] = vm_hwm_mb(daemon.proc.pid)
    check_serve(run, addr, sent, result)
    result["extra"]["polls"] = polls[0]
    stop_daemon(daemon)
    if daemon.rc != 0:
        result["failures"].append(f"daemon: exit code {daemon.rc} after SIGTERM")
    return result


def check_serve(run: Run, addr: tuple, sent: "list[dict]", result: dict) -> None:
    """Outcome checks and latencies of every submission."""
    from repro import io as repro_io
    from repro.core.evaluation import evaluate_server
    from repro.engine.simulator import Simulator
    from repro.hardware.zoo import resolve_server

    references: dict[tuple, bytes] = {}
    digests = {r["doc"]["id"]: r.get("final", {}).get("digest")
               for r in sent if r["status"] == 202}
    finished = []
    extra = result["extra"]
    extra.update(rejected=0, deduped=0, queue_wait=[], execute=[])
    for i, record in enumerate(sent):
        op, tag = record["op"], f"submission {i} ({record['op']['mix']})"
        result["attempted"] += 1
        if record["status"] in (429, 503):
            extra["rejected"] += 1
            result["failed"] += 1
            continue
        if record["status"] != 202:
            result["failed"] += 1
            result["failures"].append(f"{tag}: HTTP {record['status']}")
            continue
        final = record.get("final")
        problem = None
        if final is None:
            problem = "never reached a terminal status"
        elif final["status"] != "done" or final.get("partial"):
            problem = f"ended {final['status']}, partial={final.get('partial')}"
        elif final.get("dedup_of") and final.get("digest") != digests.get(final["dedup_of"]):
            problem = "dedup follower digest differs from its leader's"
        elif op["body"]["kind"] == "evaluate":
            key = (op["body"]["server"], op["body"]["seed"])
            if key not in references:
                server = resolve_server(key[0])
                references[key] = repro_io.save_json(
                    repro_io.evaluation_to_dict(
                        evaluate_server(server, Simulator(server, seed=key[1]))
                    ),
                    run.path("references", f"{key[0]}-{key[1]}.json"),
                ).read_bytes()
            status, document = http_json(addr, "GET", f"/v1/campaigns/{final['id']}/result")
            saved = repro_io.save_json(document, run.path("results", f"{final['id']}.json"))
            if status != 200 or saved.read_bytes() != references[key]:
                problem = "result differs from the in-process reference"
        if problem:
            result["failed"] += 1
            result["failures"].append(f"{tag}: {problem}")
            continue
        if final.get("dedup_of"):
            extra["deduped"] += 1
        if "started_ts" in final:
            extra["queue_wait"].append(final["started_ts"] - final["created_ts"])
            extra["execute"].append(final["finished_ts"] - final["started_ts"])
        result["latencies"].append(final["finished_ts"] - record["due_wall"])
        finished.append(final["finished_ts"])
        result["jobs"] += EVALUATE_JOBS if op["body"]["kind"] == "evaluate" else len(
            op["body"]["campaign"]["workloads"]
        )
    if finished:
        result["window_s"] = max(finished) - sent[0]["due_wall"]
    extra["ack"] = [r["ack_s"] for r in sent]
    extra["late"] = [r["late_s"] for r in sent]


RUNNERS = {
    "evaluate_cold": run_evaluate_cold,
    "fleet_cold": run_driver,
    "model_fit": run_driver,
    "serve_open": run_serve_open,
}


# -- per-layer metrics --------------------------------------------------


def layer_metrics(workload: str, merged: dict, traced: dict, plain: dict,
                  probe: dict) -> "tuple[dict[str, float], list[str]]":
    """Per-layer values and the problems the coverage checks found."""
    def layer(stem: str, table: str = "self_s") -> float:
        return sum(merged[table].get(b.name, 0.0) for b in spans.BOUNDARIES if b.layer == stem)

    def calls(stem: str) -> float:
        return layer(stem, "calls")

    counts = merged["counts"]
    extra = traced["extra"]
    gets = calls("fleet.cache_get")
    scan_ms = scan_trend(merged["spans"])
    submits = [b.name for b in spans.BOUNDARIES if b.layer in ("serve.parse", "serve.submit")]
    values = {
        "import.cli_s": probe["cli_s"],
        "import.modules": probe["modules"],
        "import.scipy_modules": probe["scipy_modules"],
        "hardware.calibrate_s": layer("hardware.calibrate"),
        "hardware.calibrate_calls": calls("hardware.calibrate"),
        "hardware.power_s": layer("hardware.power"),
        "hardware.pmu_s": layer("hardware.pmu"),
        "engine.run_s": layer("engine.run"),
        "engine.runs": counts.get("engine.runs", 0),
        "engine.meter_samples": counts.get("engine.meter_samples", 0),
        "engine.pmu_samples": counts.get("engine.pmu_samples", 0),
        "metering.trim_s": layer("metering.trim"),
        "metering.trim_calls": calls("metering.trim"),
        "metering.features_s": layer("metering.features"),
        "metering.feature_rows": counts.get("metering.feature_rows", 0),
        "metering.stream_s": layer("metering.stream"),
        "core.evaluate_s": layer("core.evaluate"),
        "core.evaluate_calls": calls("core.evaluate"),
        "core.collect_s": layer("core.collect"),
        "core.train_s": layer("core.train"),
        "stats.fit_s": layer("stats.fit"),
        "stats.fit_calls": calls("stats.fit"),
        "model.publish_s": layer("model.publish"),
        "model.predict_s": layer("model.predict"),
        "model.predict_rows": counts.get("model.predict_rows", 0),
        "model.r2_out_of_band": extra.get("r2_out_of_band", 0),
        "io.serialise_s": layer("io.serialise"),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "fleet.run_s": layer("fleet.run"),
        "fleet.chunks": calls("fleet.worker"),
        "fleet.worker_busy_s": layer("fleet.worker", "total_s"),
        "fleet.cache_scan_s": layer("fleet.cache_scan"),
        "fleet.cache_scans": calls("fleet.cache_scan"),
        "fleet.cache_scan_first_ms": scan_ms[0],
        "fleet.cache_scan_last_ms": scan_ms[-1],
        "fleet.cache_get_s": layer("fleet.cache_get"),
        "fleet.cache_gets": gets,
        "fleet.cache_hits": counts.get("fleet.cache_hit_count", 0) / gets if gets else 0.0,
        "fleet.cache_put_s": layer("fleet.cache_put"),
        "fleet.cache_puts": calls("fleet.cache_put"),
        "fleet.cache_bytes": counts.get("fleet.cache_bytes", 0),
        "storage.atomic_write_s": layer("storage.atomic_write"),
        "storage.atomic_writes": calls("storage.atomic_write"),
        "storage.append_s": layer("storage.append"),
        "storage.appends": calls("storage.append"),
        "serve.ack_p90_s": p90(extra.get("ack", [])),
        "serve.parse_s": layer("serve.parse"),
        "serve.submit_s": layer("serve.submit"),
        "serve.http_s": (
            sum(extra["ack"]) - sum(merged["total_s"].get(n, 0.0) for n in submits)
            if extra.get("ack") else 0.0
        ),
        "serve.queue_wait_p50_s": median(extra.get("queue_wait", [])),
        "serve.queue_wait_p90_s": p90(extra.get("queue_wait", [])),
        "serve.execute_p50_s": median(extra.get("execute", [])),
        "serve.execute_p90_s": p90(extra.get("execute", [])),
        "serve.save_result_s": layer("serve.save_result"),
        "serve.deduped": extra.get("deduped", 0),
        "serve.rejected": extra.get("rejected", 0),
        "serve.polls": extra.get("polls", 0),
        "serve.late_p90_s": p90(extra.get("late", [])),
        "trace.overhead_share": traced["window_s"] / plain["window_s"] - 1.0
        if plain["window_s"] else 0.0,
        "trace.self_share": max(
            (p["self_s"] / p["wall_s"] for p in merged["processes"] if p["wall_s"]),
            default=0.0,
        ),
    }
    problems = [
        f"coverage: {name} recorded no call" for name in spans.coverage_gaps(merged, workload)
    ]
    for proc in merged["processes"]:
        if proc["self_s"] > proc["wall_s"]:
            problems.append(
                f"self times of pid {proc['pid']} sum to {proc['self_s']:.3f} s, "
                f"more than its traced wall time {proc['wall_s']:.3f} s"
            )
    if not merged["processes"]:
        problems.append("coverage: no process wrote spans")
    return values, problems


def scan_trend(span_list: "list[dict]") -> "list[float]":
    """Mean ``ResultCache.__len__`` time per operation, in ms, in start order.

    An operation is one trace; the cache grows from the first trace to
    the last, so a rising trend is a directory listing per job.
    """
    name = "repro.fleet.cache.ResultCache.__len__"
    per_trace: dict[str, list] = {}
    for span in span_list:
        if span["name"] == name:
            per_trace.setdefault(span["trace"], []).append(span)
    trend = [
        1000.0 * statistics.fmean(s["end"] - s["start"] for s in group)
        for group in sorted(per_trace.values(), key=lambda g: min(s["start"] for s in g))
    ]
    return trend or [0.0]


# -- one workload ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns metrics with units and sample counts."""
    plan = inputs.plan(workload, seed, seconds)
    runner = RUNNERS[workload]
    run = Run(workload)
    try:
        if not traced:
            result = runner(run, plan, None, True)
            metrics = {
                name: (value, END_TO_END[name], n)
                for name, (value, n) in end_to_end(result).items()
            }
            failures = result["failures"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            probe = import_probe(run, detail=True)
            plain = runner(run, plan, None, False)
            run.tag = "traced"
            spans_dir = run.directory("spans")
            traced_result = runner(run, plan, spans_dir, False)
            merged = spans.merge(spans_dir)
            values, problems = layer_metrics(workload, merged, traced_result, plain, probe)
            metrics = {name: (values[name], unit, 1) for name, unit in PER_LAYER.items()}
            failures = plain["failures"] + traced_result["failures"] + problems
            attempted = plain["attempted"] + traced_result["attempted"]
            failed = plain["failed"] + traced_result["failed"]
    except (RuntimeError, OSError, ValueError) as exc:
        metrics = {}
        failures = [f"{type(exc).__name__}: {exc}"]
        attempted, failed = 1, 1
    finally:
        run.close()
    return {
        "workload": workload,
        "metrics": metrics,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }


def environment() -> dict[str, Any]:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            var: os.environ[var]
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            )
            if var in os.environ
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    subprocess.run([PY, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    mode = "traced" if args.trace else "plain"
    print(f"{report['workload']} (seed {args.seed}, {args.seconds:g} s, {mode}): "
          f"{report['attempted']} attempted, {report['failed']} failed")
    for name, (value, unit, n) in report["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {unit:<7} n={n}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"env": environment()}))
    correct = bool(report["metrics"]) and not report["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in report["metrics"].items()
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process exactly as run alone.

    A child's ``ru_maxrss`` starts from its parent's resident size at
    fork, so the workloads must not share a parent that has grown.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [PY, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_BUDGET_S + 60,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  FAILED {workload}: no result; {proc.stderr[-300:]}")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps({"env": environment()}))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
