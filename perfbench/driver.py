"""Long-lived driver process for the in-process workloads.

    python3 perfbench/driver.py --plan PLAN.json --out RESULT.json --work DIR
        [--spans DIR] [--probe]

Imports what its workload needs, prints ``ready`` (the parent times
spawn to this line as set-up), then runs the plan and writes the
operations' latencies and check results to ``--out``.  With ``--probe``
it exits after ``ready``; with ``--spans`` it installs the boundary
wrappers first and writes its spans there.  Checks run outside the
timed intervals.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path


def _import_workload(workload: str) -> None:
    if workload == "fleet_cold":
        import repro.fleet  # noqa: F401
        import repro.fleet.spec  # noqa: F401
        import repro.hardware.zoo  # noqa: F401
    else:
        import repro.core.regression  # noqa: F401
        import repro.model.inference  # noqa: F401
        import repro.model.registry  # noqa: F401
        import repro.model.validate  # noqa: F401


def run_digest(run) -> str:
    """SHA-256 over a RunResult's demand, arrays and PMU samples, bit for bit."""
    import numpy as np

    # repr() of a float is exact, so the demand and PMU samples hash bit
    # for bit, like the arrays' raw bytes.
    h = hashlib.sha256(repr((run.demand, run.t_start_s, run.pmu_samples)).encode())
    for name in ("times_s", "true_watts", "measured_watts", "memory_mb"):
        h.update(np.ascontiguousarray(getattr(run, name), dtype="<f8").tobytes())
    return h.hexdigest()


def digests(outcome) -> dict[str, str]:
    return {job: run_digest(run) for job, run in outcome.results().items()}


class Ledger:
    """Operations, their latencies and every failed check.

    A failure message starts with the tag of the operation it belongs
    to (``"campaign 3: ..."``); an operation with any failure is failed.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.latencies: list[float] = []
        self.jobs = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.extra: dict = {}

    def op(self, latency_s: float, jobs: int, failures: "list[str]") -> None:
        """Record one timed, checked operation."""
        self.attempted += 1
        self.latencies.append(latency_s)
        self.failures.extend(failures)
        if not failures:
            self.jobs += jobs

    @contextlib.contextmanager
    def checking(self):
        """Pause span recording during checks: they are not the workload."""
        if self.recorder is None:
            yield
            return
        self.recorder.enabled = False
        try:
            yield
        finally:
            self.recorder.enabled = True

    def to_dict(self) -> dict:
        return {
            "latencies": self.latencies,
            "jobs": self.jobs,
            "window_s": sum(self.latencies),
            "attempted": self.attempted,
            "failed": len({f.split(":")[0] for f in self.failures}),
            "failures": self.failures,
            "extra": self.extra,
        }


def _servers():
    from repro.hardware.specs import BUILTIN_SERVERS
    from repro.hardware.zoo import ZOO_SERVERS

    return tuple(BUILTIN_SERVERS.values()) + tuple(ZOO_SERVERS.values())


def _campaign_failures(tag: str, outcome, jobs: int) -> list[str]:
    failures = []
    if not outcome.ok:
        failures.append(f"{tag}: {len(outcome.failures)} job(s) failed")
    if len(outcome.records) != jobs:
        failures.append(f"{tag}: {len(outcome.records)} records, want {jobs}")
    if outcome.cache_hits:
        failures.append(f"{tag}: {outcome.cache_hits} cache hits on fresh seeds")
    return failures


def run_fleet_cold(plan: dict, work: Path, ledger: Ledger) -> None:
    from repro.fleet import FleetRunner, ResultCache
    from repro.fleet.spec import evaluation_campaign

    servers = _servers()
    runner = FleetRunner(workers=None, cache=ResultCache(work / "cache"))
    first = None
    for i, seed in enumerate(plan["campaign_seeds"]):
        campaign = evaluation_campaign(servers, seed=seed)
        jobs = len(campaign.jobs())
        t0 = time.perf_counter()
        outcome = runner.run(campaign)
        latency = time.perf_counter() - t0
        ledger.op(latency, jobs, _campaign_failures(f"campaign {i}", outcome, jobs))
        if first is None:
            first = (campaign, digests(outcome))
    # Reference: the first campaign again, serial and uncached.
    campaign, pooled = first
    with ledger.checking():
        if digests(FleetRunner(workers=1).run(campaign)) != pooled:
            ledger.failures.append("campaign 0: pooled results differ from serial")


def run_model_fit(plan: dict, work: Path, ledger: Ledger) -> None:
    import numpy as np

    from repro.core import regression
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server
    from repro.model.inference import InferenceEngine
    from repro.model.registry import ModelRegistry
    from repro.model.validate import R2_BANDS
    from repro.workloads.hpcc import HPCC_COMPONENTS

    registry = ModelRegistry(work / "registry")
    digests: dict = {}
    out_of_band = 0
    for i, (name, seed) in enumerate(plan["cycles"]):
        server = get_server(name)
        t0 = time.perf_counter()
        dataset = regression.collect_hpcc_training(
            server, Simulator(server, seed=seed)
        )
        model = regression.train_power_model(dataset, server.name)
        artifact = registry.publish(model, dataset=dataset)
        checks = {
            "train": model.r_square,
            "B": regression.verify_on_npb(
                server, model, "B", Simulator(server, seed=seed)
            ).r_squared,
            "C": regression.verify_on_npb(
                server, model, "C", Simulator(server, seed=seed)
            ).r_squared,
        }
        loaded = registry.load(artifact.name, artifact.version)
        served = InferenceEngine(loaded).predict(dataset.features)
        latency = time.perf_counter() - t0

        tag = f"fit {i} {name}/{seed}"
        failures = []
        with ledger.checking():
            direct = InferenceEngine(model).predict(dataset.features)
        if not (
            np.array_equal(served.watts, direct.watts)
            and np.array_equal(served.normalized, direct.normalized)
        ):
            failures.append(f"{tag}: loaded artifact predicts differently")
        digest = digests.setdefault((name, seed), artifact.model_digest)
        if digest != artifact.model_digest:
            failures.append(f"{tag}: model digest changed on refit")
        for check, r2 in checks.items():
            lo, hi = R2_BANDS[check]
            out_of_band += not lo <= r2 <= hi
        jobs = server.total_cores * len(HPCC_COMPONENTS) + sum(
            len(regression.verification_runs(server, k)) for k in "BC"
        )
        ledger.op(latency, jobs, failures)
    ledger.extra["r2_out_of_band"] = out_of_band


RUNNERS = {
    "fleet_cold": run_fleet_cold,
    "model_fit": run_model_fit,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out")
    parser.add_argument("--work")
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    _import_workload(plan["workload"])
    print("ready", flush=True)
    if args.probe:
        return 0
    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, out_dir=args.spans)
    ledger = Ledger(recorder)
    try:
        RUNNERS[plan["workload"]](plan, Path(args.work), ledger)
    finally:
        if recorder is not None:
            recorder.dump(args.spans)
    Path(args.out).write_text(json.dumps(ledger.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
