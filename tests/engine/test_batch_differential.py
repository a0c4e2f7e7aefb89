"""Trace pins: every run the engine generates is pinned by SHA-256.

Every workload family crossed with every builtin server, at two start
times, plus a sweep of seeds, a list that fails to bind, and two
downstream results.  Each digest covers every :class:`RunResult` field
byte for byte (and each in-place :class:`WorkloadError`'s type and
message), and is checked through both entry points — the per-run
``Simulator.run`` loop and the list-at-once ``run_batch`` — so a change
to the trace generator, its draw order, or the error mapping shows up
as a digest change.  The CI differential job runs this file on several
Python versions to pin the bytes across interpreter builds.

Print the current digests with ``PYTHONPATH=src python
tests/engine/test_batch_differential.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import run_batch
from repro.engine.trace import RunResult
from repro.errors import WorkloadError
from repro.hardware import get_server
from repro.workloads.hpcc import HPCC_COMPONENTS, HpccWorkload
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NPB_PROGRAMS, NpbWorkload
from repro.workloads.specpower import SpecPowerWorkload, full_run_levels

SEED = 2015

SERVERS = ("Xeon-E5462", "Opteron-8347", "Xeon-4870")

ENTRIES = ("Simulator.run", "run_batch")

#: ``case id -> SHA-256`` over the case's items, generated before the
#: serial and batch trace generators were merged into one.
PINNED = {
    "families/Xeon-E5462/t0": (
        "4de204d67e8122fba1556a068e390d5606b112258b02ef677ba5149de8565e64"
    ),
    "families/Xeon-E5462/t1234": (
        "bedebe8f5e18b424e809346c7cac6cff56b96061aef8dffe5a5d7cfc5403fc66"
    ),
    "families/Opteron-8347/t0": (
        "7e1cdab11745537825f6505060ffe1283bc27b9001bad0613b725e122f49cf69"
    ),
    "families/Opteron-8347/t1234": (
        "7623a2c0dc9b4feedbf8a1ce4608cd01e99cfbaec932f31eab1f6b1e8cbbda55"
    ),
    "families/Xeon-4870/t0": (
        "424824d03f320aa297d7fdb048caee5054c6b6d25e3717220c0a021e7acbe2d8"
    ),
    "families/Xeon-4870/t1234": (
        "ae08db61f8abcfbc0d9bbe426e5099509249e4a73ae4139e0e46f493d7e71b47"
    ),
    "seed/0": (
        "f0ab50bf11bdf78c1eaea5a2b12ebb4f39c709e1a318e78c6b1f4eef188f9f11"
    ),
    "seed/1": (
        "22b90ef07d2e61781802a2e10e3fc0b3ec9a321e480194d35d687cc346d38740"
    ),
    "seed/7": (
        "fab84bcdd828b3cf1008dd88b07e13b4287ef609a3a1193804191fc315411c56"
    ),
    "seed/424242": (
        "58094f1eb81cbbd5b70779c02620c7e30cc447772a547bd51e5f71f9e767b3f8"
    ),
    "errors/Xeon-E5462": (
        "0dfe0d985c1b1c7671695ee018d79c4041c2f3f2c103b90a3f6e76b0cc3fa462"
    ),
    "mixed_power_sweep/Xeon-E5462": (
        "cbeaa5491e459a22f907123934f0949be66611ee12b34e2690658ddd4ada8025"
    ),
    "evaluate_server/Xeon-E5462": (
        "55ba52dd9d44d7b9b265171694c87b45de258134ae4d74d4629173fbc08a574f"
    ),
}


def family_workloads(server):
    """One representative list spanning every workload family."""
    workloads = [SpecPowerWorkload(level) for level in full_run_levels()]
    workloads += [
        HplWorkload(HplConfig(n, 0.95)) for n in (1, 2, 4)
    ]
    workloads.append(HplWorkload(HplConfig(4, 0.5, nb=100)))
    workloads.append(HplWorkload(HplConfig(4, 0.5, nb=200, p=2, q=2)))
    for name in sorted(NPB_PROGRAMS):
        counts = [
            n for n in (1, 2, 4) if NPB_PROGRAMS[name].proc_rule.allows(n)
        ]
        workloads += [NpbWorkload(name, "C", n) for n in counts[:2]]
    workloads += [
        HpccWorkload(component, 4) for component in HPCC_COMPONENTS
    ]
    workloads.append(ResourceDemand.idle(duration_s=45.0))
    workloads.append(
        ResourceDemand(
            program="custom",
            nprocs=min(2, server.total_cores),
            duration_s=33.0,
            gflops=5.0,
            memory_mb=256.0,
            cpu_util=0.8,
        )
    )
    return workloads


def _array_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def items_digest(items) -> str:
    """SHA-256 over every field of every run (or error) in ``items``."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, WorkloadError):
            h.update(f"error:{type(item).__name__}:{item}\n".encode())
            continue
        assert isinstance(item, RunResult)
        h.update(
            f"run:{item.demand!r}:{item.t_start_s!r}:"
            f"{item.power_factor!r}\n".encode()
        )
        for values in (
            item.times_s,
            item.true_watts,
            item.measured_watts,
            item.memory_mb,
        ):
            h.update(_array_bytes(values))
        h.update(repr(item.pmu_samples).encode())
    return h.hexdigest()


def entry_items(entry, simulator, workloads, t_start_s=0.0):
    """Run ``workloads`` through one entry point, errors kept in place."""
    if entry == "run_batch":
        return run_batch(simulator, workloads, t_start_s=t_start_s)
    items = []
    for workload in workloads:
        try:
            items.append(simulator.run(workload, t_start_s=t_start_s))
        except WorkloadError as exc:
            items.append(exc)
    return items


def assert_pinned(case, server, workloads, seed=SEED, t_start_s=0.0):
    """Both entry points reproduce the pinned digest of ``case``."""
    for entry in ENTRIES:
        items = entry_items(
            entry, Simulator(server, seed=seed), workloads, t_start_s
        )
        assert len(items) == len(workloads)
        assert any(isinstance(item, RunResult) for item in items)
        assert items_digest(items) == PINNED[case], (case, entry)


SEED_WORKLOADS = (NpbWorkload("ep", "C", 4), HplWorkload(HplConfig(2)))

#: cg class C does not fit the E5462's memory: the error is pinned in
#: place, ahead of a run that must be unaffected by it.
ERROR_WORKLOADS = (NpbWorkload("cg", "C", 1), NpbWorkload("ep", "C", 1))


class TestAllFamiliesAllServers:
    def test_batch_equals_serial(self, any_server):
        assert_pinned(
            f"families/{any_server.name}/t0",
            any_server,
            family_workloads(any_server),
        )

    def test_nonzero_start_time(self, any_server):
        assert_pinned(
            f"families/{any_server.name}/t1234",
            any_server,
            family_workloads(any_server),
            t_start_s=1234.0,
        )

    def test_other_seeds_still_identical(self, e5462):
        for seed in (0, 1, 7, 424242):
            assert_pinned(
                f"seed/{seed}", e5462, list(SEED_WORKLOADS), seed=seed
            )


class TestErrorParity:
    def test_memory_error_identical_message(self, e5462):
        assert_pinned("errors/Xeon-E5462", e5462, list(ERROR_WORKLOADS))
        items = run_batch(Simulator(e5462, seed=SEED), list(ERROR_WORKLOADS))
        assert isinstance(items[0], WorkloadError)
        assert isinstance(items[1], RunResult)


def mixed_power_sweep_digest() -> str:
    from repro.core.sweeps import mixed_power_sweep

    points = mixed_power_sweep(
        Simulator(get_server("Xeon-E5462"), seed=SEED), (4, 2, 1)
    )
    return hashlib.sha256(repr(points).encode()).hexdigest()


def evaluate_server_digest() -> str:
    from repro.core.evaluation import evaluate_server
    from repro.core.grid import evaluation_digest

    return evaluation_digest(evaluate_server(get_server("Xeon-E5462")))


class TestDownstreamPins:
    def test_mixed_power_sweep_matches_pin(self):
        assert (
            mixed_power_sweep_digest()
            == PINNED["mixed_power_sweep/Xeon-E5462"]
        )

    def test_evaluate_server_matches_pin(self):
        assert (
            evaluate_server_digest() == PINNED["evaluate_server/Xeon-E5462"]
        )


def current_digests() -> dict:
    """Recompute every pin (through ``run_batch``)."""
    cases = {}
    for name in SERVERS:
        server = get_server(name)
        for t_start_s in (0.0, 1234.0):
            cases[f"families/{name}/t{t_start_s:.0f}"] = (
                server, SEED, family_workloads(server), t_start_s
            )
    e5462 = get_server("Xeon-E5462")
    for seed in (0, 1, 7, 424242):
        cases[f"seed/{seed}"] = (e5462, seed, list(SEED_WORKLOADS), 0.0)
    cases["errors/Xeon-E5462"] = (e5462, SEED, list(ERROR_WORKLOADS), 0.0)
    digests = {
        case: items_digest(
            run_batch(Simulator(server, seed=seed), workloads, t_start_s)
        )
        for case, (server, seed, workloads, t_start_s) in cases.items()
    }
    digests["mixed_power_sweep/Xeon-E5462"] = mixed_power_sweep_digest()
    digests["evaluate_server/Xeon-E5462"] = evaluate_server_digest()
    return digests


if __name__ == "__main__":
    for case, digest in current_digests().items():
        print(f'    "{case}": "{digest}",')
