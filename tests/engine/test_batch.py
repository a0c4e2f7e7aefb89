"""Batch engine unit surface: result shape and error policy."""

import pytest

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import BatchEngine, BatchResult, run_batch
from repro.engine.trace import RunResult
from repro.errors import InsufficientMemoryError
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload


@pytest.fixture(scope="module")
def batch_result(e5462) -> BatchResult:
    """Two runnable NPB jobs of different durations plus one HPL run."""
    workloads = [
        NpbWorkload("ep", "C", 4),
        NpbWorkload("mg", "C", 2),
        HplWorkload(HplConfig(4, 0.95)),
    ]
    return BatchEngine(Simulator(e5462, seed=2015)).run(workloads)


class TestBatchResult:
    def test_items_align_with_input(self, batch_result):
        assert len(batch_result.items) == 3
        assert all(
            isinstance(item, RunResult) for item in batch_result.items
        )
        assert batch_result.runs == batch_result.items

    def test_server_and_seed_recorded(self, batch_result, e5462):
        assert batch_result.server == e5462.name
        assert batch_result.seed == 2015


class TestErrorPolicy:
    def test_workload_error_lands_in_place(self, e5462):
        # cg class C does not fit the E5462's 7.6 GB — the batch keeps
        # going and parks the error at the failing position.
        workloads = [
            NpbWorkload("ep", "C", 4),
            NpbWorkload("cg", "C", 1),
            NpbWorkload("mg", "C", 2),
        ]
        items = run_batch(Simulator(e5462, seed=2015), workloads)
        assert isinstance(items[0], RunResult)
        assert isinstance(items[1], InsufficientMemoryError)
        assert isinstance(items[2], RunResult)

    def test_failed_runs_are_excluded_from_runs(self, e5462):
        result = BatchEngine(Simulator(e5462, seed=2015)).run(
            [NpbWorkload("cg", "C", 1), NpbWorkload("ep", "C", 4)]
        )
        assert result.runs == (result.items[1],)

    def test_empty_batch(self, e5462):
        assert run_batch(Simulator(e5462, seed=2015), []) == []
        result = BatchEngine(Simulator(e5462, seed=2015)).run([])
        assert result.items == result.runs == ()

    def test_bare_demand_accepted(self, e5462):
        demand = ResourceDemand.idle(duration_s=30.0)
        (item,) = run_batch(Simulator(e5462, seed=2015), [demand])
        assert isinstance(item, RunResult)
        assert item.demand == demand
        assert item.power_factor == 1.0
