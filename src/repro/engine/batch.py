"""Run lists: evaluate many workloads on one simulator in one call.

Sweeps, evaluations and fleet chunks execute dozens of runs back to
back.  :class:`BatchEngine` binds each workload of a list and generates
its traces with the simulator's own trace generator — the one
``Simulator.run`` uses — so a run's result is the same whichever entry
point produced it.  Configurations that cannot run (memory fit,
process-count rules) come back as their
:class:`~repro.errors.WorkloadError` in place of the run, so one bad
point does not abort the list.

Results do not depend on batching: every run draws from its own
``(seed, program label)`` stream (see
:func:`~repro.engine.simulator._run_seed`), never from execution order,
so neither the list a run shares nor its position in it can change
which numbers it sees.  ``tests/engine/test_batch_differential.py``
pins the traces through both entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.demand import ResourceDemand
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import WorkloadError
from repro.workloads.base import Workload

__all__ = ["BatchResult", "BatchEngine", "run_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Everything one batch evaluation produced.

    ``items`` is positionally aligned with the input workload list;
    configurations that could not run carry their
    :class:`~repro.errors.WorkloadError` instead of a result.
    """

    server: str
    seed: int
    items: "tuple[RunResult | WorkloadError, ...]"

    @property
    def runs(self) -> tuple[RunResult, ...]:
        """The successful runs, in input order."""
        return tuple(
            item for item in self.items if isinstance(item, RunResult)
        )


class BatchEngine:
    """Evaluates lists of workloads on one simulator's server.

    Wraps an existing :class:`~repro.engine.simulator.Simulator` — the
    server, power model, meter spec, seed, and placement policy all come
    from it, and so does the trace generator.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator

    def run(
        self,
        workloads: "list[Workload | ResourceDemand]",
        t_start_s: float = 0.0,
    ) -> BatchResult:
        """Evaluate every workload; never raises for per-item bind errors.

        Workload errors (memory fit, process-count rules) come back in
        place of the run; meter over-range and other simulation errors
        abort the batch.
        """
        sim = self.simulator
        items: "list[RunResult | WorkloadError]" = []
        with obs.timed(
            "engine.batch", server=sim.server.name, runs=len(workloads)
        ):
            for workload in workloads:
                try:
                    demand, factor = sim._bind(workload)
                except WorkloadError as exc:
                    items.append(exc)
                    continue
                items.append(sim._generate(demand, factor, t_start_s))
        result = BatchResult(sim.server.name, sim.seed, tuple(items))
        obs.inc("engine.batch.runs", float(len(result.runs)))
        return result


def run_batch(
    simulator: Simulator,
    workloads: "list[Workload | ResourceDemand]",
    t_start_s: float = 0.0,
) -> "list[RunResult | WorkloadError]":
    """Evaluate ``workloads`` as one list.

    The returned list is positionally aligned with the input and carries
    :class:`~repro.errors.WorkloadError` instances for configurations
    that cannot run.
    """
    return list(BatchEngine(simulator).run(workloads, t_start_s).items)
