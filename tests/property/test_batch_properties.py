"""Property-based equivalence of run lists and single runs.

The trace pins cover the curated workload families; these properties
fuzz the demand space itself — arbitrary valid :class:`ResourceDemand`
mixes on every builtin server must come out of ``run_batch``
bit-identical to one ``Simulator.run`` per workload (bind errors
included, in place), and the result of a run must not depend on which
other runs share its list.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import run_batch
from repro.engine.trace import RunResult
from repro.errors import WorkloadError
from repro.hardware import OPTERON_8347, XEON_4870, XEON_E5462
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NPB_PROGRAMS, NpbWorkload

SERVERS = (XEON_E5462, OPTERON_8347, XEON_4870)

_PROGRAMS = ("fuzz-a", "fuzz-b", "fuzz-c", "fuzz-d", "fuzz-e")

unit = st.floats(0.0, 1.0, allow_nan=False)
# The cache model requires locality strictly below 1.
locality = st.floats(0.0, 0.99, allow_nan=False)


@st.composite
def demands(draw, server):
    """An arbitrary valid demand that fits ``server``."""
    nprocs = draw(st.integers(1, server.total_cores))
    return ResourceDemand(
        program=draw(st.sampled_from(_PROGRAMS)),
        nprocs=nprocs,
        duration_s=draw(st.floats(1.0, 45.0, allow_nan=False)),
        gflops=draw(st.floats(0.0, 40.0, allow_nan=False)),
        memory_mb=draw(st.floats(0.0, 2000.0, allow_nan=False)),
        cpu_util=draw(unit),
        ipc=draw(unit),
        fp_intensity=draw(unit),
        mem_intensity=draw(unit),
        comm_intensity=draw(unit),
        l1_locality=draw(locality),
        l2_locality=draw(locality),
        l3_locality=draw(locality),
        read_fraction=draw(unit),
    )


@st.composite
def server_and_demands(draw):
    server = draw(st.sampled_from(SERVERS))
    batch = draw(st.lists(demands(server), min_size=1, max_size=4))
    return server, batch


def assert_runs_identical(a: RunResult, b: RunResult) -> None:
    assert a.demand == b.demand
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.true_watts, b.true_watts)
    assert np.array_equal(a.measured_watts, b.measured_watts)
    assert np.array_equal(a.memory_mb, b.memory_mb)
    assert a.pmu_samples == b.pmu_samples
    assert a.power_factor == b.power_factor


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=server_and_demands(), seed=st.integers(0, 2**16))
def test_batch_matches_serial_on_random_demands(case, seed):
    server, batch = case
    serial = [Simulator(server, seed=seed).run(d) for d in batch]
    batched = run_batch(Simulator(server, seed=seed), batch)
    for a, b in zip(serial, batched):
        assert_runs_identical(a, b)


hpl_workloads = st.builds(
    HplWorkload,
    st.builds(
        HplConfig,
        st.sampled_from([1, 2, 4]),
        st.sampled_from([0.5, 0.95]),
    ),
)
npb_workloads = st.builds(
    NpbWorkload,
    st.sampled_from(sorted(NPB_PROGRAMS)),
    st.sampled_from(["W", "A", "B", "C"]),
    st.sampled_from([1, 2, 4]),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    server=st.sampled_from(SERVERS),
    workloads=st.lists(
        st.one_of(hpl_workloads, npb_workloads), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**16),
)
def test_batch_matches_serial_on_random_workloads(server, workloads, seed):
    """Modelled workloads (bind-time errors included) behave identically."""
    simulator = Simulator(server, seed=seed)
    serial = []
    for workload in workloads:
        try:
            serial.append(Simulator(server, seed=seed).run(workload))
        except WorkloadError as exc:
            serial.append(exc)
    for a, b in zip(serial, run_batch(simulator, workloads)):
        if isinstance(a, WorkloadError):
            assert type(b) is type(a) and str(b) == str(a)
        else:
            assert_runs_identical(a, b)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=server_and_demands(), data=st.data())
def test_batch_is_order_and_membership_independent(case, data):
    """A run's result depends on (seed, program), never on batch shape.

    Shuffling the batch, or evaluating any subset of it, must reproduce
    each member's result exactly — this is what lets the fleet chunk
    jobs arbitrarily and retry single members without drift.
    """
    server, batch = case
    reference = run_batch(Simulator(server, seed=2015), batch)

    order = data.draw(st.permutations(range(len(batch))))
    shuffled = run_batch(
        Simulator(server, seed=2015), [batch[i] for i in order]
    )
    for position, original_index in enumerate(order):
        assert_runs_identical(
            shuffled[position], reference[original_index]
        )

    keep = data.draw(
        st.lists(
            st.integers(0, len(batch) - 1),
            min_size=1,
            max_size=len(batch),
            unique=True,
        )
    )
    subset = run_batch(Simulator(server, seed=2015), [batch[i] for i in keep])
    for position, original_index in enumerate(keep):
        assert_runs_identical(subset[position], reference[original_index])
