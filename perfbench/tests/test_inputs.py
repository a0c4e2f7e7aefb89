"""Workload inputs are a deterministic function of the seed."""

import pytest

import inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_plan(workload):
    assert inputs.plan(workload, 7, 15) == inputs.plan(workload, 7, 15)
    assert inputs.plan(workload, 7, 15) != inputs.plan(workload, 8, 15)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_run_size_depends_on_seconds_only(workload):
    def size(plan):
        return len(next(v for k, v in plan.items() if isinstance(v, list)))

    assert size(inputs.plan(workload, 1, 15)) == size(inputs.plan(workload, 2, 15))
    assert size(inputs.plan(workload, 1, 30)) > size(inputs.plan(workload, 1, 15))


def test_serve_traffic_mix_and_schedule():
    ops = inputs.plan("serve_open", 3, 60)["ops"]
    dues = [op["due_s"] for op in ops]
    assert dues == sorted(dues) and dues[-1] < len(ops) / inputs.SERVE_RATE
    for prev, op in zip(ops, ops[1:]):
        if op["due_s"] - prev["due_s"] == pytest.approx(inputs.REPEAT_GAP_S):
            assert op["mix"] == "repeat" and op["body"]["seed"] == prev["body"]["seed"]
    share = {m: sum(op["mix"] == m for op in ops) / len(ops) for m in ("new", "repeat", "fleet")}
    assert share["new"] == pytest.approx(0.60, abs=0.12)
    assert share["repeat"] == pytest.approx(0.25, abs=0.12)
    assert share["fleet"] == pytest.approx(0.15, abs=0.10)
    earlier = []
    for op in ops:
        body = {k: v for k, v in op["body"].items() if k != "priority"}
        if op["mix"] == "repeat":
            assert body in earlier
        earlier.append(body)
    assert {op["tenant"] for op in ops} == set(inputs.SERVE_TENANTS)


def test_model_fit_pairs_repeat_within_a_run():
    cycles = inputs.plan("model_fit", 5, 15)["cycles"]
    pairs = {tuple(c) for c in cycles}
    assert len(pairs) == len(inputs.BUILTIN_SERVERS) * inputs.FIT_SEEDS
    assert len(cycles) > len(pairs)
