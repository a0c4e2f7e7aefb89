"""Workload inputs: every plan is a pure function of (workload, seed, seconds).

A run does a fixed amount of work, sized from ``--seconds`` by the
nominal cost of one operation at the commit that introduced the
benchmark (2-CPU container), so two runs with the same arguments do the
same operations, and exact counters repeat.  The program receives only
what a plan holds.
"""

from __future__ import annotations

import random
from typing import Any

WORKLOADS = ("evaluate_cold", "fleet_cold", "model_fit", "serve_open")

#: Paper-anchored builtins first, then zoo servers on heuristic coefficients.
EVALUATE_SERVERS = (
    "Xeon-E5462",
    "Opteron-8347",
    "Xeon-4870",
    "Tesla-K20-Node",
    "Atom-C2750",
)
BUILTIN_SERVERS = EVALUATE_SERVERS[:3]

#: Nominal seconds per operation, used only to size a run.
NOMINAL_OP_S = {
    "evaluate_cold": 1.9,
    "fleet_cold": 2.8,
    "model_fit": 0.42,
}
#: Distinct seeds per builtin server in ``model_fit`` (pairs repeat).
FIT_SEEDS = 3
#: Open-loop arrival rate of ``serve_open``, campaigns per second.  At 2/s
#: the daemon is about half busy on a 2-CPU machine, and queueing doubled
#: the run-to-run spread of latency as machine speed drifted; at 1/s it
#: stays near the spread of the service time itself.
SERVE_RATE = 1.0
SERVE_TENANTS = ("t0", "t1", "t2", "t3")
#: The load generator's priority mix (``repro.serve.loadgen``).
PRIORITY_MIX = ("high",) + ("normal",) * 6 + ("low",) * 3
#: Traffic of ``serve_open`` in a fixed 20-submission cycle: 12 new
#: evaluates (N, 60%), 5 repeats of an earlier evaluate (R, 25%) and 3
#: one-workload fleet campaigns (F, 15%).  Every R follows an N.  Repeats
#: alternate between that N's body, sent REPEAT_GAP_S after it while it
#: still runs (a dedup follower), and the body five new evaluates back,
#: long finished (cache hits).  The cycle, the server rotation and the
#: repeat targets do not depend on the seed, so every seed offers the
#: same mix; the seed picks the run seeds.
SERVE_CYCLE = "NNRNFNNRNNRNFNNRNRFN"
REPEAT_LAGS = (0, 5)
REPEAT_GAP_S = 0.02
NPB_SMALL = (("ep", 1), ("ep", 2), ("cg", 1), ("cg", 2), ("ft", 1))


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # interpreter runs, unlike hash().
    return random.Random(f"perfbench/{workload}/{seed}")


def _fresh_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def op_count(workload: str, seconds: float) -> int:
    if workload == "serve_open":
        # Whole traffic cycles, so every run offers the same mix.
        cycles = max(1, round(SERVE_RATE * seconds / len(SERVE_CYCLE)))
        return cycles * len(SERVE_CYCLE)
    return max(3, round(seconds / NOMINAL_OP_S[workload]))


def plan(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The complete, JSON-serialisable input of one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    n = op_count(workload, seconds)
    if workload == "evaluate_cold":
        ops = [
            {"server": EVALUATE_SERVERS[i % len(EVALUATE_SERVERS)],
             "seed": _fresh_seed(rng)}
            for i in range(n)
        ]
        return {"workload": workload, "ops": ops}
    if workload == "fleet_cold":
        return {
            "workload": workload,
            "campaign_seeds": [_fresh_seed(rng) for _ in range(n)],
        }
    if workload == "model_fit":
        # Servers rotate in a fixed order (the cost mix of a run is the
        # same for every seed); each server repeats its FIT_SEEDS seeds.
        seeds = {s: [_fresh_seed(rng) for _ in range(FIT_SEEDS)] for s in BUILTIN_SERVERS}
        k = len(BUILTIN_SERVERS)
        cycles = [
            [BUILTIN_SERVERS[i % k], seeds[BUILTIN_SERVERS[i % k]][(i // k) % FIT_SEEDS]]
            for i in range(n)
        ]
        return {"workload": workload, "cycles": cycles}
    return {"workload": workload, "rate": SERVE_RATE, "ops": serve_schedule(rng, n)}


def _fleet_body(rng: random.Random, index: int) -> dict[str, Any]:
    from repro.fleet.spec import (
        CampaignSpec,
        NpbWorkload,
        campaign_to_dict,
        workload_to_dict,
    )
    from repro.hardware.zoo import resolve_server

    program, nprocs = NPB_SMALL[index % len(NPB_SMALL)]
    spec = CampaignSpec(
        name=f"bench-{index:04d}",
        servers=(resolve_server(BUILTIN_SERVERS[index % len(BUILTIN_SERVERS)]),),
        workloads=(workload_to_dict(NpbWorkload(program, "A", nprocs)),),
        seed=_fresh_seed(rng),
    )
    return {"kind": "fleet", "campaign": campaign_to_dict(spec)}


def serve_schedule(rng: random.Random, n: int) -> list[dict[str, Any]]:
    """Open-loop submissions: due offset, tenant, priority, body."""
    new_bodies: list[dict[str, Any]] = []
    ops = []
    fleet = repeats = 0
    for i in range(n):
        mix = SERVE_CYCLE[i % len(SERVE_CYCLE)]
        due_s = i / SERVE_RATE
        if mix == "N":
            body = {
                "kind": "evaluate",
                "server": EVALUATE_SERVERS[len(new_bodies) % len(EVALUATE_SERVERS)],
                "seed": _fresh_seed(rng),
            }
            new_bodies.append(body)
        elif mix == "R":
            lag = REPEAT_LAGS[repeats % len(REPEAT_LAGS)]
            body = new_bodies[max(0, len(new_bodies) - 1 - lag)]
            repeats += 1
            if lag == 0:
                due_s = ops[-1]["due_s"] + REPEAT_GAP_S
        else:
            body = _fleet_body(rng, fleet)
            fleet += 1
        ops.append(
            {
                "due_s": due_s,
                "tenant": SERVE_TENANTS[i % len(SERVE_TENANTS)],
                "mix": {"N": "new", "R": "repeat", "F": "fleet"}[mix],
                "body": dict(body, priority=PRIORITY_MIX[i % len(PRIORITY_MIX)]),
            }
        )
    return ops
