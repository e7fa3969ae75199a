"""Bit-identity gate: SHA-256 digests of a few small solves.

Each digest is taken over the repr of the result with every number as a
Python float or int (so the repr does not depend on how numpy prints its
scalars). A change that moves any value by one ulp changes the digest; such
a change must re-record these digests on purpose and say so.
"""

import dataclasses
import hashlib
import math
import numbers
from collections import Counter

import numpy as np
import pytest

from xlsched import (
    CausalStream,
    CrossLayerDecision,
    DecisionGrid,
    DependencyGraph,
    Instance,
    OnlineParams,
    ShannonExpModel,
    TraceParams,
    generate_dag,
    generate_trace,
    ShannonEnergyParams,
    recover_primal,
    run_online,
    solve_independent,
    solve_interdependent,
    UnitSolution,
)
from xlsched import offline
from xlsched.config import default_config
from xlsched.oracle import brute_force

from test_pair_polish import reference_polish
from test_window_search import _draw_case

MODEL = ShannonExpModel()
# the model and lattice of the acceptance gate's criterion-2 cells and of the
# benchmark's lattice workload: the config's energy cap of 50 binds there
CAPPED = ShannonExpModel(params=default_config().model)
LATTICE = DecisionGrid(0.01, 21)


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_plain(x) for x in obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError(f"no plain form for {type(obj).__name__}")


def _digest(obj) -> str:
    return hashlib.sha256(repr(_plain(obj)).encode()).hexdigest()


def _sweeps_on_random_dag(seed):
    base = generate_trace(TraceParams(seed=seed, num_dus=8))
    inst = Instance(base.units, base.budget, generate_dag("random", 8, 8, seed=seed, edge_prob=0.5))
    log = []
    report = solve_interdependent(inst, MODEL, max_outer=20, sweep_log=log)
    return report, log


def _lattice_chain():
    base = generate_trace(TraceParams(seed=2, num_dus=3))
    inst = Instance(base.units, base.budget, DependencyGraph(3, ((2, 1), (3, 2))))
    return solve_interdependent(inst, MODEL, max_outer=20, grid=DecisionGrid(0.02, 11))


def _recovery_with_graph():
    base = generate_trace(TraceParams(seed=4, num_dus=8))
    inst = Instance(base.units, 0.5, generate_dag("random", 8, 8, seed=4, edge_prob=0.6))
    # every window starts at the unit's ready time and runs to its deadline,
    # so neighbors overlap and the forward sweep repairs them
    decisions = [CrossLayerDecision(u.ready, u.deadline, 0.8 * u.size) for u in inst.units]
    handoffs = [0.5 * k for k in range(7)]
    return recover_primal(inst, decisions, MODEL, price=0.7, handoff_prices=handoffs)


def _mdu_on_ibpbp():
    base = generate_trace(TraceParams(seed=5, num_dus=20))
    inst = Instance(base.units, base.budget, generate_dag("ibpbp", 20, 5))
    return run_online(CausalStream(inst, cycle_len=5), MODEL, "mdu")


def _unit_kernel():
    """The per-unit solve with the loss and energy it hands back, and the
    window value, on random kernel cases: energy caps, unpriced energy, and
    windows of length 0 and 1e-9 included."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(2000):
        cap, unit, floor, loss, err, price, hp, hn = _draw_case(rng)
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
        start, end, payload, objective, p, w = offline._unit_kernel(unit, model, loss, err, price, hp, hn, floor)
        sol = UnitSolution(CrossLayerDecision(start, end, payload), objective)
        window = model.window_fn(unit, loss + err, price)
        values = [window(tau) for tau in (0.0, 1e-9, 1e-4, 0.01, 0.05)]
        out.append((sol, (p, w), values))
    return out


def _independent_standard():
    # the default budget binds on this trace, so the recovery rescales payloads
    return solve_independent(generate_trace(TraceParams(seed=3, num_dus=10)), MODEL, max_outer=30)


def _online_on_random_dag(policy, estimate="known"):
    # the array closed form and, under proposed, the realized error
    # fractions feeding each unit's ancestor survival; the price stays finite
    # on this trace (on seed 6 it reaches 1e305 after two units)
    base = generate_trace(TraceParams(seed=3, num_dus=300))
    inst = Instance(base.units, base.budget, generate_dag("random", 300, 10, seed=3, edge_prob=0.4))
    stream = CausalStream(inst, cycle_len=10, expose_cycle_impacts=estimate == "known")
    return run_online(stream, MODEL, policy, OnlineParams(impact_estimate=estimate))


def _online_capped(policy):
    # the config's model (energy cap 50) and learner, as the CLI runs them; at
    # budget 20 the price falls low enough that the cap bounds the payload in
    # about half of the decisions, so window_vec's cap branch is pinned too
    cfg = default_config()
    base = generate_trace(TraceParams(seed=3, num_dus=300))
    inst = Instance(base.units, 20.0, generate_dag("random", 300, 10, seed=3, edge_prob=0.4))
    stream = CausalStream(inst, cycle_len=10, expose_cycle_impacts=True)
    return run_online(stream, ShannonExpModel(params=cfg.model), policy, cfg.learner)


def _online_across_cycles():
    # graph blocks of 15 units on stream cycles of 10: a unit's ancestors may
    # lie in the previous cycle (their realized losses count) and its
    # descendants in the next one (unknown impacts, so they weigh nothing)
    base = generate_trace(TraceParams(seed=4, num_dus=120))
    inst = Instance(base.units, base.budget, generate_dag("random", 120, 15, seed=4, edge_prob=0.3))
    return run_online(CausalStream(inst, cycle_len=10, expose_cycle_impacts=True), MODEL, "proposed")


def _independent_on_grid():
    base = generate_trace(TraceParams(seed=7, num_dus=6))
    return solve_independent(base, MODEL, max_outer=25, grid=DecisionGrid(0.01, 21))


def _oracle_chain():
    base = generate_trace(TraceParams(seed=8, num_dus=3))
    inst = Instance(base.units, 4.0, DependencyGraph(3, ((2, 1), (3, 2))))
    return brute_force(inst, MODEL)


def _capped_cell(chain):
    # an M = 3 cell of the gate's kind whose repairs meet non-zero next
    # handoff prices and whose polish accepts a candidate that shaved a
    # bystander (test_capped_cells_repair_and_shave)
    base = generate_trace(TraceParams(seed=6, num_dus=3))
    return Instance(base.units, base.budget, DependencyGraph(3, ((2, 1), (3, 2))) if chain else None)


def _capped_lattice(chain):
    solve = solve_interdependent if chain else solve_independent
    return solve(_capped_cell(chain), CAPPED, max_outer=100, grid=LATTICE)


def _capped_oracle(chain):
    return brute_force(_capped_cell(chain), CAPPED, LATTICE.time_step, LATTICE.action_points)


def _criterion_2_cells():
    """The acceptance gate's 20 criterion-2 cells (M = 2 and 3, independent
    and chain, trace seeds 1-5) as the lattice benchmark solves them: each
    on the lattice at 100 outer iterations with the config's capped model,
    and by brute force. Their memo hits and misses, drops, shaves and tied
    optima are pinned bit for bit."""
    out = []
    for m in (2, 3):
        for chain in (False, True):
            for seed in (1, 2, 3, 4, 5):
                base = generate_trace(TraceParams(seed=seed, num_dus=m))
                graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1))) if chain else None
                inst = Instance(base.units, base.budget, graph)
                solve = solve_interdependent if chain else solve_independent
                out.append((solve(inst, CAPPED, max_outer=100, grid=LATTICE),
                            brute_force(inst, CAPPED, LATTICE.time_step, LATTICE.action_points)))
    return out


CASES = {
    "interdependent-sweeps-seed1": (
        lambda: _sweeps_on_random_dag(1),
        "2d625b0fc8552ec500a3c22a938b69a9f8640fe1486398ce00cf118a3e00b4ec",
    ),
    "interdependent-sweeps-seed2": (
        lambda: _sweeps_on_random_dag(2),
        "289d79ff1cb7a0d5250fb38b432a481509ca91bcd0f017501df73129f35cd880",
    ),
    "interdependent-sweeps-seed3": (
        lambda: _sweeps_on_random_dag(3),
        "950cf22fd3550557e999cc995bef717ab18201836d70960b90436391e7f5d41a",
    ),
    "lattice-chain": (
        _lattice_chain,
        "503f7581c56e66ad6fba5bfd01fed8d17d72c8e7497d9d7f2aab4d22cea327b0",
    ),
    "recover-primal-graph": (
        _recovery_with_graph,
        "84857e44c2e3a243c456f5663ba2780f7c46e94bb8159ad16802f3735070a11f",
    ),
    "mdu-ibpbp": (
        _mdu_on_ibpbp,
        "91db015b42efa116aad84361e6a1831a679d77f2799e9a5eddad0fc1d92af66c",
    ),
    "unit-kernel": (
        _unit_kernel,
        "9c1ac0c2bf5731b16b6248b3d5a2cadff7ecdd72062659af709b65664da7c105",
    ),
    "independent-standard": (
        _independent_standard,
        "07068ce41de45d37f0dee294eff69104dc19e9f508f4251afd3c8ee817849711",
    ),
    "online-random-dag-proposed": (
        lambda: _online_on_random_dag("proposed"),
        "c9d838a332c953c717e185e41d7d3f1c983cb50690be06d79fdfbe3dfee08a64",
    ),
    "online-random-dag-myopic": (
        lambda: _online_on_random_dag("myopic"),
        "47ccb323aeb7d33eeb2cea3ec3c8473d0549d220a872bb6ab65fdaed00c5f6c4",
    ),
    "online-random-dag-proposed-mean": (
        lambda: _online_on_random_dag("proposed", "mean"),
        "30eaedc244ed109148e36ced865ca666bfaef4f58a342af97942cb4275637af8",
    ),
    "online-capped-proposed": (
        lambda: _online_capped("proposed"),
        "42c2004343bd43410f643419bd4299257a87c7c62c332cfce278508b3e56d11e",
    ),
    "online-capped-myopic": (
        lambda: _online_capped("myopic"),
        "5403894f9b717395a05d09a95b94e6e6fe4a9d5d66e32e82af0c64e6743a2b27",
    ),
    "online-across-cycles-proposed": (
        _online_across_cycles,
        "9dbb2eb573b0976798628e850203b79f491ee0b2d2c32f8fd4dbe3763e588bf7",
    ),
    "independent-grid": (
        _independent_on_grid,
        "194b189101e9f1bb1742c36068cb564f07ef1590527213600be71f2721d7322b",
    ),
    "oracle-chain": (
        _oracle_chain,
        "e69bc1743ec2f4f021b97569d07c66872a29d5e21fafdd15977676651440a07b",
    ),
    "lattice-capped-independent": (
        lambda: _capped_lattice(False),
        "e74b03af89ea139928f024cf7140c73ed1863092e4c4fa459a83b104f4e6f93f",
    ),
    "lattice-capped-chain": (
        lambda: _capped_lattice(True),
        "1881e8663daed436dbc9b82f1ca16ae0bf406284998493a32ca5171581cc9d9a",
    ),
    "oracle-capped-independent": (
        lambda: _capped_oracle(False),
        "af9a01497fbb8b57cb449e9e7766d2a87908169cdc99e3caf3b35c28a4350753",
    ),
    "oracle-capped-chain": (
        lambda: _capped_oracle(True),
        "068f070e967c67f7600f2566fea8d5cda6d645edf5588a89d89e7d3e31315928",
    ),
    "criterion-2-cells": (
        _criterion_2_cells,
        "dd0b98552a819d258a07ef83cba59a492e40d65ab460bd7efab215829037e665",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_is_unchanged(name):
    run, expected = CASES[name]
    assert _digest(run()) == expected


@pytest.mark.parametrize("chain", [False, True], ids=["independent", "chain"])
def test_capped_cells_repair_and_shave(chain, monkeypatch):
    """The capped lattice digests pin the repairs' handoff terms and the
    polish's shaves: some repair meets a non-zero next handoff price, and the
    polish accepts a candidate that shaved a bystander (counted by the scalar
    reference scan on the polish's own input)."""
    recover, polish, seen = offline._recover_primal_grid, offline._polish_grid_pairs, Counter()

    def recorded_recover(inst, decisions, opts, grid, model, price, handoffs, *rest):
        # the first unit that the forward sweep repairs, found by its rule
        prev_end = -math.inf
        for pos, (u, d) in enumerate(zip(inst.units, decisions), start=1):
            if d.start >= max(u.ready, prev_end) - offline._TINY and d.end >= d.start:
                prev_end = d.end
                continue
            seen["priced repairs"] += pos <= len(handoffs) and handoffs[pos - 1] != 0.0
            break
        return recover(inst, decisions, opts, grid, model, price, handoffs, *rest)

    def recorded_polish(inst, decisions, opts, grid, model):
        seen["shaved accepts"] += reference_polish(inst, decisions, opts, grid, model)[2]
        return polish(inst, decisions, opts, grid, model)

    monkeypatch.setattr(offline, "_recover_primal_grid", recorded_recover)
    monkeypatch.setattr(offline, "_polish_grid_pairs", recorded_polish)
    _capped_lattice(chain)
    assert seen["priced repairs"] > 0 and seen["shaved accepts"] > 0
