"""Bit-identity gate: SHA-256 digests of a few small solves.

Each digest is taken over the repr of the result with every number as a
Python float or int (so the repr does not depend on how numpy prints its
scalars). A change that moves any value by one ulp changes the digest; such
a change must re-record these digests on purpose and say so.
"""

import dataclasses
import hashlib
import numbers

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
)
from xlsched.offline import _solve_unit

from test_window_search import _draw_case

MODEL = ShannonExpModel()


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
    return run_online(CausalStream(inst, cycle_len=5), MODEL, "mdu", OnlineParams(mdu_outer=8))


def _unit_kernel():
    """The per-unit solve and the window value on random kernel cases: energy
    caps, unpriced energy, and windows of length 0 and 1e-9 included."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(2000):
        cap, unit, floor, loss, err, price, hp, hn = _draw_case(rng)
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
        sol = _solve_unit(unit, model, loss, err, price, hp, hn, floor)
        values = [model.window_value(unit, tau, loss + err, price) for tau in (0.0, 1e-9, 1e-4, 0.01, 0.05)]
        out.append((sol, values))
    return out


def _independent_standard():
    # the default budget binds on this trace, so the recovery rescales payloads
    return solve_independent(generate_trace(TraceParams(seed=3, num_dus=10)), MODEL, max_outer=30)


CASES = {
    "interdependent-sweeps-seed1": (
        lambda: _sweeps_on_random_dag(1),
        "2d33dcd721f03d3b29d30255437a4aed58b21acb810f0829f057d161e9f4764a",
    ),
    "interdependent-sweeps-seed2": (
        lambda: _sweeps_on_random_dag(2),
        "570879f521471977164f129574c7c6aaaa4c203a4dbc9839f61a150f668ce02d",
    ),
    "interdependent-sweeps-seed3": (
        lambda: _sweeps_on_random_dag(3),
        "ce9da8af1a75a22a47dd482c8a6aa27169cf7384bc6fa2731f3d629a9f1fa7a9",
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
        "97ff2c1600c59c8a7c500cc4d4bd67d36ec8ad2fa8bd9bb2883a73231c971be4",
    ),
    "unit-kernel": (
        _unit_kernel,
        "a7c9cce49ecc852f4e9830782f04ef4271a923abf85de49889d22fcd95301c25",
    ),
    "independent-standard": (
        _independent_standard,
        "f1e9e41e01aca3e76ef74aba0fbd23852f87da1a4a37ae8d4347516b73adbdbe",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_is_unchanged(name):
    run, expected = CASES[name]
    assert _digest(run()) == expected
