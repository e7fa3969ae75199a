"""Batched lattice pair polish against the candidate-by-candidate scan."""

import math

import numpy as np
import pytest

from xlsched import (
    CrossLayerDecision,
    DataUnit,
    DependencyGraph,
    Instance,
    ShannonExpModel,
    TraceParams,
    generate_trace,
    solve_independent,
    solve_interdependent,
)
from xlsched.offline import _TINY, DecisionGrid, _polish_grid_pairs, instance_distortion

GRID = DecisionGrid(0.02, 11)
MODEL = ShannonExpModel()


def reference_polish(inst, decisions, opts, grid, model, respect_graph,
                     rounds=4, time_radius=3, pay_radius=5):
    """The scalar scan: one candidate schedule at a time, valued whole.

    Returns the polished schedule, its value and how many accepted
    candidates had shaved a bystander's payload.
    """
    m = inst.num_units
    out = list(decisions)
    budget_total = inst.budget * m + 1e-9
    best = instance_distortion(inst, tuple(out), model, respect_graph)
    shaved_accepts = 0

    def rows_near(idx, fix_start, fix_end):
        starts, ends, payloads = opts[idx][0], opts[idx][1], opts[idx][2]
        d = out[idx]
        t_rad = time_radius * grid.time_step + _TINY
        p_rad = pay_radius * grid.action_step(inst.units[idx]) + _TINY
        keep = np.abs(payloads - d.payload) <= p_rad
        keep &= np.abs(starts - d.start) <= (_TINY if fix_start else t_rad)
        keep &= np.abs(ends - d.end) <= (_TINY if fix_end else t_rad)
        return np.flatnonzero(keep)

    def cost_of(idx, d):
        return model.cost(inst.units[idx], d.start, d.end, d.payload)

    for _ in range(rounds):
        improved = False
        for i in range(m - 1):
            for k in range(i + 1, m):
                adjacent = k == i + 1
                ri = rows_near(i, fix_start=True, fix_end=not adjacent)
                rk = rows_near(k, fix_start=not adjacent, fix_end=True)
                if ri.size == 0 or rk.size == 0:
                    continue
                spent_elsewhere = sum(cost_of(j, out[j]) for j in range(m) if j not in (i, k))
                si, ei, pi, _, ci = opts[i]
                sk, ek, pk, _, ck = opts[k]
                right_bound = out[k + 1].start if k + 1 < m else math.inf
                for a in ri:
                    for b in rk:
                        if ek[b] > right_bound + _TINY:
                            continue
                        if adjacent and ei[a] > sk[b] + _TINY:
                            continue
                        if not adjacent and ei[a] > out[i + 1].start + _TINY:
                            continue
                        cand = list(out)
                        cand[i] = CrossLayerDecision(float(si[a]), float(ei[a]), float(pi[a]))
                        cand[k] = CrossLayerDecision(float(sk[b]), float(ek[b]), float(pk[b]))
                        feasible = spent_elsewhere + ci[a] + ck[b] <= budget_total
                        shaved = False
                        for _ in range(2 * len(opts[i][2])):
                            if feasible:
                                break
                            by = {
                                j: cost_of(j, cand[j])
                                for j in range(m)
                                if j not in (i, k) and cand[j].payload > 0.0
                            }
                            if not by:
                                break
                            j = max(by, key=by.get)
                            dj = cand[j]
                            step = grid.action_step(inst.units[j])
                            cand[j] = CrossLayerDecision(dj.start, dj.end, max(dj.payload - step, 0.0))
                            shaved = True
                            feasible = sum(cost_of(q, cand[q]) for q in range(m)) <= budget_total
                        if not feasible:
                            continue
                        val = instance_distortion(inst, cand, model, respect_graph)
                        if val < best - 1e-12:
                            best = val
                            out = cand
                            improved = True
                            shaved_accepts += shaved
        if not improved:
            break
    return tuple(out), best, shaved_accepts


def _random_dag(m, rng):
    edges = [(i, j) for i in range(2, m + 1) for j in range(1, i) if rng.random() < 0.5]
    return DependencyGraph(m, tuple(edges) or ((m, 1),))


def _instance(m, kind, budget, seed):
    base = generate_trace(TraceParams(seed=seed, num_dus=m, budget=budget))
    if kind == "independent":
        return base
    if kind == "chain":
        graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1)))
    else:
        graph = _random_dag(m, np.random.default_rng(seed))
    return Instance(base.units, budget, graph)


def _best_schedule(inst):
    if inst.graph is None:
        return solve_independent(inst, MODEL, max_outer=15, grid=GRID).decisions
    return solve_interdependent(inst, MODEL, max_outer=15, grid=GRID).decisions


def _check_case(m, kind, respect_graph, budget, crude_start):
    """Polish one start both ways; returns the reference's shaved accepts."""
    inst = _instance(m, kind, budget, seed=10 * m + int(budget))
    opts = [GRID.options(u, MODEL) for u in inst.units]
    if crude_start:
        start = tuple(CrossLayerDecision(u.ready, u.ready, 0.0) for u in inst.units)
    else:
        start = _best_schedule(inst)
    ref_dec, ref_val, shaved = reference_polish(inst, start, opts, GRID, MODEL, respect_graph)
    dec, val = _polish_grid_pairs(inst, start, opts, GRID, MODEL, respect_graph)
    # repr tells -0.0 from 0.0 and numpy scalars from floats
    assert repr((dec, val)) == repr((ref_dec, ref_val))
    return shaved


@pytest.mark.parametrize("respect_graph", [True, False])
@pytest.mark.parametrize("kind", ["independent", "chain", "random"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_batched_polish_equals_scalar_scan(m, kind, respect_graph):
    for budget in (1.0, 2.0, 10.0):
        for crude_start in (False, True):
            _check_case(m, kind, respect_graph, budget, crude_start)


def test_accepted_candidates_with_shaved_bystanders():
    # a crude start under a tight budget: accepted candidates must buy their
    # energy from bystanders, so the shave loop decides the result
    assert _check_case(4, "independent", True, 2.0, True) > 0
    assert _check_case(5, "chain", False, 2.0, False) > 0


def test_equal_spenders_shave_the_lowest_index_first():
    # units 3 and 4 spend exactly the same energy on little impact, so the
    # pair (1, 2) buys payload from them and only the tie rule decides which
    # of them pays first
    units = tuple(
        # windows of exactly 1/16 s, so that equal payloads cost exactly the same
        DataUnit(index=n + 1, ready=0.0625 * n, deadline=0.0625 * n + 0.0625, impact=impact,
                 size=10.0, decay=0.5, channel=1.0)
        for n, impact in enumerate((100.0, 120.0, 10.0, 10.0))
    )
    inst = Instance(units, 5.5, None)
    grid = DecisionGrid(0.0125, 11)
    opts = [grid.options(u, MODEL) for u in inst.units]
    start = tuple(CrossLayerDecision(u.ready, u.deadline, p) for u, p in zip(units, (2.0, 2.0, 10.0, 10.0)))
    ref_dec, ref_val, shaved = reference_polish(inst, start, opts, grid, MODEL, True)
    dec, val = _polish_grid_pairs(inst, start, opts, grid, MODEL, True)
    assert shaved > 0
    assert repr((dec, val)) == repr((ref_dec, ref_val))
