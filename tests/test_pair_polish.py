"""Batched lattice pair polish against the candidate-by-candidate scan."""

import math
from collections import Counter

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
from xlsched import offline
from xlsched.offline import (
    _TINY,
    DecisionGrid,
    _Bystander,
    _polish_grid_pairs,
    _shave,
    _undominated,
    instance_distortion,
)

GRID = DecisionGrid(0.02, 11)
MODEL = ShannonExpModel()


def reference_polish(inst, decisions, opts, grid, model,
                     rounds=4, time_radius=3, pay_radius=5):
    """The scalar scan: one candidate schedule at a time, valued whole.

    Returns the polished schedule, its value and how many accepted
    candidates had shaved a bystander's payload.
    """
    m = inst.num_units
    out = list(decisions)
    budget_total = inst.budget * m + 1e-9
    best = instance_distortion(inst, tuple(out), model)
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
                        spent_elsewhere = sum(cost_of(j, out[j]) for j in range(m) if j not in (i, k))
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
                        val = instance_distortion(inst, cand, model)
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
    # without respect_graph both polish the graph-free copy
    valued = inst if respect_graph else Instance(inst.units, inst.budget)
    ref_dec, ref_val, shaved = reference_polish(valued, start, opts, GRID, MODEL)
    dec, val = _polish_grid_pairs(valued, start, opts, GRID, MODEL)
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


@pytest.mark.parametrize("cells", [1, 7])
@pytest.mark.parametrize("kind", ["independent", "chain"])
def test_shave_table_split_into_blocks_equals_scalar_scan(kind, cells, monkeypatch):
    # a table block of one step (or a few), so candidates fit across blocks
    monkeypatch.setattr(offline, "_SHAVE_CELLS", cells)
    for m in (3, 4):
        for budget in (1.0, 2.0):
            for crude_start in (False, True):
                _check_case(m, kind, True, budget, crude_start)


def reference_shave(bystanders, m, i, x, k, y, budget_total, limit):
    """One candidate's shaves, as the scalar scan makes them: its levels when
    it fits, or when the limit or the payloads run out, and whether it fits."""
    levels = dict.fromkeys(bystanders, 0)
    for _ in range(limit):
        spends = {j: b.cost[levels[j]] for j, b in bystanders.items() if b.payload[levels[j]] > 0.0}
        if not spends:
            break
        j = max(spends, key=spends.get)
        levels[j] += 1
        bystanders[j].reach(levels[j])
        total = 0.0
        for q in range(m):
            total += x if q == i else y if q == k else bystanders[q].cost[levels[q]]
        if total <= budget_total:
            return tuple(levels.values()), True
    return tuple(levels.values()), False


@pytest.mark.parametrize("cells", [1, 7, 1 << 16])
def test_shared_shaves_equal_each_candidates_own(cells, monkeypatch):
    # random ladders and candidate energies drawn from a few values, so that
    # candidates tie and several are undominated; budgets where candidates
    # fit after no, some or every shave, or never
    monkeypatch.setattr(offline, "_SHAVE_CELLS", cells)
    rng = np.random.default_rng(29)
    seen = Counter()
    for _ in range(150):
        m = int(rng.integers(3, 6))
        i, k = sorted(rng.choice(m, 2, replace=False).tolist())
        units = generate_trace(TraceParams(seed=int(rng.integers(1000)), num_dus=m)).units

        def ladders():
            return {j: _Bystander(u, CrossLayerDecision(u.ready, u.deadline, float(rng.uniform(0.0, u.size))),
                                  float(rng.choice([0.5, 1.0, 3.0])), MODEL)
                    for j, u in enumerate(units) if j not in (i, k)}

        state = rng.bit_generator.state
        got_ladders = ladders()
        rng.bit_generator.state = state
        ref_ladders = ladders()
        n = int(rng.integers(0, 60))
        x = rng.choice(rng.uniform(0.0, 50.0, 4), n)
        y = rng.choice(rng.uniform(0.0, 50.0, 4), n)
        spent = sum(b.cost[0] for b in got_ladders.values())
        budget_total = float(rng.uniform(0.0, spent + 100.0))
        limit = int(rng.integers(1, 40))
        steps, fits, stops = _shave(got_ladders, m, i, x, k, y, budget_total, limit)
        refs = [reference_shave(ref_ladders, m, i, a, k, b, budget_total, limit)
                for a, b in zip(x.tolist(), y.tolist())]
        assert [(steps[s], bool(f)) for s, f in zip(stops, fits)] == refs
        # the sequence goes no further than the candidate that needs the most
        last = max((s for s in stops.tolist()), default=0)
        assert len(steps) - 1 == last
        assert [len(b.payload) for b in got_ladders.values()] == [1 + lv for lv in steps[-1]]
        seen["fronts of several"] += len(_undominated(x, y)) > 1
        seen["fits after shaves"] += bool((fits & (stops > 0)).any())
        seen["never fits"] += bool((~fits).any())
    assert min(seen[key] for key in ("fronts of several", "fits after shaves", "never fits")) > 0


def test_undominated_pairs():
    # against the definition: no other pair at least as large in both values
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 5, 40):
        for levels in (2, 5, 1000):
            x = rng.integers(0, levels, n).astype(float)
            y = rng.integers(0, levels, n).astype(float)
            pairs = set(zip(x.tolist(), y.tolist()))
            expected = {p for p in pairs if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)}
            got = _undominated(x, y)
            assert len(got) == len(set(got)) and set(got) == expected
            assert all(type(v) is float for pair in got for v in pair)


def test_accepted_candidates_with_shaved_bystanders():
    # a crude start under a tight budget: accepted candidates must buy their
    # energy from bystanders, so the shave loop decides the result
    assert _check_case(4, "independent", True, 2.0, True) > 0
    assert _check_case(5, "chain", False, 2.0, False) > 0


def _check_back_to_back(impacts, budget, payloads):
    """Polish units in back-to-back windows of exactly 1/16 s, so that equal
    payloads cost exactly the same, both ways; asserts a shaved accept."""
    units = tuple(
        DataUnit(index=n + 1, ready=0.0625 * n, deadline=0.0625 * n + 0.0625, impact=impact,
                 size=10.0, decay=0.5, channel=1.0)
        for n, impact in enumerate(impacts)
    )
    inst = Instance(units, budget, None)
    grid = DecisionGrid(0.0125, 11)
    opts = [grid.options(u, MODEL) for u in inst.units]
    start = tuple(CrossLayerDecision(u.ready, u.deadline, p) for u, p in zip(units, payloads))
    ref_dec, ref_val, shaved = reference_polish(inst, start, opts, grid, MODEL)
    dec, val = _polish_grid_pairs(inst, start, opts, grid, MODEL)
    assert shaved > 0
    assert repr((dec, val)) == repr((ref_dec, ref_val))


def test_equal_spenders_shave_the_lowest_index_first():
    # units 3 and 4 spend exactly the same energy on little impact, so the
    # pair (1, 2) buys payload from them and only the tie rule decides which
    # of them pays first. At budget 5.5 the accepted candidates shave both
    # units equally, so either order gives the same schedule; at 3.5 and 5.0
    # the other order does not
    for budget in (3.5, 5.0, 5.5):
        _check_back_to_back((100.0, 120.0, 10.0, 10.0), budget, (2.0, 2.0, 10.0, 10.0))


def test_later_candidates_budget_against_the_shaved_bystander():
    # the pair (1, 2) buys energy by shaving unit 3 and goes on scoring: its
    # later candidates must count unit 3's energy after that shave, not the
    # energy unit 3 spent when the pair began, or they shave it again
    _check_back_to_back((100.0, 120.0, 10.0), 3.0, (2.0, 2.0, 10.0))
