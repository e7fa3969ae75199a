"""The lattice kernels against their earlier bodies, bit for bit.

``DecisionGrid.options`` values its table on plain floats, and
``_solve_unit_grid`` skips the terms whose coefficient is zero. Both must
return exactly what the bodies below return: the same rows, values and
argmin, with -0.0 told apart from 0.0 (``repr``). The lattice recovery reads
its repairs' coefficients from plain loss lists and builds the schedule's
values only after a memo miss; it must return what it returned when it
built them at the first repair on a graph, compared as hex strings.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlsched import (
    CrossLayerDecision,
    DataUnit,
    DecisionGrid,
    DependencyGraph,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    TraceParams,
    generate_trace,
)
from xlsched import offline
from xlsched.config import default_config
from xlsched.offline import _dag_coeffs, _ScheduleValues, _solve_unit_grid

from test_oracle import FixedCostModel, ListeningModel

MODELS = {
    "uncapped": ShannonExpModel(),
    "config-cap": ShannonExpModel(params=default_config().model),
    "tight-cap": ShannonExpModel(params=ShannonEnergyParams(energy_cap=5.0)),
    "fixed-cost": FixedCostModel(),
    "listening": ListeningModel(),
}


def reference_options(grid, unit, model):
    """``DecisionGrid.options`` as it was: the model valued on numpy scalars."""
    span = unit.deadline - unit.ready
    n_steps = int(math.floor(span / grid.time_step + 1e-9))
    times = np.minimum(unit.ready + grid.time_step * np.arange(n_steps + 1), unit.deadline)
    actions = np.linspace(0.0, unit.size, grid.action_points)

    xi, yi = np.triu_indices(len(times))
    starts = np.repeat(times[xi], len(actions))
    ends = np.repeat(times[yi], len(actions))
    payloads = np.tile(actions, len(xi))

    _, first, inverse = np.unique(times[yi] - times[xi], return_index=True, return_inverse=True)
    windows = [(times[xi[w]], times[yi[w]]) for w in first]
    loss = np.array([[model.loss(unit, x, y, a) for a in actions] for x, y in windows])[inverse].ravel()
    cost = np.array([[model.cost(unit, x, y, a) for a in actions] for x, y in windows])[inverse].ravel()

    keep = np.isfinite(cost)
    cap = getattr(getattr(model, "params", None), "energy_cap", None)
    if cap is not None:
        keep &= cost <= cap + 1e-12
    return starts[keep], ends[keep], payloads[keep], loss[keep], cost[keep]


def reference_solve_unit_grid(opts, handoff_prev, handoff_next, loss_coeff, err_coeff, energy_coeff):
    """``_solve_unit_grid`` as it was: every term formed, zero or not."""
    starts, ends, payloads, loss, cost = opts
    vals = loss_coeff * loss + err_coeff * loss + energy_coeff * cost
    obj = vals - handoff_prev * starts + handoff_next * ends
    j = int(np.argmin(obj))
    return (float(starts[j]), float(ends[j]), float(payloads[j]), float(obj[j]),
            float(loss[j]), float(cost[j]))


def _random_unit(rng):
    ready = float(rng.uniform(0.0, 2.0))
    # a lifetime of 0 leaves one time point and only the empty payload
    lifetime = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.001, 0.1))
    return DataUnit(index=int(rng.integers(1, 50)), ready=ready, deadline=ready + lifetime,
                    impact=float(rng.uniform(1.0, 100.0)), size=float(rng.uniform(1.0, 40.0)),
                    decay=float(rng.uniform(0.05, 1.0)), channel=float(rng.uniform(0.2, 2.0)))


def _random_grid(rng):
    return DecisionGrid(float(rng.choice([0.1, 0.02, 0.0125, 0.01, 0.003])), int(rng.integers(2, 22)))


def _weight(rng, scale, signed=False):
    """0.0 (an empty sum), -0.0 (a projected step: ``max(-0.0, 0.0)``) or a draw."""
    r = rng.random()
    if r < 0.3:
        return 0.0
    if r < 0.45:
        return -0.0
    return float(rng.uniform(-scale if signed else 0.0, scale))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_options_match_the_reference(name):
    model, rng = MODELS[name], np.random.default_rng(sorted(MODELS).index(name))
    for _ in range(40):
        grid, unit = _random_grid(rng), _random_unit(rng)
        got, ref = grid.options(unit, model), reference_options(grid, unit, model)
        assert [c.dtype for c in got] == [c.dtype for c in ref]
        assert repr([c.tolist() for c in got]) == repr([c.tolist() for c in ref])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_unit_solve_matches_the_reference(name):
    model, rng = MODELS[name], np.random.default_rng(100 + sorted(MODELS).index(name))
    zeros = dict.fromkeys(("handoff_prev", "handoff_next", "err_coeff", "energy_coeff"), 0)
    for _ in range(40):
        opts = _random_grid(rng).options(_random_unit(rng), model)
        for _ in range(25):
            # a loss coefficient of 0 is an ancestor that surely fails
            args = {
                "handoff_prev": _weight(rng, 50.0, signed=True),
                "handoff_next": _weight(rng, 50.0, signed=True),
                "loss_coeff": 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 100.0)),
                "err_coeff": _weight(rng, 100.0),
                "energy_coeff": _weight(rng, 5.0),
            }
            for key in zeros:
                zeros[key] += args[key] == 0.0
            assert repr(_solve_unit_grid(opts, **args)) == repr(reference_solve_unit_grid(opts, **args))
    assert min(zeros.values()) > 0


def parent_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, measured, memo, seen=None):
    """``offline._recover_primal_grid`` as it was: on a graph it builds the
    schedule's values at the first repair, and the repairs read their
    coefficients from them. ``seen``, if given, counts the drops, memo hits
    and memo misses."""
    m = inst.num_units
    values, out, repairs = None, list(decisions), []
    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor - offline._TINY and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if values is None and inst.graph is not None:
            values = _ScheduleValues(inst.units, inst.graph, decisions, model, measured=measured)
        starts, ends, payloads, loss, cost = opts[pos - 1]
        first = int(starts.searchsorted(floor - offline._TINY))
        if first == len(starts):
            if seen is not None:
                seen["drop"] += 1
            fixed, pair = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0), None
        else:
            hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
            a_surv, s_weight = (1.0, 0.0) if values is None else _dag_coeffs(pos, values)
            if seen is not None and values is not None:
                seen["repair after a repair"] += any(out[p] is not decisions[p] for p in range(pos - 1))
            vals = unit.impact * a_surv * loss[first:]
            if s_weight:
                vals += s_weight * loss[first:]
            if price:
                vals += price * cost[first:]
            vals /= m
            if hn:
                vals += hn * ends[first:]
            j = first + int(vals.argmin())
            fixed = CrossLayerDecision(starts.item(j), ends.item(j), payloads.item(j))
            pair = loss.item(j), cost.item(j)
        out[pos - 1] = fixed
        if values is None:
            repairs.append((pos, fixed, pair))
        else:
            values.set(pos, fixed, pair)
        prev_end = max(prev_end, fixed.end)
    repaired = tuple(out)
    if seen is not None:
        seen["hit" if repaired in memo else "miss"] += 1
    if repaired in memo:
        return memo[repaired]
    if values is None:
        values = _ScheduleValues(inst.units, inst.graph, decisions, model, measured=measured)
        for pos, fixed, pair in repairs:
            values.set(pos, fixed, pair)
    out = values.decisions

    # budget restoration in whole action steps, largest spender first
    for _ in range(m * grid.action_points):
        costs = values.cost[1:]
        if sum(costs) / m <= inst.budget + offline._TINY:
            break
        i = max(range(m), key=lambda k: costs[k])
        d = out[i]
        step = grid.action_step(inst.units[i])
        values.set(i + 1, CrossLayerDecision(d.start, d.end, max(d.payload - step, 0.0)))

    # local descent on the true objective: each unit re-picks its lattice
    # option between the other units' boundaries while the budget allows; the
    # varying dual iterates feeding this sweep supply diverse starting points.
    # A unit's pick reads only the other units, so a unit that just moved, or
    # found nothing better, keeps its pick until another unit moves: the
    # descent ends once all m units in a row have been settled that way,
    # where a whole pass more would move nothing.
    budget_total = inst.budget * m
    settled = 0
    for _ in range(8 * m):
        for i in range(m):
            if settled == m:
                break
            settled += 1
            unit = inst.units[i]
            starts, ends, payloads, loss, cost = opts[i]
            lo = max((d.end for d in out[:i]), default=-math.inf)
            hi = min((d.start for d in out[i + 1 :]), default=math.inf)
            spent_elsewhere = sum(values.cost[1 : i + 1] + values.cost[i + 2 :])
            a_surv, s_weight = (1.0, 0.0) if inst.graph is None else _dag_coeffs(i + 1, values)
            first = 0 if lo == -math.inf else int(starts.searchsorted(lo - offline._TINY))
            if first == len(starts):
                continue
            feas = cost[first:] <= budget_total - spent_elsewhere + offline._TINY
            if hi != math.inf:
                feas &= ends[first:] <= hi + offline._TINY
            score = unit.impact * a_surv * loss[first:]
            if s_weight:
                score += s_weight * loss[first:]
            # the scores are finite, so an infinite least one means no feasible row
            score = np.where(feas, score, math.inf)
            j = int(score.argmin())
            best = score.item(j)
            if best == math.inf:
                continue
            cur = unit.impact * a_surv * values.loss[i + 1] + s_weight * values.loss[i + 1]
            if best < cur - 1e-12:
                j += first
                values.set(i + 1, CrossLayerDecision(starts.item(j), ends.item(j), payloads.item(j)),
                           (loss.item(j), cost.item(j)))
                settled = 1
        if settled == m:
            break

    memo[repaired] = tuple(out), values.distortion()
    return memo[repaired]


def _recovery_calls(seed, m, chain, cap):
    """A crowded cell of ``m`` units with lifetimes of 5-50 ms, so that a
    short unit after a long one can be dropped, its lattice options under
    ``cap``, and six recovery calls at random prices, each on one of two sets
    of random option rows with the values of those rows, so that the memo
    both misses and hits."""
    rng = np.random.default_rng(seed)
    base = generate_trace(TraceParams(seed=seed % 1000, num_dus=m, budget=float(rng.uniform(0.5, 10.0)),
                                      mean_interarrival=float(rng.uniform(0.002, 0.05))))
    units = tuple(dataclasses.replace(u, deadline=u.ready + float(rng.uniform(0.005, 0.05))) for u in base.units)
    graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1))) if chain else None
    inst = Instance(units, base.budget, graph)
    model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
    grid = DecisionGrid(0.01, 21)
    opts = [grid.options(u, model) for u in units]
    pool = []
    for _ in range(2):
        rows = [int(rng.integers(len(o[0]))) for o in opts]
        decisions = tuple(CrossLayerDecision(o[0].item(j), o[1].item(j), o[2].item(j)) for o, j in zip(opts, rows))
        pool.append((decisions, (tuple(o[3].item(j) for o, j in zip(opts, rows)),
                                 tuple(o[4].item(j) for o, j in zip(opts, rows)))))
    calls = []
    for _ in range(6):
        decisions, measured = pool[int(rng.integers(2))]
        handoffs = [_weight(rng, 1.0, signed=True) for _ in range(m - 1)]
        calls.append((decisions, measured, _weight(rng, 5.0), handoffs))
    return inst, opts, grid, model, calls


def _hex(result):
    decisions, value = result
    return [(d.start.hex(), d.end.hex(), d.payload.hex()) for d in decisions], value.hex()


CAPS = (None, 50.0, 5.0)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), chain=st.booleans(), cap=st.sampled_from(CAPS))
@settings(max_examples=60, deadline=None)
def test_recovery_matches_the_parent_as_hex(seed, m, chain, cap):
    inst, opts, grid, model, calls = _recovery_calls(seed, m, chain, cap)
    memo, parent_memo = {}, {}
    for decisions, measured, price, handoffs in calls:
        got = offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, measured, memo)
        ref = parent_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, measured,
                                         parent_memo)
        assert _hex(got) == _hex(ref)


@pytest.mark.parametrize("chain", [False, True], ids=["independent", "chain"])
def test_recovery_matches_the_parent_on_fixed_cells(chain):
    # the cells the hex comparison draws from meet every path of the
    # recovery; on a chain a repair reads the loss of an earlier repair
    seen = Counter()
    for seed in range(10):
        for m in (2, 3, 4):
            for cap in CAPS:
                inst, opts, grid, model, calls = _recovery_calls(seed, m, chain, cap)
                memo, parent_memo = {}, {}
                for decisions, measured, price, handoffs in calls:
                    got = offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs,
                                                       measured, memo)
                    ref = parent_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs,
                                                     measured, parent_memo, seen)
                    assert _hex(got) == _hex(ref)
    assert min(seen[k] for k in ("drop", "miss", "hit")) > 0
    assert (seen["repair after a repair"] > 0) == chain
