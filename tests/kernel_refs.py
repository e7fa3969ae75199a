"""One reference per bit-identical kernel, and the draw and hex helpers the
tests of those kernels share.

Bit identity is transitive, so each kernel keeps one reference: the oldest
body that its code still equals bit for bit. A change that keeps a kernel's
bits is checked against that body, not against its parent as one more copy.
This module is imported by test modules and imports none, so no test module
imports another one's references in a cycle.

- :func:`reference_options`: ``DecisionGrid.options``;
- :func:`reference_solve_unit_grid`: ``offline._solve_unit_grid``;
- :func:`reference_recover_primal_grid`: ``offline._recover_primal_grid``;
- :func:`reference_cycle_dp` and :func:`reference_dag_passes`:
  ``offline._fifo_dp`` and ``offline._solve_cycle_fixed_price``.
"""

import math

import numpy as np

from xlsched import CrossLayerDecision
from xlsched import offline
from xlsched.offline import _dag_coeffs, _ScheduleValues


def _weight(rng, scale, signed=False):
    """0.0 (an empty sum), -0.0 (a projected step: ``max(-0.0, 0.0)``) or a draw."""
    r = rng.random()
    if r < 0.3:
        return 0.0
    if r < 0.45:
        return -0.0
    return float(rng.uniform(-scale if signed else 0.0, scale))


def _bits(result):
    """A (decisions, value) result as hex strings: equal only when every float is the same bits."""
    decisions, value = result
    return [tuple(float.hex(x) for x in (d.start, d.end, d.payload)) for d in decisions], float.hex(value)


def reference_options(grid, unit, model):
    """``DecisionGrid.options`` as a scalar loop: every window, start-major,
    then end, then payload, valued by its own model calls on numpy-scalar
    payloads, and the rows of infinite energy or above the model's cap left
    out."""
    n_steps = int(math.floor((unit.deadline - unit.ready) / grid.time_step + 1e-9))
    times = [min(unit.ready + grid.time_step * k, unit.deadline) for k in range(n_steps + 1)]
    cap = getattr(getattr(model, "params", None), "energy_cap", None)
    rows = []
    for xi, x in enumerate(times):
        for y in times[xi:]:
            for a in np.linspace(0.0, unit.size, grid.action_points):
                w = model.cost(unit, x, y, a)
                if math.isfinite(w) and (cap is None or w <= cap + 1e-12):
                    rows.append((x, y, a, model.loss(unit, x, y, a), w))
    return tuple(np.array(rows, dtype=float).reshape(-1, 5).T)


def reference_solve_unit_grid(opts, handoff_prev, handoff_next, loss_coeff, err_coeff, energy_coeff, mask=None):
    """``_solve_unit_grid`` with every term formed, zero or not, and the
    rows outside ``mask`` set to +inf."""
    starts, ends, payloads, loss, cost = opts
    vals = loss_coeff * loss + err_coeff * loss + energy_coeff * cost
    obj = vals - handoff_prev * starts + handoff_next * ends
    if mask is not None:
        obj = np.where(mask, obj, math.inf)
    j = int(np.argmin(obj))
    return (float(starts[j]), float(ends[j]), float(payloads[j]), float(obj[j]),
            float(loss[j]), float(cost[j]))


def reference_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, memo, seen=None):
    """``offline._recover_primal_grid`` before it took the relaxed step's
    values: it values the units it keeps by scalar model calls, on a graph
    from the first repair on and otherwise after a memo miss. It forms every
    term and mask, zero weight or infinite bound alike, and a repair divides
    its priced sum by ``m`` after adding it up. ``seen``, if given, counts
    the drops, the memo hits and misses, the repairs on a graph that read an
    earlier repair, and the repairs and descent steps that meet a zero weight
    or an infinite bound."""
    m = inst.num_units
    out, values = list(decisions), None
    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor - offline._TINY and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if values is None and inst.graph is not None:
            values = _ScheduleValues(inst.units, inst.graph, out, model)
        starts, ends, payloads, loss, cost = opts[pos - 1]
        feas = starts >= floor - offline._TINY
        if not feas.any():
            if seen is not None:
                seen["drop"] += 1
            fixed = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0)
        else:
            hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
            a_surv, s_weight = (1.0, 0.0) if values is None else _dag_coeffs(pos, values)
            if seen is not None:
                seen["repair, zero next handoff price"] += hn == 0.0
                seen["repair, zero descendant weight"] += s_weight == 0.0
                seen["repair, zero price"] += price == 0.0
                if values is not None:
                    seen["repair after a repair"] += any(out[p] is not decisions[p] for p in range(pos - 1))
            vals = (unit.impact * a_surv * loss + s_weight * loss + price * cost) / m + hn * ends
            vals = np.where(feas, vals, math.inf)
            j = int(np.argmin(vals))
            fixed = CrossLayerDecision(float(starts[j]), float(ends[j]), float(payloads[j]))
        out[pos - 1] = fixed
        if values is not None:
            values.set(pos, fixed)
        prev_end = max(prev_end, fixed.end)
    repaired = tuple(out)
    if seen is not None:
        seen["hit" if repaired in memo else "miss"] += 1
    if repaired in memo:
        return memo[repaired]
    if values is None:
        values = _ScheduleValues(inst.units, inst.graph, out, model)
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
    # varying dual iterates feeding this sweep supply diverse starting points
    budget_total = inst.budget * m
    for _ in range(8 * m):
        improved = False
        for i in range(m):
            unit = inst.units[i]
            starts, ends, payloads, loss, cost = opts[i]
            lo = max((d.end for d in out[:i]), default=-math.inf)
            hi = min((d.start for d in out[i + 1 :]), default=math.inf)
            spent_elsewhere = sum(values.cost[1 : i + 1] + values.cost[i + 2 :])
            a_surv, s_weight = (1.0, 0.0) if inst.graph is None else _dag_coeffs(i + 1, values)
            if seen is not None:
                seen["descent, zero descendant weight"] += s_weight == 0.0
                seen["descent, infinite bound"] += lo == -math.inf or hi == math.inf
            score = unit.impact * a_surv * loss + s_weight * loss
            feas = (
                (starts >= lo - offline._TINY)
                & (ends <= hi + offline._TINY)
                & (cost <= budget_total - spent_elsewhere + offline._TINY)
            )
            if not feas.any():
                continue
            j = int(np.argmin(np.where(feas, score, math.inf)))
            cur = unit.impact * a_surv * values.loss[i + 1] + s_weight * values.loss[i + 1]
            if score[j] < cur - 1e-12:
                values.set(i + 1, CrossLayerDecision(float(starts[j]), float(ends[j]), float(payloads[j])))
                improved = True
        if not improved:
            break

    memo[repaired] = tuple(out), values.distortion()
    return memo[repaired]


def reference_cycle_dp(units, weights, price, model, floor, points=offline._CYCLE_ENDS):
    """``offline._fifo_dp`` before it backtracked by index or kept its
    window tables: each unit builds its end grid and calls ``window_vec`` on
    every pass, its candidates (skip and window parts) are gathered and
    concatenated whole, parent, start, end and payload columns included, and
    the backtrack reads them by state."""
    times, costs, steps = np.array([floor]), np.array([0.0]), []
    for unit, w in zip(units, weights):
        live = np.arange(max(int(times.searchsorted(unit.ready, "right")) - 1, 0), len(times))
        starts, base = np.maximum(times[live], unit.ready), costs[live]
        idle = np.minimum(starts, unit.deadline)
        parts = [(starts, base + w, live, idle, idle, np.zeros(len(live)))]
        lo = max(unit.ready, floor)
        if lo < unit.deadline:
            ends = offline._grid(lo, unit.deadline, points)
            taus = ends - starts[:, None]
            payloads, loss, energy = model.window_vec(unit, taus, w, price)
            vals = base[:, None] + (w * loss + price * energy)
            vals[taus <= 0.0] = math.inf
            best, cols = vals.argmin(axis=0), np.arange(len(ends))
            parts.append((ends, vals[best, cols], live[best], starts[best], ends, payloads[best, cols]))
        t, c, parent, start, end, payload = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((c, t))
        keep = order[c[order] < np.minimum.accumulate(np.concatenate(([math.inf], c[order][:-1])))]
        times, costs = t[keep], c[keep]
        steps.append((parent[keep], start[keep], end[keep], payload[keep]))
    decisions, state = [], len(times) - 1
    for parent, start, end, payload in reversed(steps):
        decisions.append(CrossLayerDecision(float(start[state]), float(end[state]), float(payload[state])))
        state = parent[state]
    return tuple(reversed(decisions)), float(times[-1])


def reference_dag_passes(units, graph, price, model, start_floor):
    """``_solve_cycle_fixed_price`` on :func:`reference_cycle_dp`."""
    best = solved = reference_cycle_dp(units, [u.impact for u in units], price, model, start_floor)
    if graph is None:
        return best
    values = _ScheduleValues(units, graph, solved[0], model)
    best_value = values.lagrangian(price, (), 0.0)
    for _ in range(offline._DAG_PASSES):
        coeffs = [_dag_coeffs(i, values) for i in range(1, len(units) + 1)]
        again = reference_cycle_dp(units, [u.impact * a + s for u, (a, s) in zip(units, coeffs)], price, model,
                                   start_floor)
        if again[0] == solved[0]:
            break
        solved, values = again, _ScheduleValues(units, graph, again[0], model)
        if (value := values.lagrangian(price, (), 0.0)) < best_value:
            best, best_value = solved, value
    return best
