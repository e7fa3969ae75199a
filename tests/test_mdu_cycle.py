"""The ``mdu`` baseline's cycle solve: a dynamic program over window ends.

``reference_solve_cycle_fixed_price`` is the cycle solve the DP replaced,
kept here as ``reference_brute_force`` is kept in ``test_oracle.py``: up to
40 projected subgradient steps of beta0/k on the handoff prices, each
sweeping the offline per-unit solve over the cycle (three times with a
graph), then ``recover_primal`` on the cycle with an infinite budget.
"""

import itertools
import math

import numpy as np
import pytest

from xlsched import (
    CausalStream,
    CrossLayerDecision,
    DataUnit,
    DependencyGraph,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    TraceParams,
    generate_dag,
    generate_trace,
    offline,
    online,
    recover_primal,
    run_online,
)
from xlsched.config import default_config
from xlsched.experiments import build_instance

CFG = default_config()
MODEL = ShannonExpModel(params=CFG.model)


def reference_solve_cycle_fixed_price(units, graph, price, model, start_floor,
                                      outer=40, epsilon=1e-4, beta0=1000.0):
    m = len(units)
    local_units = []
    for pos, u in enumerate(units, start=1):
        ready = u.ready
        if pos == 1 and start_floor > ready:
            ready = min(start_floor, u.deadline)
        local_units.append(
            DataUnit(pos, u.impact, u.size, ready, max(u.deadline, ready), u.decay, u.channel)
        )
    inst = Instance(units=tuple(local_units), budget=math.inf, graph=graph)
    solve = offline._unit_solver(inst, model, None)
    mu = np.zeros(max(m - 1, 0))
    decisions = [CrossLayerDecision(u.ready, u.deadline, u.size) for u in local_units]
    values = None if graph is None else offline._ScheduleValues(local_units, graph, decisions, model, priced=False)
    for k in range(1, outer + 1):
        for _ in range(1 if values is None else 3):
            for i in range(1, m + 1):
                coeffs = () if values is None else offline._dag_coeffs(i, values)
                decisions[i - 1] = CrossLayerDecision(*solve(i, price, mu, *coeffs)[:3])
                if values is not None:
                    values.set(i, decisions[i - 1])
        new_mu = mu.copy()
        for i in range(m - 1):
            new_mu[i] = offline.handoff_update(mu[i], decisions[i].end, decisions[i + 1].start, beta0 / k)
        delta = float(np.linalg.norm(new_mu - mu))
        mu = new_mu
        if delta <= epsilon:
            break
    realized, _ = recover_primal(inst, decisions, model, price=price, handoff_prices=mu)
    return realized


def _cycle_lagrangian(units, graph, decisions, price):
    """Distortion through the graph plus the priced energy, over one cycle."""
    values = offline._ScheduleValues(units, graph, decisions, MODEL)
    return values.lagrangian(price, (), 0.0) * len(units)


def _cycle_pairs(inst, cycle_len):
    """(reference, DP) cycle Lagrangians at the prices and floors of a run of
    the reference solve, which the price ledger books as ``mdu`` books."""
    stream = CausalStream(inst, cycle_len=cycle_len, expose_cycle_impacts=inst.graph is not None)
    ledger = online._PriceLedger(stream, MODEL, CFG.learner, inst.budget, None)
    floor, pairs = -math.inf, []
    for c in range(1, stream.num_cycles + 1):
        units = stream.take_cycle(c)
        block = online._block_graph(inst.graph, *stream.cycle_bounds(units[0].index))
        ref = reference_solve_cycle_fixed_price(units, block, ledger.price, MODEL, floor)
        dp, _ = online._solve_cycle_fixed_price(units, block, ledger.price, MODEL, floor)
        pairs.append((_cycle_lagrangian(units, block, ref, ledger.price),
                      _cycle_lagrangian(units, block, dp, ledger.price)))
        for u, d in zip(units, ref):
            ledger.book(d, MODEL.cost(u, d.start, d.end, d.payload), False, ())
        floor = ref[-1].end
    return pairs


def _value(unit, w, price, model, dec):
    """A decision's term of the DP objective, valued as the DP values it."""
    if dec.payload == 0.0 and dec.end == dec.start:
        return w
    _, loss, energy = model.window_vec(unit, np.array([dec.end - dec.start]), w, price)
    return float(w * loss[0] + price * energy[0])


def _brute_force(units, weights, price, model, floor, points):
    """The cheapest schedule over every combination of ends on the DP's grids."""
    choices = []
    for u in units:
        lo = max(u.ready, floor)
        choices.append([None] + (list(online._grid(lo, u.deadline, points)) if lo < u.deadline else []))
    memo, best = {}, math.inf
    for combo in itertools.product(*choices):
        t, total = floor, 0.0
        for i, (u, w, end) in enumerate(zip(units, weights, combo)):
            if end is None:
                total += w
                continue
            start = max(u.ready, t)
            if not end > start:
                break
            if (i, start, end) not in memo:
                memo[i, start, end] = _value(u, w, price, model, CrossLayerDecision(start, end, 1.0))
            total, t = total + memo[i, start, end], end
        else:
            best = min(best, total)
    return best


@pytest.mark.parametrize("cap", [50.0, None])
def test_dp_matches_brute_force_on_small_cycles(cap):
    model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, points = int(rng.integers(2, 5)), int(rng.integers(3, 6))
        units, ready = [], 0.0
        for i in range(1, m + 1):
            ready += float(rng.uniform(0.0, 0.03))
            units.append(DataUnit(i, float(rng.uniform(50.0, 150.0)), 10.0, ready,
                                  ready + float(rng.choice([0.0, 0.01, 0.03, 0.06])), 0.5,
                                  float(rng.uniform(0.5, 1.5))))
        weights = [u.impact * float(rng.choice([0.0, 0.01, 1.0, 1.5])) for u in units]
        price = float(rng.choice([0.0, 0.3, 1.0, 5.0]))
        floor = float(rng.choice([-math.inf, 0.0, 0.02, 0.04]))
        decisions, free = online._cycle_dp(units, weights, price, model, floor, points)
        got = sum(_value(u, w, price, model, d) for u, w, d in zip(units, weights, decisions))
        assert got == pytest.approx(_brute_force(units, weights, price, model, floor, points), rel=1e-12)
        t = floor
        for u, d in zip(units, decisions):
            assert u.ready <= d.start <= d.end <= u.deadline
            if d.payload > 0.0:
                assert d.start >= t
                t = d.end
        assert free >= t


def test_dag_passes_never_end_worse_than_the_graph_free_schedule():
    # a pass at the previous schedule's coefficients can raise the cycle
    # Lagrangian (in the thirteenth draw the last pass ends above the
    # graph-free schedule), so the solve keeps the best schedule it has seen
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        units, ready = [], 0.0
        for i in range(1, m + 1):
            ready += float(rng.exponential(0.02))
            units.append(DataUnit(i, float(rng.uniform(1.0, 150.0)), 10.0, ready,
                                  ready + float(rng.uniform(0.0, 0.08)), 0.5, float(rng.uniform(0.3, 1.5))))
        edges = tuple((i, j) for i in range(2, m + 1) for j in range(1, i) if rng.random() < 0.6)
        if not edges:
            continue
        graph, price = DependencyGraph(m, edges), float(rng.choice([0.01, 0.3, 1.0, 3.0, 10.0]))
        free_of_graph, _ = online._cycle_dp(units, [u.impact for u in units], price, MODEL, -math.inf)
        solved, _ = online._solve_cycle_fixed_price(units, graph, price, MODEL, -math.inf)
        assert (_cycle_lagrangian(units, graph, solved, price)
                <= _cycle_lagrangian(units, graph, free_of_graph, price))


def test_a_dropped_last_unit_does_not_pull_the_next_cycle_back():
    # unit 2, the last of cycle 1, expires at 0.02 and is worth almost
    # nothing, so the DP drops it and keeps unit 1 sending until about 0.05:
    # cycle 2 must start after unit 1, not at unit 2's deadline
    spans = ((0.0, 0.05, 100.0), (0.01, 0.02, 1e-3), (0.015, 0.06, 100.0))
    inst = Instance(tuple(DataUnit(i, impact, 10.0, r, d, 0.5, 1.0)
                          for i, (r, d, impact) in enumerate(spans, start=1)), budget=10.0)
    first, second, third = run_online(CausalStream(inst, cycle_len=2), MODEL, "mdu").decisions
    assert second.payload == 0.0 and first.end > second.end
    assert third.payload > 0.0 and third.start >= first.end


def _mdu_dag_input(seed):
    # the benchmark's mdu-dag workload: 30 I-B-P-B-P cycles at budget 10
    base = generate_trace(TraceParams(seed=seed, num_dus=150, budget=10.0))
    return Instance(base.units, base.budget, generate_dag("ibpbp", 150, 5, seed=seed, edge_prob=0.5))


QUALITY_CASES = {
    # name: (instance, cycle length, worst cycle excess over the reference)
    "mdu-dag-seed1": (lambda: _mdu_dag_input(1), 5, 5e-4),
    "graph-free-seed1": (lambda: build_instance(CFG, num_dus=300, seed=1, budget=10.0), 10, 5e-4),
    "graph-free-seed2": (lambda: build_instance(CFG, num_dus=300, seed=2, budget=10.0), 10, 5e-4),
    "random-dag-seed1": (lambda: build_instance(CFG, num_dus=300, seed=1, budget=10.0, dag_kind="random"), 10, 1e-2),
    "random-dag-seed2": (lambda: build_instance(CFG, num_dus=300, seed=2, budget=10.0, dag_kind="random"), 10, 1e-2),
    "random-dag-seed3": (lambda: build_instance(CFG, num_dus=300, seed=3, budget=10.0, dag_kind="random"), 10, 1e-2),
}


@pytest.mark.parametrize("name", sorted(QUALITY_CASES))
def test_cycle_lagrangian_is_no_worse_than_the_reference_loop(name):
    make, cycle_len, worst_excess = QUALITY_CASES[name]
    pairs = _cycle_pairs(make(), cycle_len)
    ref_total = sum(r for r, _ in pairs)
    dp_total = sum(d for _, d in pairs)
    excess = [d / r - 1.0 for r, d in pairs]
    print(f"{name}: {len(pairs)} cycles, total {dp_total / ref_total - 1.0:+.3%} "
          f"(mean {np.mean(excess):+.3%}, worst cycle {max(excess):+.4%})")
    assert dp_total < ref_total
    assert max(excess) <= worst_excess
