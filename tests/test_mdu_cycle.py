"""The ``mdu`` baseline's cycle solve: a dynamic program over window ends.

``reference_solve_cycle_fixed_price`` is the cycle solve the DP replaced,
kept here as ``reference_brute_force`` is kept in ``test_oracle.py``: up to
40 projected subgradient steps of beta0/k on the handoff prices, each
sweeping the offline per-unit solve over the cycle (three times with a
graph), then ``recover_primal`` on the cycle with an infinite budget.

``reference_fifo_dp`` and ``reference_dag_passes`` are the DP and its DAG
passes as they were before the passes kept each unit's window table: one
``window_vec`` call per unit and pass, and a fresh end grid each time. The
solve that reuses the tables must equal them bit for bit.
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

from test_model_calls import CountingModel

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


def reference_fifo_dp(units, weights, price, model, floor, points=offline._CYCLE_ENDS):
    """``offline._fifo_dp`` before it took its windows from ``_UnitWindows``:
    each unit builds its end grid and calls ``window_vec`` on every pass."""
    times, costs, steps = np.array([floor]), np.array([0.0]), []
    for unit, w in zip(units, weights):
        first = max(int(times.searchsorted(unit.ready, "right")) - 1, 0)
        starts, base = np.maximum(times[first:], unit.ready), costs[first:]
        t, c, ends, rows, payloads = starts, base + w, None, None, None
        lo = max(unit.ready, floor)
        if lo < unit.deadline:
            ends = offline._grid(lo, unit.deadline, points)
            taus = ends - starts[:, None]
            payloads, loss, energy = model.window_vec(unit, taus, w, price)
            vals = base[:, None] + (w * loss + price * energy)
            np.putmask(vals, taus <= 0.0, math.inf)
            rows = vals.argmin(axis=0)
            t, c = np.concatenate((t, ends)), np.concatenate((c, vals.min(axis=0)))
        order = np.lexsort((c, t))
        ordered = c[order]
        keep = order[ordered < np.minimum.accumulate(np.concatenate(((math.inf,), ordered[:-1])))]
        times, costs = t[keep], c[keep]
        steps.append((first, starts, np.minimum(starts, unit.deadline), ends, rows, payloads, keep))
    decisions, state = [], len(times) - 1
    for first, starts, idle, ends, rows, payloads, keep in reversed(steps):
        j = int(keep[state])
        if j < len(starts):
            decisions.append(CrossLayerDecision(float(idle[j]), float(idle[j]), 0.0))
            state = first + j
        else:
            j -= len(starts)
            row = int(rows[j])
            decisions.append(CrossLayerDecision(float(starts[row]), float(ends[j]), float(payloads[row, j])))
            state = first + row
    return tuple(reversed(decisions)), float(times[-1])


def reference_dag_passes(units, graph, price, model, start_floor):
    """``_solve_cycle_fixed_price`` on :func:`reference_fifo_dp`."""
    best = solved = reference_fifo_dp(units, [u.impact for u in units], price, model, start_floor)
    if graph is None:
        return best
    values = offline._ScheduleValues(units, graph, solved[0], model)
    best_value = values.lagrangian(price, (), 0.0)
    for _ in range(offline._DAG_PASSES):
        coeffs = [offline._dag_coeffs(i, values) for i in range(1, len(units) + 1)]
        again = reference_fifo_dp(units, [u.impact * a + s for u, (a, s) in zip(units, coeffs)], price, model,
                                  start_floor)
        if again[0] == solved[0]:
            break
        solved, values = again, offline._ScheduleValues(units, graph, again[0], model)
        if (value := values.lagrangian(price, (), 0.0)) < best_value:
            best, best_value = solved, value
    return best


def reference_cycle_dp(units, weights, price, model, floor, points=offline._CYCLE_ENDS):
    """``offline._fifo_dp`` before it backtracked by index: each unit's
    candidates (skip and window parts) are gathered and concatenated whole,
    parent, start, end and payload columns included, and the backtrack reads
    them by state."""
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


def reference_block_graph(graph, lo, hi):
    """The block graph of units ``lo..hi`` as ``_run_mdu`` built it before it
    grouped the edges by cycle: a scan of every edge of the graph."""
    edges = () if graph is None else tuple(
        (i - lo + 1, j - lo + 1) for i, j in graph.edges if lo <= i <= hi and lo <= j <= hi)
    return DependencyGraph(num_nodes=hi - lo + 1, edges=edges) if edges else None


def _bits(result):
    """A DP result as hex strings: equal only when every float is the same bits."""
    decisions, free = result
    return [tuple(float.hex(x) for x in (d.start, d.end, d.payload)) for d in decisions], float.hex(free)


def _cycle_lagrangian(units, graph, decisions, price):
    """Distortion through the graph plus the priced energy, over one cycle."""
    values = offline._ScheduleValues(units, graph, decisions, MODEL)
    return values.lagrangian(price, (), 0.0) * len(units)


def _cycle_pairs(inst, cycle_len):
    """(reference, DP) cycle Lagrangians at the prices and floors of a run of
    the reference solve, which the price ledger books as ``mdu`` books."""
    stream = CausalStream(inst, cycle_len=cycle_len, expose_cycle_impacts=inst.graph is not None)
    ledger = online._PriceLedger(stream, MODEL, CFG.learner)
    floor, pairs, edges = -math.inf, [], online._cycle_edges(inst.graph, cycle_len)
    for c in range(1, stream.num_cycles + 1):
        units = stream.take_cycle(c)
        block = DependencyGraph(len(units), tuple(edges[c])) if c in edges else None
        ref = reference_solve_cycle_fixed_price(units, block, ledger.price, MODEL, floor)
        dp, _ = online._solve_cycle_fixed_price(units, block, ledger.price, MODEL, floor)
        pairs.append((_cycle_lagrangian(units, block, ref, ledger.price),
                      _cycle_lagrangian(units, block, dp, ledger.price)))
        for u, d in zip(units, ref):
            ledger.book(d, MODEL.loss(u, d.start, d.end, d.payload), MODEL.cost(u, d.start, d.end, d.payload),
                        False, ())
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
        choices.append([None] + (list(offline._grid(lo, u.deadline, points)) if lo < u.deadline else []))
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
        decisions, free = offline._fifo_dp(units, weights, price, model, floor, points)
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
        free_of_graph, _ = offline._fifo_dp(units, [u.impact for u in units], price, MODEL, -math.inf)
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


def _random_cycle(rng):
    """A cycle, its weights, a price and a floor, drawn to reach the DP's corners:
    capped and uncapped models, floors from -inf to past the deadlines, prices
    from 0 to 5, zero weights, units with ready == deadline and runs of expired
    units that collapse the states to one."""
    m = int(rng.integers(1, 9))
    units, ready = [], float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
    for i in range(1, m + 1):
        ready += float(rng.choice([0.0, rng.exponential(0.01), rng.exponential(0.03)]))
        life = float(rng.choice([0.0, 0.0, rng.uniform(0.0, 0.01), rng.uniform(0.01, 0.08), 0.05]))
        units.append(DataUnit(i, float(rng.uniform(1.0, 150.0)), float(rng.choice([10.0, rng.uniform(0.5, 40.0)])),
                              ready, ready + life, float(10.0 ** rng.uniform(-1.0, 0.5)),
                              float(10.0 ** rng.uniform(-1.0, 0.5))))
    weights = [u.impact * float(rng.choice([0.0, 0.01, 1.0, 1.5, rng.uniform(0.0, 2.0)]))
               + float(rng.choice([0.0, rng.uniform(0.0, 50.0)])) for u in units]
    price = float(rng.choice([0.0, 0.01, 0.3, 1.0, 5.0, rng.uniform(0.0, 5.0)]))
    last = units[-1].deadline
    floor = float(rng.choice([-math.inf, units[0].ready - 0.01, units[0].ready, rng.uniform(units[0].ready, last + 0.01),
                              last, last + 0.05]))
    cap = rng.choice([None, 0.5, 50.0])
    model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=None if cap is None else float(cap)))
    return units, weights, price, model, floor, int(rng.choice([offline._CYCLE_ENDS, 2, 3, 7]))


def test_dp_matches_the_gathering_dp_bit_for_bit():
    rng = np.random.default_rng(2024)
    collapsed = sent = 0
    for _ in range(400):
        units, weights, price, model, floor, points = _random_cycle(rng)
        got = offline._fifo_dp(units, weights, price, model, floor, points)
        assert _bits(got) == _bits(reference_cycle_dp(units, weights, price, model, floor, points)), (
            units, weights, price, model.params.energy_cap, floor, points)
        collapsed += all(d.payload == 0.0 for d in got[0])
        sent += any(d.payload > 0.0 for d in got[0])
    # the draws reach both all-idle cycles and sending ones
    assert collapsed > 20 and sent > 200


def test_dp_matches_the_gathering_dp_on_a_whole_trace():
    units = generate_trace(TraceParams(seed=3, num_dus=1000, budget=10.0)).units
    for weights, price in [([u.impact for u in units], 1.0), ([0.0 if i % 7 == 0 else u.impact for i, u in enumerate(units)], 0.2)]:
        got = offline._fifo_dp(units, weights, price, MODEL, -math.inf)
        assert _bits(got) == _bits(reference_cycle_dp(units, weights, price, MODEL, -math.inf))


def _random_graph_cycle(rng):
    """A random cycle (see :func:`_random_cycle`) under a model that counts
    its calls and tables, with a random graph over its units, or none."""
    units, _, price, model, floor, _ = _random_cycle(rng)
    m = len(units)
    edges = tuple((i, j) for i in range(2, m + 1) for j in range(1, i) if rng.random() < 0.5)
    graph = DependencyGraph(m, edges) if edges and rng.random() < 0.9 else None
    return units, graph, price, CountingModel(params=model.params), floor


def test_dag_passes_match_the_window_vec_passes_bit_for_bit():
    # the passes evaluate a unit's kept table where its start times are the
    # last pass's, and build a new one where they are not; a graph-free cycle
    # makes one pass and calls window_vec
    rng = np.random.default_rng(27)
    graph_cycles = first_pass = 0
    built = evaluated = 0
    for _ in range(400):
        units, graph, price, model, floor = _random_graph_cycle(rng)
        got = offline._solve_cycle_fixed_price(units, graph, price, model, floor)
        ref = reference_dag_passes(units, graph, price, ShannonExpModel(params=model.params), floor)
        assert _bits(got) == _bits(ref), (units, graph, price, model.params.energy_cap, floor)
        if graph is None:
            assert set(model.calls) <= {"window_vec"}
            continue
        assert "window_vec" not in model.calls
        graph_cycles += 1
        first_pass += sum(max(u.ready, floor) < u.deadline for u in units)
        built, evaluated = built + model.calls["window_table"], evaluated + model.calls["table_evaluations"]
    # later passes both reused tables and rebuilt some
    assert graph_cycles > 200
    assert first_pass < built < evaluated
    print(f"{graph_cycles} graph cycles: {built} tables built ({built - first_pass} after the first pass), "
          f"{evaluated} evaluated")


def test_kept_windows_value_any_weights_as_window_vec_does():
    # one _UnitWindows across DPs at new weights and prices, zero weights and
    # price 0 included, gives each DP's fresh result bit for bit
    rng = np.random.default_rng(31)
    reused = 0
    for _ in range(150):
        units, weights, price, model, floor, points = _random_cycle(rng)
        model = CountingModel(params=model.params)
        windows = offline._UnitWindows(units, model, floor, points, keep=True)
        for _ in range(4):
            got = offline._fifo_dp(units, weights, price, model, floor, points, windows)
            ref = reference_fifo_dp(units, weights, price, ShannonExpModel(params=model.params), floor, points)
            assert _bits(got) == _bits(ref)
            weights = [w * float(rng.choice([0.0, 0.5, 1.0, 3.0])) for w in weights]
            price = float(rng.choice([price, 0.0, rng.uniform(0.0, 5.0)]))
        reused += model.calls["table_evaluations"] - model.calls["window_table"]
    assert reused > 100


@pytest.mark.parametrize("cycle_len", [1, 3, 5, 7, 10, 150])
@pytest.mark.parametrize("kind", ["ibpbp", "random"])
def test_cycle_edges_match_the_per_cycle_scan(cycle_len, kind):
    # the same edges in the same order, so relatives and every product read
    # through them stay bit-identical
    stream = CausalStream(_mdu_dag_input(1), cycle_len=cycle_len)
    # the graph's own cycles (5 or 10 units) need not be the stream's
    graph = generate_dag(kind, stream.num_units, 5 if kind == "ibpbp" else 10, seed=4, edge_prob=0.5)
    # generate_dag lists its edges sorted; shuffled, the order is the graph's own
    order = np.random.default_rng(cycle_len).permutation(len(graph.edges))
    graph = DependencyGraph(graph.num_nodes, tuple(graph.edges[k] for k in order))
    edges = online._cycle_edges(graph, cycle_len)
    assert set(edges) <= set(range(1, stream.num_cycles + 1))
    for c in range(1, stream.num_cycles + 1):
        lo, hi = stream.cycle_bounds((c - 1) * cycle_len + 1)
        ref = reference_block_graph(graph, lo, hi)
        assert (ref.edges if ref is not None else None) == (tuple(edges[c]) if c in edges else None)
    assert online._cycle_edges(None, cycle_len) == {}
