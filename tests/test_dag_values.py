"""The per-schedule value cache against the scalar evaluators it replaced.

The reference functions below are the closure-based coefficient routine and
the scalar distortion and Lagrangian that the solvers used before they read
cached values. The cache must reproduce them bit for bit: every comparison
is ``==``, on random, chain and I-B-P-B-P graphs and without a graph.
"""

import math
import random

import numpy as np
import pytest

from xlsched import (
    CrossLayerDecision,
    DependencyGraph,
    Instance,
    ShannonExpModel,
    TraceParams,
    average_energy,
    generate_dag,
    generate_trace,
    instance_distortion,
)
from xlsched.offline import _dag_coeffs, _graph_coeffs, _lagrangian_value, _ScheduleValues

MODEL = ShannonExpModel()


def _ref_graph_coeffs(index, graph, err, kept):
    a_surv = 1.0
    for k in graph.ancestors(index):
        a_surv *= 1.0 - err(k)
    s_weight = 0.0
    for j in graph.descendants(index):
        term = kept(j)
        for k in graph.ancestors(j):
            if k == index:
                continue
            term *= 1.0 - err(k)
        s_weight += term
    return a_surv, s_weight


def _ref_dag_coeffs(index, units, decisions, graph, model):
    def err(k):
        kd = decisions[k - 1]
        return model.loss(units[k - 1], kd.start, kd.end, kd.payload)

    def kept(j):
        ju, jd = units[j - 1], decisions[j - 1]
        return ju.impact * (1.0 - model.loss(ju, jd.start, jd.end, jd.payload))

    return _ref_graph_coeffs(index, graph, err, kept)


def _ref_unit_distortion(index, units, decisions, graph, model):
    unit, dec = units[index - 1], decisions[index - 1]
    p = model.loss(unit, dec.start, dec.end, dec.payload)
    anc = graph.ancestors(index) if graph is not None else ()
    if not anc:
        return unit.impact * p
    survive = 1.0 - p
    for k in anc:
        kd = decisions[k - 1]
        survive *= 1.0 - model.loss(units[k - 1], kd.start, kd.end, kd.payload)
    return unit.impact - unit.impact * survive


def _ref_distortion(inst, decisions, model, respect_graph=True):
    m = inst.num_units
    if m == 0:
        return 0.0
    graph = inst.graph if respect_graph else None
    total = 0.0
    for i in range(1, m + 1):
        total += _ref_unit_distortion(i, inst.units, decisions, graph, model)
    return total / m


def _ref_lagrangian(inst, decisions, price, handoffs, model):
    val = _ref_distortion(inst, decisions, model)
    val += price * (average_energy(inst, decisions, model) - inst.budget)
    for i, mu in enumerate(handoffs):
        val += mu * (decisions[i].end - decisions[i + 1].start)
    return val


def _graph(kind, m, seed):
    if kind == "none":
        return None
    if kind == "chain":
        return DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1)))
    if kind == "ibpbp":
        return generate_dag("ibpbp", m, 5)
    return generate_dag("random", m, m, seed=seed, edge_prob=0.5)


def _decision(unit, rng):
    """A random decision inside the unit's window, now and then a drop."""
    if rng.random() < 0.15:
        return CrossLayerDecision(unit.deadline, unit.deadline, 0.0)
    start = rng.uniform(unit.ready, unit.deadline)
    end = rng.uniform(start, unit.deadline)
    payload = rng.uniform(0.0, unit.size) if end > start else 0.0
    return CrossLayerDecision(start, end, payload)


def _case(kind, seed):
    rng = random.Random(1000 * seed + len(kind))
    m = rng.randint(2, 12)
    base = generate_trace(TraceParams(seed=seed, num_dus=m))
    inst = Instance(base.units, base.budget, _graph(kind, m, seed))
    decisions = [_decision(u, rng) for u in inst.units]
    return inst, decisions, rng


KINDS = ("random", "chain", "ibpbp", "none")
SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_coefficients_distortion_and_lagrangian_match_the_scalar_reference(kind, seed):
    inst, decisions, rng = _case(kind, seed)
    m = inst.num_units
    values = _ScheduleValues(inst.units, inst.graph, decisions, MODEL)
    if inst.graph is not None:
        for i in range(1, m + 1):
            assert _dag_coeffs(i, values) == _ref_dag_coeffs(i, inst.units, decisions, inst.graph, MODEL)
    for i in range(1, m + 1):
        assert values.unit_distortion(i) == _ref_unit_distortion(
            i, inst.units, decisions, inst.graph, MODEL
        )
    for respect_graph in (True, False):
        valued = inst if respect_graph else Instance(inst.units, inst.budget)
        assert instance_distortion(valued, decisions, MODEL) == _ref_distortion(
            inst, decisions, MODEL, respect_graph
        )
    assert values.distortion() == _ref_distortion(inst, decisions, MODEL)
    price = rng.uniform(0.0, 3.0)
    handoffs = np.array([rng.uniform(0.0, 50.0) for _ in range(m - 1)])
    expected = _ref_lagrangian(inst, decisions, price, handoffs, MODEL)
    assert _lagrangian_value(inst, decisions, price, handoffs, MODEL) == expected
    assert values.lagrangian(price, handoffs, inst.budget) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ("random", "chain", "ibpbp"))
def test_graph_coeffs_follow_the_set_iteration_order(kind, seed):
    """Any slot lists, not only cached values: the online path passes its own."""
    inst, _, rng = _case(kind, seed)
    m = inst.num_units
    graph = inst.graph or _graph("chain", m, seed)  # a sparse random draw can have no edge
    errs = [0.0] + [rng.random() for k in range(1, m + 1)]
    kept = [0.0] + [rng.uniform(0.0, 150.0) for j in range(1, m + 1)]
    for i in range(1, m + 1):
        assert _graph_coeffs(i, graph, errs, kept) == _ref_graph_coeffs(
            i, graph, errs.__getitem__, kept.__getitem__
        )


@pytest.mark.parametrize("priced", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_no_value_goes_stale_after_random_sets(kind, seed, priced):
    inst, decisions, rng = _case(kind, seed)
    m = inst.num_units
    values = _ScheduleValues(inst.units, inst.graph, decisions, MODEL, priced)
    for _ in range(4 * m):
        i = rng.randint(1, m)
        dec = _decision(inst.units[i - 1], rng)
        if rng.random() < 0.5:
            values.set(i, dec)
        else:
            values.set(i, dec, values.measure(i, dec))
    fresh = _ScheduleValues(inst.units, inst.graph, values.decisions, MODEL, priced)
    assert values.decisions == fresh.decisions
    assert values.loss == fresh.loss
    assert values.kept == fresh.kept
    assert values.cost == fresh.cost
    assert (values.cost is None) == (not priced)
    assert values.distortion() == _ref_distortion(inst, values.decisions, MODEL)
    if inst.graph is not None:
        for i in range(1, m + 1):
            assert _dag_coeffs(i, values) == _ref_dag_coeffs(
                i, inst.units, values.decisions, inst.graph, MODEL
            )


def test_graph_tables_are_built_on_first_use():
    graph = generate_dag("random", 40, 10, seed=3, edge_prob=0.5)
    assert "relatives" not in vars(graph)
    ancestors, descendants = graph.relatives
    assert "relatives" in vars(graph)
    for n in range(1, 41):
        assert ancestors[n] == tuple(graph.ancestors(n))
        assert descendants[n] == tuple(graph.descendants(n))


def test_empty_schedule_values_to_zero():
    inst = Instance((), 1.0, None)
    assert instance_distortion(inst, (), MODEL) == 0.0
    assert _lagrangian_value(inst, (), 2.0, (), MODEL) == _ref_lagrangian(inst, (), 2.0, (), MODEL)
    assert math.isfinite(_lagrangian_value(inst, (), 2.0, (), MODEL))
