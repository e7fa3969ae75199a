"""The lattice kernels against their references in ``kernel_refs``, bit for bit.

``DecisionGrid.options`` must return the rows and values of
``reference_options``, its scalar per-window loop; ``_solve_unit_grid``,
which skips the terms whose coefficient is zero, those of
``reference_solve_unit_grid``, with and without a row mask; and
``_recover_primal_grid``, whose repair and descent steps are
``_solve_unit_grid`` calls, those of ``reference_recover_primal_grid``.
Floats are compared by ``repr`` or as hex strings, so -0.0 is told apart
from 0.0.
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
from xlsched.offline import _solve_unit_grid

from kernel_refs import (
    _bits,
    _weight,
    reference_options,
    reference_recover_primal_grid,
    reference_solve_unit_grid,
)
from test_oracle import FixedCostModel, ListeningModel

MODELS = {
    "uncapped": ShannonExpModel(),
    "config-cap": ShannonExpModel(params=default_config().model),
    "tight-cap": ShannonExpModel(params=ShannonEnergyParams(energy_cap=5.0)),
    "fixed-cost": FixedCostModel(),
    "listening": ListeningModel(),
}


def _random_unit(rng):
    ready = float(rng.uniform(0.0, 2.0))
    # a lifetime of 0 leaves one time point and only the empty payload
    lifetime = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.001, 0.1))
    return DataUnit(index=int(rng.integers(1, 50)), ready=ready, deadline=ready + lifetime,
                    impact=float(rng.uniform(1.0, 100.0)), size=float(rng.uniform(1.0, 40.0)),
                    decay=float(rng.uniform(0.05, 1.0)), channel=float(rng.uniform(0.2, 2.0)))


def _random_grid(rng):
    return DecisionGrid(float(rng.choice([0.1, 0.02, 0.0125, 0.01, 0.003])), int(rng.integers(2, 22)))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_options_match_the_reference(name):
    model, rng = MODELS[name], np.random.default_rng(sorted(MODELS).index(name))
    for _ in range(40):
        grid, unit = _random_grid(rng), _random_unit(rng)
        got, ref = grid.options(unit, model), reference_options(grid, unit, model)
        assert [c.dtype for c in got] == [c.dtype for c in ref]
        assert repr([c.tolist() for c in got]) == repr([c.tolist() for c in ref])


def _mask(rng, n):
    """None, an all-false mask, a single row or a random mask over ``n`` rows."""
    kind = int(rng.integers(4))
    if kind == 0:
        return None
    if kind == 1:
        return np.zeros(n, dtype=bool)
    return np.arange(n) == rng.integers(n) if kind == 2 else rng.random(n) < 0.5


@pytest.mark.parametrize("name", sorted(MODELS))
def test_unit_solve_matches_the_reference(name):
    # each draw is solved over the whole table, then over the rows from a
    # random offset under a random mask, drawn from a second generator
    model, rng = MODELS[name], np.random.default_rng(100 + sorted(MODELS).index(name))
    pick = np.random.default_rng(200 + sorted(MODELS).index(name))
    zeros = dict.fromkeys(("handoff_prev", "handoff_next", "err_coeff", "energy_coeff"), 0)
    masks = Counter()
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
            first = int(pick.integers(len(opts[0])))
            rows = tuple(c[first:] for c in opts)
            mask = _mask(pick, len(rows[0]))
            got = _solve_unit_grid(rows, **args, mask=mask)
            assert repr(got) == repr(reference_solve_unit_grid(rows, **args, mask=mask))
            if mask is None:
                masks["none"] += 1
            elif not mask.any():
                # the descent leaves a unit alone on an infinite objective
                assert got[3] == math.inf
                masks["all false"] += 1
            else:
                masks["some rows"] += 1
            masks["offset"] += first > 0
    assert min(zeros.values()) > 0
    assert len(masks) == 4 and min(masks.values()) > 0


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


CAPS = (None, 50.0, 5.0)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), chain=st.booleans(), cap=st.sampled_from(CAPS))
@settings(max_examples=60, deadline=None)
def test_recovery_matches_the_reference_as_hex(seed, m, chain, cap):
    inst, opts, grid, model, calls = _recovery_calls(seed, m, chain, cap)
    memo, ref_memo = {}, {}
    for decisions, measured, price, handoffs in calls:
        got = offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, measured, memo)
        ref = reference_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, ref_memo)
        assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("chain", [False, True], ids=["independent", "chain"])
def test_recovery_matches_the_reference_on_fixed_cells(chain):
    # the cells the hex comparison draws from meet every path of the
    # recovery; on a chain a repair reads the loss of an earlier repair
    seen = Counter()
    for seed in range(10):
        for m in (2, 3, 4):
            for cap in CAPS:
                inst, opts, grid, model, calls = _recovery_calls(seed, m, chain, cap)
                memo, ref_memo = {}, {}
                for decisions, measured, price, handoffs in calls:
                    got = offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs,
                                                       measured, memo)
                    ref = reference_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs,
                                                        ref_memo, seen)
                    assert _bits(got) == _bits(ref)
    assert min(seen[k] for k in ("drop", "miss", "hit")) > 0
    assert (seen["repair after a repair"] > 0) == chain
