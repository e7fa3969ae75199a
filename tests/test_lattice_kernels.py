"""The lattice kernels against their earlier bodies, bit for bit.

``DecisionGrid.options`` values its table on plain floats, and
``_solve_unit_grid`` skips the terms whose coefficient is zero. Both must
return exactly what the bodies below return: the same rows, values and
argmin, with -0.0 told apart from 0.0 (``repr``).
"""

import math

import numpy as np
import pytest

from xlsched import DataUnit, DecisionGrid, ShannonEnergyParams, ShannonExpModel
from xlsched.config import default_config
from xlsched.offline import _solve_unit_grid

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
