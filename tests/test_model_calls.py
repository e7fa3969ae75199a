"""How often one continuous outer iteration of the dual solvers asks the
model for a value: each decision is valued once where it is made, and the
outer loop, the price step and the recovery reuse those values.

The counts are pinned on one fixed 10-unit trace, so a change that values a
decision twice again fails here even while every number stays the same.
"""

from collections import Counter
from dataclasses import dataclass, field

from xlsched import (
    Instance,
    ShannonExpModel,
    TraceParams,
    generate_dag,
    generate_trace,
    solve_independent,
    solve_interdependent,
)
from xlsched.config import default_config


@dataclass(frozen=True)
class CountingModel(ShannonExpModel):
    """The default model, counting its scalar values and window functions."""

    calls: Counter = field(default_factory=Counter, compare=False, repr=False)

    def loss(self, unit, start, end, payload):
        self.calls["loss"] += 1
        return super().loss(unit, start, end, payload)

    def cost(self, unit, start, end, payload):
        self.calls["cost"] += 1
        return super().cost(unit, start, end, payload)

    def window_fn(self, unit, loss_weight, energy_weight):
        self.calls["window_fn"] += 1
        return super().window_fn(unit, loss_weight, energy_weight)


INST = generate_trace(TraceParams(seed=11, num_dus=10, budget=10.0))
DAG = Instance(INST.units, INST.budget, generate_dag("random", 10, 10, seed=11, edge_prob=0.5))


def _calls(solve, inst, **kwargs):
    model = CountingModel(params=default_config().model)
    solve(inst, model, max_outer=1, **kwargs)
    return dict(model.calls)


def test_one_independent_iteration_values_each_decision_once():
    # the relaxed step solves and values the 10 units (10 window_fn, loss and
    # cost); the recovery re-solves and values the 7 units it moves, and the
    # binding budget takes 8 sums of 10 energies to find the payload scale
    # and 10 losses of the scaled schedule. Valued again by average_energy
    # and by the recovery, the same iteration took 27 losses and 100 costs.
    assert _calls(solve_independent, INST) == {"window_fn": 17, "loss": 10 + 7 + 10, "cost": 10 + 7 + 80}


def test_one_interdependent_iteration_values_each_decision_once():
    # the warm start is valued once (10 loss and cost), then as above with
    # one block sweep in place of the independent step; re-valued, the same
    # iteration took 47 losses and 120 costs
    calls = _calls(solve_interdependent, DAG, max_inner=1)
    assert calls == {"window_fn": 17, "loss": 10 + 10 + 7 + 10, "cost": 10 + 10 + 7 + 80}
