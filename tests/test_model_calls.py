"""How often the solvers ask the model for a value. In one continuous outer
iteration of the dual solvers each decision is valued once where it is made,
by the window evaluation of the kernel solve that makes it, and the outer
loop, the price step and the recovery reuse those values. An
online decision values its end grid and its refinement grid, one
``window_vec`` call each. An ``mdu`` cycle DP values each unit once per
pass: on a graph-free cycle with one ``window_vec`` call, and on a cycle
with a graph by evaluating the unit's ``window_table``, which the passes
build once and build again only for a unit whose start times changed. A
lattice option table makes one ``loss`` and one ``cost`` call per distinct
window length and action point, on plain floats. A lattice recovery whose
repaired schedule is already in its memo builds no ``_ScheduleValues`` and
calls the model only for a unit it drops on a graph, and the pair polish
extends its bystanders' shave ladders no further than the candidates need.

The counts are pinned on fixed traces of 3-10 units, so a change that
values a decision or a window twice again fails here even while every
number stays the same.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from xlsched import (
    CausalStream,
    CrossLayerDecision,
    DataUnit,
    DecisionGrid,
    DependencyGraph,
    Instance,
    ShannonExpModel,
    TraceParams,
    generate_dag,
    generate_trace,
    offline,
    online,
    run_online,
    solve_independent,
    solve_interdependent,
)
from xlsched.config import default_config


@dataclass(frozen=True)
class CountingModel(ShannonExpModel):
    """The default model, counting its scalar values and window functions."""

    calls: Counter = field(default_factory=Counter, compare=False, repr=False)
    arg_types: Counter = field(default_factory=Counter, compare=False, repr=False)
    shapes: list = field(default_factory=list, compare=False, repr=False)  # of each window_vec's taus

    def loss(self, unit, start, end, payload):
        self.calls["loss"] += 1
        self.arg_types["loss", type(start), type(end), type(payload)] += 1
        return super().loss(unit, start, end, payload)

    def cost(self, unit, start, end, payload):
        self.calls["cost"] += 1
        self.arg_types["cost", type(start), type(end), type(payload)] += 1
        return super().cost(unit, start, end, payload)

    def window_fn(self, unit, loss_weight, energy_weight):
        self.calls["window_fn"] += 1
        return super().window_fn(unit, loss_weight, energy_weight)

    def window_vec(self, unit, taus, loss_weight, energy_weight):
        self.calls["window_vec"] += 1
        self.shapes.append(np.shape(taus))
        return super().window_vec(unit, taus, loss_weight, energy_weight)

    def window_table(self, unit, taus):
        self.calls["window_table"] += 1
        self.shapes.append(np.shape(taus))
        table = super().window_table(unit, taus)

        def counted(loss_weight, energy_weight):
            self.calls["table_evaluations"] += 1
            return table(loss_weight, energy_weight)

        return counted


INST = generate_trace(TraceParams(seed=11, num_dus=10, budget=10.0))
DAG = Instance(INST.units, INST.budget, generate_dag("random", 10, 10, seed=11, edge_prob=0.5))


def _calls(solve, inst, **kwargs):
    model = CountingModel(params=default_config().model)
    solve(inst, model, max_outer=1, **kwargs)
    return dict(model.calls)


@pytest.mark.parametrize("time_step,action_points", [(0.01, 21), (0.003, 6), (0.0125, 11)])
def test_an_option_table_values_each_window_length_once_on_floats(time_step, action_points):
    # one loss and one cost call per distinct window length and action point,
    # on plain floats: numpy scalars would double the cost of every call
    unit = INST.units[3]
    grid = DecisionGrid(time_step, action_points)
    model = CountingModel(params=default_config().model)
    grid.options(unit, model)
    n_steps = int(np.floor((unit.deadline - unit.ready) / time_step + 1e-9))
    times = np.minimum(unit.ready + time_step * np.arange(n_steps + 1), unit.deadline)
    xi, yi = np.triu_indices(len(times))
    calls = len(set((times[yi] - times[xi]).tolist())) * action_points
    assert model.calls == {"loss": calls, "cost": calls}
    assert model.arg_types == {("loss", float, float, float): calls, ("cost", float, float, float): calls}


def test_one_independent_iteration_values_each_decision_once():
    # the relaxed step solves the 10 units (10 window_fn), and the recovery
    # re-solves the 7 units it moves (7 window_fn); each solve hands back its
    # decision's loss and energy, so neither calls loss or cost. The binding
    # budget takes 8 sums of 10 energies to find the payload scale and 10
    # losses of the scaled schedule. Valued again by average_energy and by
    # the recovery, the same iteration took 27 losses and 100 costs; valued
    # once by loss and cost after each solve, 27 and 97.
    assert _calls(solve_independent, INST) == {"window_fn": 17, "loss": 10, "cost": 80}


def test_one_interdependent_iteration_values_each_decision_once():
    # the warm start is valued once (10 loss and cost), then as above with
    # one block sweep in place of the independent step; re-valued, the same
    # iteration took 47 losses and 120 costs, and valued after each solve 37
    # and 107
    calls = _calls(solve_interdependent, DAG, max_inner=1)
    assert calls == {"window_fn": 17, "loss": 10 + 10, "cost": 10 + 80}


# two I-B-P-B-P cycles; every unit's window is open past the previous cycle
TWO_CYCLES = Instance(generate_trace(TraceParams(seed=12, num_dus=10, budget=10.0)).units, 10.0,
                  generate_dag("ibpbp", 10, 5, seed=12, edge_prob=0.5))


def _online_calls(policy, monkeypatch):
    """The model calls of one run, the cycle DP's passes by first unit, the
    shapes of the taus of each ``window_vec`` call and table, and the run."""
    model, passes = CountingModel(params=default_config().model), Counter()
    dp = offline._fifo_dp

    def counted_dp(units, *args, **kwargs):
        passes[units[0].index] += 1
        return dp(units, *args, **kwargs)

    monkeypatch.setattr(offline, "_fifo_dp", counted_dp)
    run = run_online(CausalStream(TWO_CYCLES, cycle_len=5, expose_cycle_impacts=True), model, policy)
    return dict(model.calls), dict(passes), model.shapes, run


def test_mdu_values_each_unit_once_per_dp_pass(monkeypatch):
    # cycle 1 runs the graph-free DP and all three weighted passes; in cycle 2
    # the first weighted pass returns the same schedule, which ends the passes
    calls, passes, shapes, _ = _online_calls("mdu", monkeypatch)
    assert passes == {1: 4, 6: 2}
    # both cycles have a graph, so each unit's first pass builds its table of
    # every state at the DP's 51 window ends; no later pass moved a unit's
    # start times, so each evaluates the tables of the first, and none calls
    # window_vec (30 calls before the tables were kept)
    assert {shape[-1] for shape in shapes} == {51}
    assert calls["window_table"] == 5 * len(passes) == 10
    assert calls["table_evaluations"] == 5 * sum(passes.values()) == 30
    # each of the 5 distinct schedules is valued once for its Lagrangian (loss
    # and cost per unit); booking values each unit's loss and cost once, and
    # the rows read them from the booking
    assert calls == {"window_table": 10, "table_evaluations": 30, "loss": 5 * 5 + 10, "cost": 5 * 5 + 10}


@pytest.mark.parametrize("policy", ["proposed", "myopic"])
def test_each_online_decision_values_two_grids(policy, monkeypatch):
    # the end grid and the refinement between the best end's neighbours, and
    # the scalar loss of the chosen decision, which the per-cycle rows read
    # from the booking; no unit of this stream is dropped
    calls, passes, shapes, run = _online_calls(policy, monkeypatch)
    assert calls == {"window_vec": 2 * 10, "loss": 10} and passes == {}
    # 200 ends from the start to the deadline, and the next arrival when it
    # falls between them (both happen here), then 60 ends around the best
    units = TWO_CYCLES.units
    ends = [201 if decision.start < t_next < unit.deadline else 200
            for unit, t_next, decision in zip(units, [u.ready for u in units[1:]] + [np.inf], run.decisions)]
    assert shapes == [shape for n in ends for shape in ((n,), (60,))] and set(ends) == {200, 201}


def _unit(index, ready, deadline, impact):
    return DataUnit(index=index, impact=impact, size=10.0, ready=ready, deadline=deadline, decay=0.5, channel=1.0)


@pytest.mark.parametrize("chain", [False, True], ids=["graph-free", "chain"])
@pytest.mark.parametrize("drop", [False, True], ids=["repair", "drop"])
def test_a_recovery_found_in_the_memo_builds_no_schedule_values(chain, drop, monkeypatch):
    # unit 1 sends until 0.05, so unit 2 (ready at 0.01) is repaired, or
    # dropped when its deadline is 0.03 (no option starts that late), and
    # unit 3 is repaired after it
    units = (_unit(1, 0.0, 0.05, 50.0), _unit(2, 0.01, 0.03 if drop else 0.06, 40.0), _unit(3, 0.02, 0.08, 30.0))
    inst = Instance(units, 10.0, DependencyGraph(3, ((2, 1), (3, 2))) if chain else None)
    grid = DecisionGrid(0.01, 21)
    plain = ShannonExpModel(params=default_config().model)
    opts = [grid.options(u, plain) for u in units]
    decisions = tuple(CrossLayerDecision(u.ready, u.deadline, 5.0) for u in units)
    measured = tuple(zip(*[(plain.loss(u, d.start, d.end, d.payload), plain.cost(u, d.start, d.end, d.payload))
                           for u, d in zip(units, decisions)]))
    built, values = Counter(), offline._ScheduleValues

    class CountedValues(values):
        def __init__(self, *args, **kwargs):
            built["values"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(offline, "_ScheduleValues", CountedValues)
    memo, calls = {}, []
    for _ in range(2):
        model = CountingModel(params=default_config().model)
        offline._recover_primal_grid(inst, decisions, opts, grid, model, 0.5, [0.2, 0.3], measured, memo)
        calls.append((dict(model.calls), built.pop("values", 0)))
    assert len(memo) == 1
    # the first call misses and builds the schedule's values once; the second
    # reads the memo, valuing only a drop whose loss a later repair reads
    assert calls[0][1] == 1
    assert calls[1] == ({"loss": 1, "cost": 1} if chain and drop else {}, 0)


def _polish_start(seed, m, chain, budget):
    base = generate_trace(TraceParams(seed=seed, num_dus=m))
    graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1))) if chain else None
    inst = Instance(base.units, budget, graph)
    grid, model = DecisionGrid(0.01, 21), ShannonExpModel(params=default_config().model)
    solve = solve_interdependent if chain else solve_independent
    opts = [grid.options(u, model) for u in inst.units]
    crude = tuple(CrossLayerDecision(u.ready, u.ready, 0.0) for u in inst.units)
    return inst, grid, opts, {"solved": solve(inst, model, max_outer=20, grid=grid).decisions, "crude": crude}


@pytest.mark.parametrize("seed,m,chain,start,losses,costs", [
    (11, 4, False, "solved", 82, 78),
    (11, 4, False, "crude", 242, 238),
    (12, 5, True, "solved", 76, 71),
    (12, 5, True, "crude", 151, 146),
])
def test_the_polish_shaves_its_ladders_only_as_far_as_needed(seed, m, chain, start, losses, costs):
    # the incumbent's losses, then one loss and one cost per bystander and
    # pair scored and per ladder level that some candidate over budget
    # reaches: the same counts as the candidate-by-candidate shaves made
    inst, grid, opts, starts = _polish_start(seed, m, chain, 2.0)
    model = CountingModel(params=default_config().model)
    offline._polish_grid_pairs(inst, starts[start], opts, grid, model)
    assert model.calls == {"loss": losses, "cost": costs}
