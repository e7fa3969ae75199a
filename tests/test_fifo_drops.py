"""FIFO order survives dropped units.

``validate_instance`` lets deadlines decrease from one unit to the next, so a
unit can expire while the link is still busy with an earlier one. A dropped
unit's empty window sits at its deadline, which may lie before the time the
link becomes free; no solver or policy may take the next start from it.
Every schedule must keep each unit that sends a payload starting at or after
the end of the previous unit that sends one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlsched import (
    CausalStream,
    DataUnit,
    DecisionGrid,
    DependencyGraph,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    run_online,
    solve_independent,
    solve_interdependent,
)
from xlsched.online import POLICIES

MODELS = (ShannonExpModel(params=ShannonEnergyParams(energy_cap=50.0)), ShannonExpModel())
GRID = DecisionGrid(0.01, 5)


def _fifo_breaches(decisions):
    breaches, prev_end = [], None
    for i, d in enumerate(decisions, start=1):
        if d.payload > 0.0:
            if prev_end is not None and d.start < prev_end - 1e-12:
                breaches.append((i, d.start, prev_end))
            prev_end = d.end
    return breaches


def _schedules(inst, model, cycle_len):
    """Every solver, continuous and on a lattice, and every online policy."""
    out = {}
    for grid in (None, GRID):
        tag = "" if grid is None else "-grid"
        out["independent" + tag] = solve_independent(inst, model, max_outer=15, grid=grid).decisions
        out["interdependent" + tag] = solve_interdependent(
            inst, model, max_outer=15, max_inner=2, grid=grid).decisions
    for policy in POLICIES:
        for length in sorted({1, cycle_len}):
            stream = CausalStream(inst, cycle_len=length, expose_cycle_impacts=True)
            out[f"{policy}-cycle{length}"] = run_online(stream, model, policy).decisions
    return out


@st.composite
def _instances(draw):
    m = draw(st.integers(3, 5))
    units, ready = [], 0.0
    for i in range(1, m + 1):
        ready += draw(st.floats(0.0, 0.03))
        # drawn per unit, so deadlines may fall from one unit to the next
        lifetime = draw(st.sampled_from([0.0, 0.005, 0.01, 0.02, 0.04, 0.06]))
        units.append(DataUnit(i, draw(st.floats(50.0, 150.0)), 10.0, ready, ready + lifetime, 0.5,
                              draw(st.floats(0.5, 1.5))))
    # the independent solver drops the graph; a cycle without edges runs mdu's graph-free path
    edges = tuple((i, j) for i in range(2, m + 1) for j in range(1, i) if draw(st.booleans()))
    return Instance(tuple(units), draw(st.sampled_from([0.5, 5.0, 50.0])), DependencyGraph(m, edges))


@given(inst=_instances(), model=st.sampled_from(MODELS), cycle_len=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_every_schedule_keeps_fifo_past_dropped_units(inst, model, cycle_len):
    for name, decisions in _schedules(inst, model, cycle_len).items():
        assert not _fifo_breaches(decisions), (name, _fifo_breaches(decisions))


@pytest.mark.parametrize("policy", POLICIES)
def test_an_expired_unit_leaves_the_link_busy(policy):
    # unit 2 expires at 0.02 while unit 1 may send until 0.05: unit 3 must
    # wait for unit 1's end, not start at unit 2's deadline
    spans = ((0.0, 0.05), (0.01, 0.02), (0.015, 0.06))
    inst = Instance(tuple(DataUnit(i, 100.0, 10.0, r, d, 0.5, 1.0) for i, (r, d) in enumerate(spans, start=1)),
                    budget=10.0)
    decisions = run_online(CausalStream(inst, cycle_len=1), MODELS[0], policy).decisions
    assert decisions[0].end > decisions[1].end  # unit 1 outlasts unit 2's deadline
    assert not _fifo_breaches(decisions)
