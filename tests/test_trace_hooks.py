"""The benchmark's span tracer sees every solver layer it wraps.

``perfbench/spans.py`` wraps module attributes of the package between
``install`` and ``uninstall``; the solvers must call their unit solves,
coefficient updates and ``mdu`` cycle solves through those attributes, or
the traced counters read 0.
"""

import importlib.util
import sys
from pathlib import Path

from xlsched import (
    CausalStream,
    DecisionGrid,
    DependencyGraph,
    Instance,
    TraceParams,
    generate_trace,
    offline,
    online,
)
from xlsched.online import POLICIES

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_unit_solves_coefficients_and_mdu_cycles():
    spans = _load_spans()
    wrapped = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans._WRAPPED]
    wrapped.append((offline.DecisionGrid, "options", offline.DecisionGrid.options))
    tracer = spans.Tracer()
    model = spans.CountingModel(tracer=tracer)
    inst = generate_trace(TraceParams(seed=2, num_dus=4, budget=2.0))
    chain = Instance(inst.units, inst.budget, DependencyGraph(4, ((2, 1), (3, 2), (4, 3))))
    groups = tracer.group_calls

    tracer.install()
    try:
        rep = offline.solve_independent(inst, model, max_outer=5)
        assert groups["unit_solve"] == inst.num_units * rep.outer_iterations
        assert groups["dag_coeffs"] == 0
        offline.solve_interdependent(chain, model, max_outer=5, max_inner=2)
        assert groups["dag_coeffs"] > 0
        solves_before_mdu, coeffs_before_mdu = groups["unit_solve"], groups["dag_coeffs"]
        online.run_online(CausalStream(chain, cycle_len=4), model, "mdu")
    finally:
        tracer.uninstall()

    # the mdu cycle solve is a dynamic program over window ends: it makes no
    # per-unit solve and no handoff step, and reads the graph's coefficients
    assert groups["unit_solve"] == solves_before_mdu
    assert groups["mdu_cycle"] == 1
    assert groups["mdu_handoff"] == 0
    assert groups["dag_coeffs"] > coeffs_before_mdu
    for owner, attr, fn in wrapped:
        assert getattr(owner, attr) is fn


def test_tracer_sees_one_polish_and_the_options_of_each_lattice_solve():
    spans = _load_spans()
    tracer = spans.Tracer()
    model = spans.CountingModel(tracer=tracer)
    inst = generate_trace(TraceParams(seed=3, num_dus=3, budget=2.0))
    chain = Instance(inst.units, inst.budget, DependencyGraph(3, ((2, 1), (3, 2))))
    grid = DecisionGrid(0.02, 11)
    groups = tracer.group_calls

    tracer.install()
    try:
        for solved, (solve, target) in enumerate(
            ((offline.solve_independent, inst), (offline.solve_interdependent, chain)), start=1
        ):
            solve(target, model, max_outer=5, grid=grid)
            assert groups["polish"] == solved
            assert groups["grid_options"] == solved * target.num_units
    finally:
        tracer.uninstall()


def test_tracer_sees_each_online_layer_once_per_unit_cycle_and_run():
    spans = _load_spans()
    tracer = spans.Tracer()
    model = spans.CountingModel(tracer=tracer)
    base = generate_trace(TraceParams(seed=3, num_dus=12, budget=5.0))
    inst = Instance(base.units, base.budget, DependencyGraph(12, tuple((i, i - 1) for i in range(2, 13))))
    groups, calls = tracer.group_calls, tracer.calls

    tracer.install()
    try:
        for runs, policy in enumerate(POLICIES, start=1):
            decided, cycles = groups["decide"], groups["mdu_cycle"]
            stream = CausalStream(inst, cycle_len=5, expose_cycle_impacts=True)
            online.run_online(stream, model, policy)
            mdu = policy == "mdu"
            assert groups["decide"] - decided == (0 if mdu else inst.num_units)
            assert groups["mdu_cycle"] - cycles == (stream.num_cycles if mdu else 0)
            assert groups["mdu_handoff"] == 0
            assert groups["rows"] == calls["online.run_online"] == runs
            assert calls["online._run_mdu"] == mdu
    finally:
        tracer.uninstall()
