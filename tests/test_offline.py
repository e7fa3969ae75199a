"""Offline dual machinery: subgradient steps, per-unit solves, recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from xlsched import (
    CrossLayerDecision,
    DataUnit,
    DecisionGrid,
    DependencyGraph,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    TraceParams,
    average_energy,
    generate_trace,
    handoff_update,
    instance_distortion,
    price_update,
    recover_primal,
    solve_independent,
    solve_interdependent,
    upper_optimization,
)
from xlsched.offline import _dag_coeffs, _ScheduleValues
from xlsched.search import golden_section

MODEL = ShannonExpModel()


def _unit(index=1, ready=0.0, deadline=0.05, **kw):
    base = dict(impact=100.0, size=10.0, decay=0.5, channel=1.0)
    base.update(kw)
    return DataUnit(index=index, ready=ready, deadline=deadline, **base)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_monotone_returns_corner_exactly(self):
        x, _ = golden_section(lambda t: t, 0.0, 1.0)
        assert x == 0.0
        x, _ = golden_section(lambda t: -t, 0.0, 1.0)
        assert x == 1.0

    def test_flat_ties_prefer_upper_endpoint(self):
        x, _ = golden_section(lambda t: 0.0, 0.0, 1.0)
        assert x == 1.0

    def test_degenerate_interval(self):
        assert golden_section(lambda t: t * t, 2.0, 2.0) == (2.0, 4.0)
        with pytest.raises(ValueError):
            golden_section(lambda t: t, 1.0, 0.0)


class TestPriceUpdates:
    def test_budget_step_values(self):
        assert price_update(0.5, 12.0, 10.0, 0.1) == pytest.approx(0.7)
        assert price_update(0.0, 8.0, 10.0, 0.1) == 0.0
        assert price_update(1.0, 10.0, 10.0, 0.37) == pytest.approx(1.0)

    def test_handoff_step_values(self):
        assert handoff_update(0.2, 3.0, 5.0, 0.1) == 0.0
        assert handoff_update(0.2, 5.0, 5.0, 0.1) == pytest.approx(0.2)
        assert handoff_update(0.1, 6.0, 5.0, 0.2) == pytest.approx(0.3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            price_update(0.5, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            price_update(-0.1, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            handoff_update(0.1, 1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            handoff_update(-0.1, 1.0, 1.0, 0.5)

    @given(
        mult=st.floats(0.0, 1e6, allow_nan=False),
        a=st.floats(-1e6, 1e6, allow_nan=False),
        b=st.floats(-1e6, 1e6, allow_nan=False),
        step=st.floats(1e-9, 1e3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_multipliers_stay_nonnegative(self, mult, a, b, step):
        assert price_update(mult, a, b, step) >= 0.0
        assert handoff_update(mult, a, b, step) >= 0.0


class TestLowerOptimization:
    """The payload layer: ``window_fn`` at the unit's share
    ``impact/num_units``, ``price/num_units`` of the priced objective."""

    def test_free_energy_sends_everything(self):
        a, _, _ = MODEL.window_fn(_unit(), 100.0 / 4, 0.0)(0.05)
        assert a == _unit().size

    def test_degenerate_window(self):
        a, f, _ = MODEL.window_fn(_unit(), 100.0 / 4, 1.0 / 4)(0.0)
        assert a == 0.0
        assert f == pytest.approx(100.0 / 4)

    def test_matches_reference_search(self):
        # independent 1-D reference on the identical objective
        unit = _unit()
        lam, tau, m = 1.0, 0.05, 1

        def f(a):
            return (unit.impact * MODEL.loss(unit, 0.0, tau, a)
                    + lam * MODEL.cost(unit, 0.0, tau, a)) / m

        res = minimize_scalar(f, bounds=(0.0, unit.size), method="bounded",
                              options={"xatol": 1e-12})
        ref_a = min([(f(0.0), 0.0), (f(unit.size), unit.size), (res.fun, float(res.x))])[1]
        a, val, _ = MODEL.window_fn(unit, unit.impact / m, lam / m)(tau)
        assert a == pytest.approx(ref_a, abs=1e-6)
        assert val == pytest.approx(f(ref_a), abs=1e-9)


class TestUpperOptimization:
    def test_priceless_solve_takes_maximal_window(self):
        unit = _unit()
        sol = upper_optimization(unit, 0.0, 0.0, 0.0, 4, MODEL)
        assert sol.decision.start == unit.ready
        assert sol.decision.end == unit.deadline
        assert sol.decision.payload == unit.size

    def test_large_previous_handoff_pushes_window_late(self):
        unit = _unit()
        sol = upper_optimization(unit, 1.0, 500.0, 0.0, 4, MODEL)
        assert sol.decision.end == pytest.approx(unit.deadline, abs=1e-9)
        assert sol.decision.start > unit.ready

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dominates_fine_grid(self, seed):
        rng = np.random.default_rng(seed)
        unit = _unit(channel=float(rng.uniform(0.5, 1.5)))
        lam = float(rng.uniform(0.0, 2.0))
        mup = float(rng.uniform(0.0, 60.0))
        mun = float(rng.uniform(0.0, 60.0))
        m = 4
        sol = upper_optimization(unit, lam, mup, mun, m, MODEL)

        def value_at(x, y, a):
            return ((unit.impact * MODEL.loss(unit, x, y, a)
                     + lam * MODEL.cost(unit, x, y, a)) / m
                    - mup * x + mun * y)

        d = sol.decision
        # the reported objective is an honest evaluation of the decision
        assert sol.objective == pytest.approx(value_at(d.start, d.end, d.payload), abs=1e-9)

        # 1 ms two-dimensional sweep with the exact payload inner solve
        points = np.arange(unit.ready, unit.deadline + 1e-12, 0.001)
        grid_best = math.inf
        for x in points:
            for y in points:
                if y < x:
                    continue
                a = MODEL.window_fn(unit, unit.impact / m, lam / m)(y - x)[0]
                grid_best = min(grid_best, value_at(x, y, a))
        assert sol.objective <= grid_best + 1e-12
        assert grid_best - sol.objective <= 2e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            upper_optimization(_unit(), 1.0, 0.0, 0.0, 0, MODEL)


def _sensitivity(index, units, decisions, graph):
    """The distortion terms that move with unit ``index``'s decision:
    ``impact*loss*A - (1-loss)*S`` with ``(A, S)`` from ``_dag_coeffs``."""
    unit = units[index - 1]
    a_surv, s_weight = _dag_coeffs(index, _ScheduleValues(units, graph, decisions, MODEL))

    def piece(start, end, payload):
        p = MODEL.loss(unit, start, end, payload)
        return unit.impact * p * a_surv - (1.0 - p) * s_weight

    return piece


class TestDagSensitivity:
    def _chain(self):
        units = tuple(_unit(i, 0.05 * (i - 1), 0.05 * i) for i in (1, 2, 3))
        graph = DependencyGraph(3, ((2, 1), (3, 2)))
        return units, graph

    def test_isolated_unit_reduces_to_own_loss(self):
        units, _ = self._chain()
        graph = DependencyGraph(3, ())
        decisions = tuple(CrossLayerDecision(u.ready, u.deadline, 4.0) for u in units)
        piece = _sensitivity(2, units, decisions, graph)
        u = units[1]
        for a1, a2 in ((0.0, 4.0), (2.0, 8.0)):
            lhs = piece(u.ready, u.deadline, a1) - piece(u.ready, u.deadline, a2)
            rhs = u.impact * (MODEL.loss(u, u.ready, u.deadline, a1)
                              - MODEL.loss(u, u.ready, u.deadline, a2))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dead_ancestor_zeroes_own_term(self):
        units, graph = self._chain()
        # unit 1 sends nothing: its loss, the error it propagates, hits 1
        decisions = (
            CrossLayerDecision(0.0, 0.05, 0.0),
            CrossLayerDecision(0.05, 0.10, 4.0),
            CrossLayerDecision(0.10, 0.15, 4.0),
        )
        piece = _sensitivity(3, units, decisions, graph)
        u3 = units[2]
        vals = {piece(u3.ready, u3.deadline, a) for a in (0.0, 3.0, 10.0)}
        assert max(vals) - min(vals) <= 1e-12  # leaf with dead ancestor: flat

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_finite_differences_match_total_distortion(self, index):
        units, graph = self._chain()
        inst = Instance(units=units, budget=10.0, graph=graph)
        rng = np.random.default_rng(index)
        decisions = tuple(
            CrossLayerDecision(u.ready, u.deadline, float(rng.uniform(1.0, 9.0)))
            for u in units
        )
        piece = _sensitivity(index, units, decisions, graph)
        u = units[index - 1]
        d = decisions[index - 1]
        base_total = 3.0 * instance_distortion(inst, decisions, MODEL)
        base_piece = piece(d.start, d.end, d.payload)
        for delta in (1e-3, 0.5, -0.5):
            moved = list(decisions)
            moved[index - 1] = CrossLayerDecision(d.start, d.end, d.payload + delta)
            fd_total = 3.0 * instance_distortion(inst, tuple(moved), MODEL) - base_total
            fd_piece = piece(d.start, d.end, d.payload + delta) - base_piece
            assert fd_piece == pytest.approx(fd_total, abs=1e-6)


class TestRecoverPrimal:
    def _instance(self, budget=50.0):
        units = (_unit(1, 0.0, 0.05), _unit(2, 0.04, 0.09))
        return Instance(units=units, budget=budget)

    def test_feasible_schedule_passes_through(self):
        inst = self._instance()
        decisions = (
            CrossLayerDecision(0.0, 0.04, 6.0),
            CrossLayerDecision(0.04, 0.09, 6.0),
        )
        out, value = recover_primal(inst, decisions, MODEL)
        assert out == decisions
        assert value == pytest.approx(instance_distortion(inst, decisions, MODEL))

    def test_overlap_is_clipped(self):
        inst = self._instance()
        decisions = (
            CrossLayerDecision(0.0, 0.06, 6.0),
            CrossLayerDecision(0.04, 0.09, 6.0),
        )
        out, _ = recover_primal(inst, decisions, MODEL)
        assert out[0] == decisions[0]
        assert out[1].start == pytest.approx(0.06)
        assert out[1].end <= inst.units[1].deadline + 1e-12
        assert out[1].start <= out[1].end

    def test_budget_overrun_is_scaled_back(self):
        inst0 = self._instance()
        decisions = (
            CrossLayerDecision(0.0, 0.04, 10.0),
            CrossLayerDecision(0.04, 0.09, 10.0),
        )
        full = average_energy(inst0, decisions, MODEL)
        inst = self._instance(budget=full / 2.0)
        out, _ = recover_primal(inst, decisions, MODEL)
        used = average_energy(inst, out, MODEL)
        assert used <= inst.budget + 1e-9
        assert abs(used - inst.budget) / inst.budget < 1e-4
        # windows untouched, payloads shrunk uniformly
        assert out[0].start == 0.0 and out[1].end == 0.09
        assert out[0].payload / 10.0 == pytest.approx(out[1].payload / 10.0)

    def test_infinite_budget_is_never_rescaled(self):
        # the mdu baseline recovers each cycle on an infinite budget and
        # relies on getting its decisions back unscaled
        decisions = (
            CrossLayerDecision(0.0, 0.04, 10.0),
            CrossLayerDecision(0.04, 0.09, 10.0),
        )
        out, _ = recover_primal(self._instance(budget=math.inf), decisions, MODEL, price=1.0)
        assert out == decisions

    def test_no_room_left_drops_the_unit(self):
        inst = self._instance()
        decisions = (
            CrossLayerDecision(0.0, 0.09, 10.0),  # eats unit 2's whole window
            CrossLayerDecision(0.02, 0.05, 10.0),
        )
        out, _ = recover_primal(inst, decisions, MODEL)
        assert out[1].payload == 0.0
        assert out[1].start == out[1].end == inst.units[1].deadline


def _fifo_ok(decisions):
    return all(
        b.start >= a.end - 1e-9 for a, b in zip(decisions, decisions[1:])
    )


class TestSolveIndependent:
    def test_single_unit_slack_budget(self):
        inst = generate_trace(TraceParams(seed=1, num_dus=1, budget=1e6))
        rep = solve_independent(inst, MODEL)
        u = inst.units[0]
        assert rep.decisions[0] == CrossLayerDecision(u.ready, u.deadline, u.size)
        assert rep.price == 0.0
        assert rep.gap <= 1e-12
        assert rep.trajectory[0].gap <= 1e-12
        assert rep.converged

    def test_empty_instance(self):
        rep = solve_independent(Instance(units=(), budget=1.0), MODEL)
        assert rep.decisions == ()
        assert rep.primal_value == 0.0

    def test_report_invariants_on_a_busy_trace(self):
        inst = generate_trace(TraceParams(seed=7, num_dus=6, budget=2.0))
        rep = solve_independent(inst, MODEL, max_outer=400)
        assert rep.dual_value <= rep.primal_value + 1e-9
        assert rep.price >= 0.0
        assert all(h >= 0.0 for h in rep.handoff_prices)
        assert all(r.price >= 0.0 for r in rep.trajectory)
        assert _fifo_ok(rep.decisions)
        assert average_energy(inst, rep.decisions, MODEL) <= inst.budget + 1e-6
        for u, d in zip(inst.units, rep.decisions):
            assert u.ready - 1e-9 <= d.start <= d.end <= u.deadline + 1e-9
            assert 0.0 <= d.payload <= u.size + 1e-9

    def test_gap_tol_stops_early(self):
        inst = generate_trace(TraceParams(seed=7, num_dus=6, budget=2.0))
        rep = solve_independent(inst, MODEL, gap_tol=0.10)
        assert rep.gap <= 0.10
        assert rep.converged


class TestSolveInterdependent:
    def _chain_instance(self, n=4, seed=5, budget=2.0):
        inst = generate_trace(TraceParams(seed=seed, num_dus=n, budget=budget))
        graph = DependencyGraph(n, tuple((i, i - 1) for i in range(2, n + 1)))
        return Instance(units=inst.units, budget=inst.budget, graph=graph)

    def test_requires_a_graph(self):
        inst = generate_trace(TraceParams(seed=1, num_dus=2))
        with pytest.raises(ValueError):
            solve_interdependent(inst, MODEL)

    def test_edgeless_graph_reduces_to_independent(self):
        inst = generate_trace(TraceParams(seed=3, num_dus=5, budget=2.0))
        rep_flat = solve_independent(inst, MODEL)
        coupled = Instance(units=inst.units, budget=inst.budget,
                           graph=DependencyGraph(5, ()))
        rep_dag = solve_interdependent(coupled, MODEL)
        assert rep_dag.primal_value == pytest.approx(rep_flat.primal_value, rel=1e-9)
        for a, b in zip(rep_flat.decisions, rep_dag.decisions):
            assert a.start == pytest.approx(b.start, abs=1e-9)
            assert a.end == pytest.approx(b.end, abs=1e-9)
            assert a.payload == pytest.approx(b.payload, abs=1e-9)

    def test_sweeps_never_increase_the_relaxed_objective(self):
        inst = self._chain_instance()
        log: list = []
        solve_interdependent(inst, MODEL, max_outer=40, sweep_log=log)
        assert log
        by_outer: dict = {}
        for outer_k, sweep, value in log:
            by_outer.setdefault(outer_k, []).append((sweep, value))
        for outer_k, entries in by_outer.items():
            entries.sort()
            values = [v for _, v in entries]
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-9

    def test_report_invariants_with_graph(self):
        inst = self._chain_instance()
        rep = solve_interdependent(inst, MODEL, max_outer=300)
        assert rep.dual_value <= rep.primal_value + 1e-9
        assert rep.price >= 0.0 and all(h >= 0.0 for h in rep.handoff_prices)
        assert _fifo_ok(rep.decisions)
        assert average_energy(inst, rep.decisions, MODEL) <= inst.budget + 1e-6
        inner = [r.inner_iterations for r in rep.trajectory]
        assert float(np.median(inner)) <= 10.0


class TestDecisionGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionGrid(time_step=0.0, action_points=21)
        with pytest.raises(ValueError):
            DecisionGrid(time_step=0.01, action_points=1)

    def test_options_live_on_the_lattice(self):
        grid = DecisionGrid(time_step=0.01, action_points=21)
        unit = _unit()
        starts, ends, payloads, loss, cost = grid.options(unit, MODEL)
        assert len(starts) > 0
        step = grid.action_step(unit)
        assert step == pytest.approx(unit.size / 20.0)
        for x, y, a, w in zip(starts, ends, payloads, cost):
            assert unit.ready - 1e-12 <= x <= y <= unit.deadline + 1e-12
            assert 0.0 - 1e-12 <= a <= unit.size + 1e-12
            assert abs((x - unit.ready) / grid.time_step - round((x - unit.ready) / grid.time_step)) < 1e-6
            assert abs(a / step - round(a / step)) < 1e-6
            assert math.isfinite(w)

    def test_no_end_lies_past_the_deadline(self):
        # ready + 3 * 0.1 is 0.30000000000000004, one ulp past the deadline
        unit = _unit(ready=0.0, deadline=0.3)
        starts, ends = DecisionGrid(time_step=0.1, action_points=3).options(unit, MODEL)[:2]
        assert ends.max() == unit.deadline
        assert (starts <= ends).all() and (ends <= unit.deadline).all()

    @pytest.mark.parametrize("time_step,unit", [
        (0.1, _unit(ready=0.0, deadline=0.3)),
        (0.01, _unit(ready=0.013, deadline=0.061, channel=0.7)),
        (0.01, _unit(ready=1.0, deadline=1.05, size=40.0)),
    ])
    def test_options_follow_the_scalar_triple_loop(self, time_step, unit):
        grid = DecisionGrid(time_step=time_step, action_points=6)
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=5.0))
        n_steps = int(math.floor((unit.deadline - unit.ready) / time_step + 1e-9))
        times = [min(unit.ready + time_step * k, unit.deadline) for k in range(n_steps + 1)]
        rows = []
        for xi, x in enumerate(times):
            for y in times[xi:]:
                for a in np.linspace(0.0, unit.size, 6):
                    w = model.cost(unit, x, y, a)
                    if math.isfinite(w) and w <= 5.0 + 1e-12:
                        rows.append((x, y, a, model.loss(unit, x, y, a), w))
        got = grid.options(unit, model)
        assert len(got[0]) < len(times) * (len(times) + 1) // 2 * 6  # the cap binds
        for column, ref in zip(got, zip(*rows)):
            assert column.tolist() == list(ref)

    def test_grid_solve_stays_on_lattice_and_dominates_nothing_below_oracle(self):
        from xlsched import brute_force

        inst = generate_trace(TraceParams(seed=2, num_dus=2, budget=2.0))
        grid = DecisionGrid(time_step=0.01, action_points=21)
        rep = solve_independent(inst, MODEL, grid=grid)
        for u, d in zip(inst.units, rep.decisions):
            k = (d.start - u.ready) / grid.time_step
            assert abs(k - round(k)) < 1e-6
            j = d.payload / grid.action_step(u)
            assert abs(j - round(j)) < 1e-6
        oracle = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        # exhaustive optimum can never sit above a feasible lattice schedule
        assert oracle.value <= rep.primal_value + 1e-9


class TestSharedDualLoop:
    """Both solvers run one outer loop; only their relaxed step differs."""

    @staticmethod
    def _instance(n, chain):
        inst = generate_trace(TraceParams(seed=4, num_dus=n, budget=2.0))
        graph = DependencyGraph(n, tuple((i, i - 1) for i in range(2, n + 1))) if chain else None
        return Instance(units=inst.units, budget=inst.budget, graph=graph)

    @pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])
    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_trajectory_has_one_row_per_outer_iteration(self, solver, lattice):
        inst = self._instance(3 if lattice else 5, chain=solver is solve_interdependent)
        grid = DecisionGrid(time_step=0.01, action_points=11) if lattice else None
        rep = solver(inst, MODEL, max_outer=30, grid=grid)
        assert [r.k for r in rep.trajectory] == list(range(1, rep.outer_iterations + 1))

    def test_independent_rows_take_one_sweep(self):
        rep = solve_independent(self._instance(5, chain=False), MODEL, max_outer=25)
        assert rep.trajectory
        assert all(r.inner_iterations == 1 for r in rep.trajectory)
        assert rep.inner_iterations == rep.outer_iterations

    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_rejects_max_outer_below_one(self, solver):
        with pytest.raises(ValueError, match="max_outer"):
            solver(self._instance(5, chain=True), MODEL, max_outer=0)

    def test_rejects_max_inner_below_one(self):
        with pytest.raises(ValueError, match="max_inner"):
            solve_interdependent(self._instance(5, chain=True), MODEL, max_inner=0)

    @pytest.mark.parametrize("name,value", [
        ("alpha0", math.nan), ("alpha0", math.inf), ("alpha0", 0.0),
        ("beta0", math.nan), ("beta0", math.inf), ("beta0", -1.0),
        ("epsilon", math.nan), ("epsilon", -1e-3),
        ("gap_tol", math.nan), ("gap_tol", -0.1),
    ])
    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_rejects_bad_solver_constant_at_entry(self, solver, name, value, fail_fast):
        # alpha0=nan used to run every outer iteration and report price nan
        with pytest.raises(ValueError, match=name):
            solver(self._instance(4, chain=True), MODEL, max_outer=5, **{name: value})

    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    def test_rejects_bad_inner_epsilon_at_entry(self, value, fail_fast):
        with pytest.raises(ValueError, match="inner_epsilon"):
            solve_interdependent(self._instance(4, chain=True), MODEL, max_outer=5, inner_epsilon=value)

    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_accepts_zero_tolerances(self, solver):
        rep = solver(self._instance(4, chain=True), MODEL, max_outer=3, epsilon=0.0, gap_tol=0.0)
        assert 1 <= rep.outer_iterations <= 3

    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_rejects_invalid_instance_at_entry(self, solver, fail_fast):
        # a NaN ready time once sent the window search into an endless root-find
        inst = self._instance(4, chain=True)
        units = list(inst.units)
        units[1] = dataclasses.replace(units[1], ready=math.nan)
        bad = Instance(units=tuple(units), budget=inst.budget, graph=inst.graph)
        with pytest.raises(ValueError, match=r"invalid instance: ready time nan .* \(unit 2\)"):
            solver(bad, MODEL, max_outer=5)
