"""Offline dual machinery: subgradient steps, per-unit solves, recovery."""

import dataclasses
import math
from collections import Counter
import warnings

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
    generate_dag,
    generate_trace,
    handoff_update,
    instance_distortion,
    price_update,
    recover_primal,
    report_to_csv,
    solve_independent,
    solve_interdependent,
    upper_optimization,
)
from xlsched import offline
from xlsched.offline import _dag_coeffs, _largest_scale, _ScheduleValues
from xlsched.search import golden_section

from test_lattice_kernels import _weight

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
        a = MODEL.window_fn(_unit(), 100.0 / 4, 0.0)(0.05)[0]
        assert a == _unit().size

    def test_degenerate_window(self):
        a, f = MODEL.window_fn(_unit(), 100.0 / 4, 1.0 / 4)(0.0)[:2]
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
        a, val = MODEL.window_fn(unit, unit.impact / m, lam / m)(tau)[:2]
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

    @pytest.mark.parametrize("budget", [math.nan, 0.0, -0.0, -1.0, -math.inf])
    def test_bad_budget_is_rejected(self, budget):
        # NaN skipped the rescale and returned the unscaled payloads, -1 zeroed
        # every payload after 80 halvings and 0 left payloads of 2e-16
        base = generate_trace(TraceParams(seed=1, num_dus=10))
        decisions = [CrossLayerDecision(u.ready, u.deadline, u.size) for u in base.units]
        with pytest.raises(ValueError, match="budget must be positive"):
            recover_primal(Instance(base.units, budget), decisions, MODEL)


def reference_rescale(usage, budget):
    """The halving loop that found recover_primal's budget scale before
    Brent's zero-in. Returns the scale and whether the bracket ended at
    adjacent floats rather than at the 80-halving cap."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, True
        if usage(mid) > budget:
            hi = mid
        else:
            lo = mid
    return lo, False


def _usage(inst, decisions, model=MODEL):
    """recover_primal's average energy at one common payload scale."""
    m = inst.num_units
    return lambda scale: sum(
        model.cost(u, d.start, d.end, scale * d.payload) for u, d in zip(inst.units, decisions)
    ) / m


def _rescale_case(seed):
    """A random instance and decisions that recovery passes through untouched:
    FIFO windows inside [ready, deadline], random payload fractions, a fixed
    or random channel and a budget log-uniform in [1e-6, 1e3]."""
    rng = np.random.default_rng(seed)
    channel = "fixed:1.0" if seed % 2 else "uniform:0.2,2.0"
    base = generate_trace(TraceParams(seed=seed, num_dus=int(rng.integers(1, 9)), channel=channel))
    decisions, prev_end = [], -math.inf
    for u in base.units:
        start = max(u.ready, prev_end)
        if start >= u.deadline:
            decisions.append(CrossLayerDecision(u.deadline, u.deadline, 0.0))
        else:
            end = min(start + rng.uniform(0.02, 1.0) * (u.deadline - start), u.deadline)
            decisions.append(CrossLayerDecision(start, end, rng.uniform(0.0, 1.0) * u.size))
        prev_end = decisions[-1].end
    return Instance(base.units, float(10.0 ** rng.uniform(-6.0, 3.0))), tuple(decisions)


class _CountingModel:
    """The default model, counting its ``cost`` calls."""

    def __init__(self):
        self.costs = 0

    def loss(self, *args):
        return MODEL.loss(*args)

    def cost(self, *args):
        self.costs += 1
        return MODEL.cost(*args)

    def window_fn(self, *args):
        return MODEL.window_fn(*args)

    def window_vec(self, *args):
        return MODEL.window_vec(*args)


class TestBudgetRescale:
    """recover_primal's common payload scale: the largest float that fits."""

    CASES = [_rescale_case(seed) for seed in range(240)]

    @staticmethod
    def _fits(usage, budget, scale):
        return usage(scale) <= budget < usage(math.nextafter(scale, 1.0))

    def test_matches_the_halving_loop(self):
        rescaled = 0
        for inst, decisions in self.CASES:
            usage = _usage(inst, decisions)
            full = usage(1.0)
            out, _ = recover_primal(inst, decisions, MODEL)
            if full <= inst.budget:
                assert out == decisions
                continue
            rescaled += 1
            scale = _largest_scale(usage, inst.budget, full)
            ref, adjacent = reference_rescale(usage, inst.budget)
            if adjacent:
                assert repr(scale) == repr(ref)
                assert repr(out) == repr(tuple(
                    CrossLayerDecision(d.start, d.end, ref * d.payload) for d in decisions
                ))
            assert scale >= ref
            assert self._fits(usage, inst.budget, scale)
        assert rescaled >= 100

    def test_passes_per_rescale(self):
        # the halving loop valued the usage 55 times on nearly every rescale,
        # and 81 times where it stopped at its cap
        base = generate_trace(TraceParams(seed=1, num_dus=10))
        full_window = tuple(CrossLayerDecision(u.ready, u.deadline, u.size) for u in base.units)
        recovered, _ = recover_primal(Instance(base.units, math.inf), full_window, MODEL)
        cases = list(self.CASES)
        cases += [(Instance(base.units, b), recovered) for b in (1e-3, 1e-9, 1e-300, 5e-324)]
        passes, reference_passes = [], []
        for inst, decisions in cases:
            usage = _usage(inst, decisions)
            if usage(1.0) <= inst.budget:
                continue
            model = _CountingModel()
            recover_primal(inst, decisions, model)
            passes.append(model.costs / inst.num_units)
            calls = []
            reference_rescale(lambda s: calls.append(s) or usage(s), inst.budget)
            reference_passes.append(1 + len(calls))
        assert max(passes) <= 81
        assert sum(passes) <= 0.5 * sum(reference_passes)

    def test_passes_per_rescale_in_a_dual_solve(self, monkeypatch):
        # the scales of a dual solve sit near 1, where Brent needs few values
        passes = []

        def counted(usage, budget, full):
            calls = []
            scale = _largest_scale(lambda s: calls.append(s) or usage(s), budget, full)
            passes.append(1 + len(calls))
            return scale

        monkeypatch.setattr(offline, "_largest_scale", counted)
        for seed in (1, 2, 3):
            inst = generate_trace(TraceParams(seed=seed, num_dus=10))
            dag = Instance(inst.units, inst.budget, generate_dag("random", 10, 10, seed, 0.5))
            solve_independent(inst, MODEL, max_outer=60)
            solve_interdependent(dag, MODEL, max_outer=60, max_inner=3)
        assert len(passes) >= 100
        assert max(passes) <= 81
        assert sum(passes) / len(passes) <= 12

    @pytest.mark.parametrize("budget", [1e-9, 1e-300])
    def test_tiny_budget_gets_the_largest_scale_that_fits(self, budget):
        # here the halving loop stopped at its cap before reaching adjacent
        # floats, 1.5846085560033137e-09 against 1.584608556003315e-09 at 1e-9
        base = generate_trace(TraceParams(seed=1, num_dus=10))
        full_window = tuple(CrossLayerDecision(u.ready, u.deadline, u.size) for u in base.units)
        decisions, _ = recover_primal(Instance(base.units, math.inf), full_window, MODEL)
        usage = _usage(base, decisions)
        scale = _largest_scale(usage, budget, usage(1.0))
        ref, adjacent = reference_rescale(usage, budget)
        assert not adjacent
        assert scale >= ref
        assert self._fits(usage, budget, scale)

    @pytest.mark.parametrize("steps", [1, 7, 5000])
    def test_flat_and_stepped_usage(self, steps, fail_fast):
        # a staircase usage, flat over many floats, and one that is constant
        # above its first step: the largest scale still sits at a riser
        usage = lambda s: math.floor(s * steps) / steps  # noqa: E731
        for budget in (0.3, 0.5 / steps):
            assert self._fits(usage, budget, _largest_scale(usage, budget, 1.0))
        plateau = lambda s: 0.0 if s < 3e-200 else 1e300  # noqa: E731
        calls = []
        scale = _largest_scale(lambda s: calls.append(s) or plateau(s), 1.0, 1e300)
        assert scale == math.nextafter(3e-200, 0.0)
        assert len(calls) <= 80


class TestDecisionCount:
    """The public evaluators take exactly one decision per unit."""

    INST = generate_trace(TraceParams(seed=3, num_dus=5))

    @pytest.mark.parametrize("count", [0, 3, 4, 6])
    @pytest.mark.parametrize(
        "evaluate",
        [average_energy, instance_distortion, recover_primal],
        ids=["average_energy", "instance_distortion", "recover_primal"],
    )
    def test_wrong_count_raises(self, evaluate, count):
        decisions = [CrossLayerDecision(u.ready, u.deadline, 0.5 * u.size) for u in self.INST.units]
        decisions = (decisions * 2)[:count]
        with pytest.raises(ValueError, match=f"got {count} decisions for 5 units"):
            evaluate(self.INST, decisions, MODEL)

    def test_empty_instance_takes_no_decisions(self):
        empty = Instance(units=(), budget=1.0)
        assert recover_primal(empty, (), MODEL) == ((), 0.0)
        with pytest.raises(ValueError, match="got 1 decisions for 0 units"):
            recover_primal(empty, (CrossLayerDecision(0.0, 0.1, 1.0),), MODEL)


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

    @pytest.mark.parametrize("grid", [None, DecisionGrid(0.01, 21)])
    def test_a_graph_changes_nothing(self, grid):
        base = generate_trace(TraceParams(seed=7, num_dus=6, budget=2.0))
        inst = Instance(base.units, base.budget, generate_dag("random", 6, 6, seed=7, edge_prob=0.6))
        assert inst.graph is not None
        with_graph = solve_independent(inst, MODEL, max_outer=25, grid=grid)
        assert repr(with_graph) == repr(solve_independent(base, MODEL, max_outer=25, grid=grid))


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


def test_handoff_norm_equals_numpys():
    # the trajectory row's norm of the handoff prices and the stop test's
    # norm of their step, for 0-12 prices: subnormal, tiny, huge (squares
    # that overflow, where numpy's dot warns) and infinite entries among
    # random magnitudes
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, 5e-324, 2.2e-308, 1e-170, 1e154, 1.5e154, 1e300, 1.7e308, math.inf]
    with np.errstate(over="ignore"):
        for n in range(13):
            for _ in range(300):
                picks = [special[j] if j < len(special) else float(rng.uniform(0.0, 10.0) * 10.0 ** rng.integers(-9, 9))
                         for j in rng.integers(0, 2 * len(special), n).tolist()]
                assert offline._handoff_norm(tuple(picks)).hex() == float(np.linalg.norm(picks)).hex()
                finite = [x for x in picks if x < math.inf]
                old = [float(x) for x in rng.uniform(0.0, 10.0, len(finite))]
                step = [a - b for a, b in zip(finite, old)]
                assert offline._handoff_norm(step).hex() == float(np.linalg.norm(np.subtract(finite, old))).hex()


def reference_recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, memo, seen=None):
    """``offline._recover_primal_grid`` before it took the relaxed step's
    values: it values the units it keeps by scalar model calls, on a graph
    from the first repair on and otherwise after a memo miss. It forms every
    term and mask, zero weight or infinite bound alike. ``seen``, if given,
    counts the drops and the repairs and descent steps that meet a zero
    weight."""
    m = inst.num_units
    out, values = list(decisions), None
    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor - offline._TINY and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if values is None and inst.graph is not None:
            values = _ScheduleValues(inst.units, inst.graph, out, model)
        starts, ends, payloads, loss, cost = opts[pos - 1]
        feas = starts >= floor - offline._TINY
        if not feas.any():
            if seen is not None:
                seen["drop"] += 1
            fixed = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0)
        else:
            hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
            a_surv, s_weight = (1.0, 0.0) if values is None else _dag_coeffs(pos, values)
            if seen is not None:
                seen["repair, zero next handoff price"] += hn == 0.0
                seen["repair, zero descendant weight"] += s_weight == 0.0
                seen["repair, zero price"] += price == 0.0
            vals = (unit.impact * a_surv * loss + s_weight * loss + price * cost) / m + hn * ends
            vals = np.where(feas, vals, math.inf)
            j = int(np.argmin(vals))
            fixed = CrossLayerDecision(float(starts[j]), float(ends[j]), float(payloads[j]))
        out[pos - 1] = fixed
        if values is not None:
            values.set(pos, fixed)
        prev_end = max(prev_end, fixed.end)
    repaired = tuple(out)
    if repaired in memo:
        return memo[repaired]
    if values is None:
        values = _ScheduleValues(inst.units, inst.graph, out, model)
    out = values.decisions

    # budget restoration in whole action steps, largest spender first
    for _ in range(m * grid.action_points):
        costs = values.cost[1:]
        if sum(costs) / m <= inst.budget + offline._TINY:
            break
        i = max(range(m), key=lambda k: costs[k])
        d = out[i]
        step = grid.action_step(inst.units[i])
        values.set(i + 1, CrossLayerDecision(d.start, d.end, max(d.payload - step, 0.0)))

    # local descent on the true objective: each unit re-picks its lattice
    # option between the other units' boundaries while the budget allows; the
    # varying dual iterates feeding this sweep supply diverse starting points
    budget_total = inst.budget * m
    for _ in range(8 * m):
        improved = False
        for i in range(m):
            unit = inst.units[i]
            starts, ends, payloads, loss, cost = opts[i]
            lo = max((d.end for d in out[:i]), default=-math.inf)
            hi = min((d.start for d in out[i + 1 :]), default=math.inf)
            spent_elsewhere = sum(values.cost[1 : i + 1] + values.cost[i + 2 :])
            a_surv, s_weight = (1.0, 0.0) if inst.graph is None else _dag_coeffs(i + 1, values)
            if seen is not None:
                seen["descent, zero descendant weight"] += s_weight == 0.0
                seen["descent, infinite bound"] += lo == -math.inf or hi == math.inf
            score = unit.impact * a_surv * loss + s_weight * loss
            feas = (
                (starts >= lo - offline._TINY)
                & (ends <= hi + offline._TINY)
                & (cost <= budget_total - spent_elsewhere + offline._TINY)
            )
            if not feas.any():
                continue
            j = int(np.argmin(np.where(feas, score, math.inf)))
            cur = unit.impact * a_surv * values.loss[i + 1] + s_weight * values.loss[i + 1]
            if score[j] < cur - 1e-12:
                values.set(i + 1, CrossLayerDecision(float(starts[j]), float(ends[j]), float(payloads[j])))
                improved = True
        if not improved:
            break

    memo[repaired] = tuple(out), values.distortion()
    return memo[repaired]


def _measured(inst, decisions):
    """The model's (losses, energies) of ``decisions``."""
    pairs = [(MODEL.loss(u, d.start, d.end, d.payload), MODEL.cost(u, d.start, d.end, d.payload))
             for u, d in zip(inst.units, decisions)]
    return tuple(map(tuple, zip(*pairs)))


class TestDecisionGrid:
    BAD = [
        ("time_step", 0.0, 21), ("time_step", -0.01, 21), ("time_step", math.nan, 21),
        ("time_step", math.inf, 21), ("action_points", 0.01, 1), ("action_points", 0.01, 2.5),
        ("action_points", 0.01, 21.0), ("action_points", 0.01, True),
        ("action_points", 0.01, np.float64(21.0)), ("action_points", 0.01, "21"),
    ]

    def test_validation(self):
        # a NaN step used to fail inside options, an infinite one as a grid-
        # infeasible budget, and 2.5 points with a TypeError from np.linspace
        for field, time_step, action_points in self.BAD:
            with pytest.raises(ValueError, match=field):
                DecisionGrid(time_step=time_step, action_points=action_points)

    @pytest.mark.parametrize("action_points", [2, np.int64(21), np.int32(3)])
    def test_accepts_integer_points(self, action_points):
        assert DecisionGrid(time_step=0.01, action_points=action_points).action_points == action_points

    @pytest.mark.parametrize("field,time_step,action_points", BAD[2:6])
    def test_solvers_and_oracle_pass_the_error_through(self, field, time_step, action_points):
        from xlsched import brute_force

        inst = generate_trace(TraceParams(seed=2, num_dus=2, budget=2.0))
        with pytest.raises(ValueError, match=field):
            brute_force(inst, MODEL, time_step=time_step, action_points=action_points)
        for solver in (solve_independent, solve_interdependent):
            with pytest.raises(ValueError, match=field):
                solver(inst, MODEL, max_outer=5, grid=DecisionGrid(time_step, action_points))

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

    @pytest.mark.parametrize("time_step,unit", [
        (0.1, _unit(ready=0.0, deadline=0.3)),
        (0.01, _unit(ready=0.013, deadline=0.061, channel=0.7)),
        (0.01, _unit(ready=1.0, deadline=1.05, size=40.0)),
        (0.003, _unit(ready=0.7, deadline=0.79)),
    ])
    def test_options_value_each_window_length_once(self, time_step, unit):
        grid = DecisionGrid(time_step=time_step, action_points=6)
        model = _CountingModel()
        got = grid.options(unit, model)
        n_steps = int(math.floor((unit.deadline - unit.ready) / time_step + 1e-9))
        times = np.minimum(unit.ready + time_step * np.arange(n_steps + 1), unit.deadline)
        xi, yi = np.triu_indices(len(times))
        lengths = len(set((times[yi] - times[xi]).tolist()))
        assert lengths < len(xi)
        assert len(got[0]) > 0
        assert model.costs <= lengths * grid.action_points

    @pytest.mark.parametrize("time_step,action_points,rows", [
        # 50 001 time points on a 50 ms lifetime: 1.25e9 windows
        (1e-6, 21, None),
        # 21 windows times ten million payloads
        (0.01, 10_000_000, 21 * 10_000_000),
        # the time points overflow a float
        (1e-320, 2, math.inf),
    ])
    @pytest.mark.usefixtures("no_table_arrays")
    def test_oversized_table_is_refused_before_any_array(self, time_step, action_points, rows):
        unit = _unit(index=7, ready=0.0, deadline=0.05)
        if rows is None:
            n = int(math.floor(0.05 / time_step + 1e-9)) + 1
            rows = n * (n + 1) // 2 * action_points
        with pytest.raises(ValueError) as err:
            DecisionGrid(time_step, action_points).options(unit, MODEL)
        message = str(err.value)
        assert message.startswith("unit 7:") and f" {rows} option rows" in message
        assert f"limit of {offline._MAX_OPTION_ROWS}" in message

    def test_the_row_limit_is_inclusive(self, monkeypatch):
        # 21 windows on a 50 ms lifetime at 10 ms: 441 rows at 21 action points
        unit = _unit(deadline=0.05)
        monkeypatch.setattr(offline, "_MAX_OPTION_ROWS", 441)
        assert len(DecisionGrid(0.01, 21).options(unit, MODEL)[0]) > 0
        with pytest.raises(ValueError, match="462 option rows"):
            DecisionGrid(0.01, 22).options(unit, MODEL)

    def test_solvers_and_oracle_refuse_an_oversized_table(self, no_table_arrays):
        from xlsched import brute_force

        base = generate_trace(TraceParams(seed=2, num_dus=2, budget=2.0))
        inst = Instance(base.units, base.budget, DependencyGraph(2, ((2, 1),)))
        with pytest.raises(ValueError, match="unit 1: .* option rows"):
            brute_force(inst, MODEL, time_step=1e-6)
        for solver in (solve_independent, solve_interdependent):
            with pytest.raises(ValueError, match="unit 1: .* option rows"):
                solver(inst, MODEL, max_outer=5, grid=DecisionGrid(1e-6, 21))

    @pytest.mark.parametrize("chain", [False, True], ids=["independent", "chain"])
    def test_recovery_memo_skips_the_repeated_restoration_and_descent(self, chain):
        base = generate_trace(TraceParams(seed=3, num_dus=3, budget=2.0))
        graph = DependencyGraph(3, ((2, 1), (3, 2))) if chain else None
        inst = Instance(base.units, base.budget, graph)
        grid = DecisionGrid(time_step=0.01, action_points=21)
        opts = [grid.options(u, MODEL) for u in inst.units]
        # FIFO already holds, so the repair sweep keeps these decisions
        decisions = tuple(CrossLayerDecision(u.ready, u.ready, 0.0) for u in inst.units)
        measured = _measured(inst, decisions)
        memo, costs, got = {}, [], []
        for price, handoffs in ((0.5, [0.0, 0.0]), (3.0, [1.0, 2.0])):
            ref = reference_recover_primal_grid(inst, decisions, opts, grid, MODEL, price, handoffs, {})
            model = _CountingModel()
            got.append(offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs,
                                                    measured, memo))
            assert repr(got[-1]) == repr(ref)
            costs.append(model.costs)
        assert len(memo) == 1
        # the second call returns the first one's result from the memo; the
        # schedule's values come from the caller and the option rows
        assert got[1] is got[0]
        assert costs == [0, 0]

    @pytest.mark.parametrize("chain", [False, True], ids=["independent", "chain"])
    def test_recovery_memo_after_a_repair(self, chain):
        base = generate_trace(TraceParams(seed=3, num_dus=3, budget=2.0))
        graph = DependencyGraph(3, ((2, 1), (3, 2))) if chain else None
        inst = Instance(base.units, base.budget, graph)
        grid = DecisionGrid(time_step=0.01, action_points=21)
        opts = [grid.options(u, MODEL) for u in inst.units]
        # every window runs to the deadline, so the later units are repaired;
        # on the chain the repairs read the schedule's values
        decisions = tuple(CrossLayerDecision(u.ready, u.deadline, 0.5 * u.size) for u in inst.units)
        measured = _measured(inst, decisions)
        memo, costs = {}, []
        for price, handoffs in ((0.5, [0.0, 0.0]), (0.5, [0.0, 0.0])):
            ref = reference_recover_primal_grid(inst, decisions, opts, grid, MODEL, price, handoffs, {})
            model = _CountingModel()
            got = offline._recover_primal_grid(inst, decisions, opts, grid, model, price, handoffs, measured, memo)
            assert repr(got) == repr(ref)
            costs.append(model.costs)
        assert len(memo) == 1
        # a memo hit makes no model call, with or without the chain
        assert costs[1] == 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("chain", [False, True], ids=["graph-free", "chain"])
    def test_recovery_matches_the_reference_on_random_cells(self, m, chain, monkeypatch):
        # random lattice rows on crowded traces of m units with random
        # lifetimes, handed over with the values of their option rows as a
        # relaxed lattice step hands them; the model values drops and shaves.
        # Prices and handoff prices are often 0 or -0.0 (a projected step
        # gives either), so the recovery skips their terms. The reference
        # counts the drops: on a chain the recovery values a drop where it
        # makes it, since the later repairs read its loss
        kinds, seen, set_ = Counter(), Counter(), _ScheduleValues.set

        def counted_set(values, i, dec, measured=None):
            dropped = dec.payload == 0.0 and dec.start == dec.end == values.units[i - 1].deadline
            kinds["shave"] += measured is None and not dropped
            return set_(values, i, dec, measured)

        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = generate_trace(TraceParams(seed=seed, num_dus=m, budget=float(rng.uniform(1.0, 10.0)),
                                              mean_interarrival=float(rng.uniform(0.002, 0.05))))
            graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1))) if chain else None
            # lifetimes of 5-50 ms: a short one after a long one can be squeezed out
            units = tuple(dataclasses.replace(u, deadline=u.ready + float(rng.uniform(0.005, 0.05)))
                          for u in base.units)
            inst = Instance(units, base.budget, graph)
            grid = DecisionGrid(time_step=0.01, action_points=21)
            opts = [grid.options(u, MODEL) for u in inst.units]
            rows = [int(rng.integers(len(o[0]))) for o in opts]
            decisions = tuple(CrossLayerDecision(float(o[0][j]), float(o[1][j]), float(o[2][j]))
                              for o, j in zip(opts, rows))
            measured = tuple(map(tuple, zip(*((float(o[3][j]), float(o[4][j])) for o, j in zip(opts, rows)))))
            assert measured == _measured(inst, decisions)
            kinds["repair"] += not _fifo_ok(decisions)
            price, handoffs = _weight(rng, 5.0), [_weight(rng, 1.0, signed=True) for _ in range(m - 1)]
            ref = reference_recover_primal_grid(inst, decisions, opts, grid, MODEL, price, handoffs, {}, seen)
            with monkeypatch.context() as patch:
                patch.setattr(_ScheduleValues, "set", counted_set)
                got = offline._recover_primal_grid(inst, decisions, opts, grid, MODEL, price, handoffs,
                                                   measured, {})
            assert repr(got) == repr(ref)
        assert min(kinds[k] for k in ("repair", "shave")) > 0
        # the reference walks the same drops, repairs and descent steps
        assert len(seen) == 6 and min(seen.values()) > 0

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
        ("max_outer", 2.5), ("max_outer", True), ("max_outer", 3.0), ("max_outer", "3"),
        ("max_inner", 2.5), ("max_inner", True),
    ])
    def test_rejects_an_iteration_cap_that_is_not_an_integer(self, name, value, fail_fast):
        # 2.5 once failed with a TypeError from range, and True ran one iteration
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            solve_interdependent(self._instance(4, chain=True), MODEL, **{name: value})
        if name == "max_outer":
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                solve_independent(self._instance(4, chain=True), MODEL, max_outer=value)

    @pytest.mark.parametrize("value", [np.int64(3), np.int32(2)])
    def test_accepts_a_numpy_integer_cap(self, value):
        rep = solve_independent(self._instance(4, chain=True), MODEL, max_outer=value)
        assert 1 <= rep.outer_iterations <= value

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


class TestReportValues:
    @staticmethod
    def _chain(n, seed=1):
        inst = generate_trace(TraceParams(seed=seed, num_dus=n))
        graph = DependencyGraph(n, tuple((i, i - 1) for i in range(2, n + 1)))
        return Instance(units=inst.units, budget=inst.budget, graph=graph)

    @pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])
    @pytest.mark.parametrize("solver", [solve_independent, solve_interdependent])
    def test_reports_hold_plain_floats(self, solver, lattice, tmp_path):
        # numpy scalars from the handoff prices once reached the report and
        # the CSV as np.float64(...)
        grid = DecisionGrid(time_step=0.01, action_points=21) if lattice else None
        rep = solver(self._chain(6), MODEL, max_outer=3, grid=grid)
        values = [rep.dual_value, rep.primal_value, rep.gap, rep.price, *rep.handoff_prices]
        for r in rep.trajectory:
            values += [r.dual_value, r.primal_value, r.gap, r.price, r.handoff_norm]
        assert all(type(v) is float for v in values)
        report_to_csv(rep, tmp_path / "trajectory.csv")
        assert "np." not in (tmp_path / "trajectory.csv").read_text()

    def test_unit_with_an_empty_window_warm_starts_with_nothing(self):
        # its full payload in a window of length 0 would cost infinite energy,
        # making the first relaxed Lagrangian 0 * inf at price 0
        inst = self._chain(4)
        units = list(inst.units)
        units[1] = dataclasses.replace(units[1], deadline=units[1].ready)
        inst = Instance(units=tuple(units), budget=inst.budget, graph=inst.graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_interdependent(inst, MODEL, max_outer=3)
        first = rep.trajectory[0]
        assert math.isfinite(first.dual_value) and math.isfinite(first.gap)
        assert first.inner_iterations < 50
