"""Online learner: value model, per-unit decisions, streams, full runs."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from xlsched import (
    CausalStream,
    DagKnowledge,
    DataUnit,
    DependencyGraph,
    Instance,
    LookaheadError,
    OnlineParams,
    ShannonExpModel,
    TraceParams,
    ValueModel,
    generate_dag,
    generate_trace,
    online_price_update,
    run_online,
    solve_online_unit,
    solve_online_unit_dag,
    state_transition,
    upper_optimization,
    value_update,
)
from xlsched import offline, online
from xlsched.offline import _ScheduleValues
from xlsched.online import POLICIES

from test_config import LEARNER_REFUSALS

MODEL = ShannonExpModel()


def _unit(index=1, ready=0.0, deadline=0.05, **kw):
    base = dict(impact=100.0, size=10.0, decay=0.5, channel=1.0)
    base.update(kw)
    return DataUnit(index=index, ready=ready, deadline=deadline, **base)


def _spaced_instance(n, budget=10.0, gap=1.0, lifetime=0.05):
    # consecutive windows can never overlap: deadline_i << ready_{i+1}
    units = tuple(
        _unit(i + 1, ready=i * gap, deadline=i * gap + lifetime,
              impact=80.0 + 7.0 * (i % 5), channel=0.8 + 0.1 * (i % 4))
        for i in range(n)
    )
    return Instance(units=units, budget=budget)


class TestStateTransition:
    def test_values(self):
        assert state_transition(5.0, 7.0) == 0.0
        assert state_transition(5.0, 5.0) == 0.0
        assert state_transition(7.0, 5.0) == 2.0

    def test_never_negative(self):
        for end, nxt in ((0.0, 1e9), (3.0, 3.0 + 1e-12), (-1.0, 0.0)):
            assert state_transition(end, nxt) >= 0.0


class TestValueModel:
    def test_zero_at_origin_for_any_coefficients(self):
        for coeffs in ((1.0,), (3.0, -2.0), (0.5, 0.5, 0.5)):
            assert ValueModel(coeffs=coeffs).value(0.0) == 0.0

    def test_two_features(self):
        vm = ValueModel(coeffs=(1.0, 1.0))
        # s + s^2/2 at s=2
        assert vm.value(2.0) == pytest.approx(4.0)

    def test_single_feature(self):
        assert ValueModel(coeffs=(3.0,)).value(0.5) == pytest.approx(1.5)

    def test_feature_factorials(self):
        vm = ValueModel.zero(4)
        s = 1.7
        feats = vm.features(s)
        assert feats == pytest.approx((s, s**2 / 2.0, s**3 / 6.0, s**4 / 24.0))

    def test_rejects_negative_state_and_empty_order(self):
        with pytest.raises(ValueError):
            ValueModel.zero(3).features(-0.1)
        with pytest.raises(ValueError):
            ValueModel.zero(0)


class TestValueUpdate:
    def test_zero_step_is_identity(self):
        vm = ValueModel(coeffs=(2.0, -1.0))
        assert value_update(vm, 0.0, 1.3, 7.0) is vm

    def test_normalized_step(self):
        vm = ValueModel(coeffs=(0.0,))
        out = value_update(vm, 0.5, 1.0, 4.0)
        assert out.coeffs == pytest.approx((0.5 * 4.0 / (1.0 + 1e-4),))

    def test_normalized_is_inert_at_origin(self):
        vm = ValueModel(coeffs=(2.0, 3.0))
        assert value_update(vm, 0.5, 0.0, 9.0) is vm

    def test_normalized_reaches_target_scale_fast(self):
        # repeated visits to the same state pin V there like a running average
        vm = ValueModel.zero(3)
        for i in range(1, 200):
            vm = value_update(vm, 0.5 / i**0.6, 2.0, 10.0)
        assert vm.value(2.0) == pytest.approx(10.0, rel=1e-2)

    def test_rejects_gamma_outside_the_unit_interval(self):
        vm = ValueModel.zero(2)
        with pytest.raises(ValueError):
            value_update(vm, 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            value_update(vm, -0.1, 1.0, 1.0)


class TestOnlinePriceUpdate:
    def test_values(self):
        assert online_price_update(0.5, 0.1, 12.0, 10.0) == pytest.approx(0.7)
        assert online_price_update(0.0, 0.1, 8.0, 10.0) == 0.0
        assert online_price_update(1.0, 0.37, 10.0, 10.0) == pytest.approx(1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            online_price_update(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            online_price_update(-0.5, 0.1, 1.0, 1.0)


class TestSchedules:
    def test_fast_and_slow_timescales(self):
        p = OnlineParams()
        assert p.gamma(1) == pytest.approx(0.5)
        assert p.gamma(32) == pytest.approx(0.5 / 32**0.6)
        assert p.kappa(10) == pytest.approx(p.kappa0 / 10.0)
        # price steps must vanish relative to value steps
        ratio = lambda i: p.kappa(i) / p.gamma(i)
        assert ratio(10**6) < 0.01 * ratio(1)

    def test_square_summability_numerically(self):
        p = OnlineParams()
        i = np.arange(1, 200_001, dtype=float)
        g = p.gamma0 / i**p.gamma_power
        head = float(np.sum(g[:100_000] ** 2))
        tail = float(np.sum(g[100_000:] ** 2))
        assert tail < 0.02 * head  # converging series
        assert float(np.sum(g[100_000:])) > 0.2 * float(np.sum(g[:100_000]))  # diverging sum


class TestSolveOnlineUnit:
    def test_zero_value_model_reduces_to_myopic_solve(self):
        rng = np.random.default_rng(11)
        vm = ValueModel.zero(3)
        for _ in range(20):
            d = float(rng.uniform(0.01, 0.08))
            unit = _unit(deadline=d, impact=float(rng.uniform(50, 150)),
                         channel=float(rng.uniform(0.5, 1.5)))
            lam = float(rng.uniform(0.1, 2.0))
            out = solve_online_unit(unit, 0.0, lam, vm, math.inf, MODEL)

            def f(y):
                a = MODEL.window_fn(unit, unit.impact, lam)(y)[0]
                return (unit.impact * MODEL.loss(unit, 0.0, y, a)
                        + lam * MODEL.cost(unit, 0.0, y, a))

            res = minimize_scalar(f, bounds=(1e-12, d), method="bounded",
                                  options={"xatol": 1e-12})
            ref = min(f(d), float(res.fun), unit.impact)
            assert out.objective >= ref - 1e-9
            assert out.objective <= ref + 1e-6 * (1.0 + abs(ref))
            # independent route to the same subproblem
            sol = upper_optimization(unit, lam, 0.0, 0.0, 1, MODEL)
            assert out.objective == pytest.approx(sol.objective, rel=1e-6)

    def test_increasing_value_model_ends_no_later(self):
        rng = np.random.default_rng(23)
        flat = ValueModel.zero(3)
        steep = ValueModel(coeffs=(200.0, 0.0, 0.0))
        for _ in range(100):
            d = float(rng.uniform(0.01, 0.08))
            unit = _unit(deadline=d, impact=float(rng.uniform(50, 150)),
                         channel=float(rng.uniform(0.5, 1.5)))
            t_next = float(rng.uniform(0.0, d))
            lam = float(rng.uniform(0.1, 2.0))
            y0 = solve_online_unit(unit, 0.0, lam, flat, t_next, MODEL).decision.end
            y1 = solve_online_unit(unit, 0.0, lam, steep, t_next, MODEL).decision.end
            # both searches share the coarse grid; refinement can move the
            # answer by at most a neighbor cell
            slack = 2.0 * d / 199.0
            assert y1 <= y0 + slack + 1e-12

    def test_backlog_past_deadline_drops(self):
        unit = _unit(deadline=0.05)
        out = solve_online_unit(unit, 0.06, 1.0, ValueModel.zero(3), math.inf, MODEL)
        assert out.dropped
        assert out.energy == 0.0
        assert out.decision.payload == 0.0
        assert out.decision.start == out.decision.end == unit.deadline
        assert out.loss == 1.0

    def test_backlog_shifts_the_start(self):
        unit = _unit(deadline=0.05)
        out = solve_online_unit(unit, 0.02, 1.0, ValueModel.zero(3), math.inf, MODEL)
        assert out.decision.start == pytest.approx(0.02)
        assert out.decision.end <= unit.deadline + 1e-12

    def test_rejects_negative_backlog(self):
        with pytest.raises(ValueError):
            solve_online_unit(_unit(), -0.01, 1.0, ValueModel.zero(3), math.inf, MODEL)


class TestSolveOnlineUnitDag:
    def _knowledge(self, graph, realized_err, lo=1, hi=5, impact=100.0):
        slots = graph.num_nodes + 1
        loss = [0.0] + list(realized_err) + [0.0] * (slots - 1 - len(realized_err))
        kept = [impact if lo <= j <= hi else 0.0 for j in range(slots)]
        return DagKnowledge(graph=graph, loss=loss, kept=kept)

    def test_edgeless_graph_matches_plain_solve(self):
        unit = _unit()
        know = self._knowledge(DependencyGraph(5, ()), [])
        a = solve_online_unit(unit, 0.0, 1.0, ValueModel.zero(3), math.inf, MODEL)
        b = solve_online_unit_dag(unit, 0.0, 1.0, ValueModel.zero(3), math.inf,
                                  know, MODEL)
        assert a.decision == b.decision
        assert a.objective == b.objective

    def test_descendants_raise_the_payload(self):
        unit = _unit()
        leaf = self._knowledge(DependencyGraph(5, ()), [])
        rich = self._knowledge(DependencyGraph(5, ((2, 1), (3, 1), (4, 1))), [])
        a_leaf = solve_online_unit_dag(unit, 0.0, 1.0, ValueModel.zero(3),
                                       math.inf, leaf, MODEL).decision.payload
        a_rich = solve_online_unit_dag(unit, 0.0, 1.0, ValueModel.zero(3),
                                       math.inf, rich, MODEL).decision.payload
        assert a_rich >= a_leaf - 1e-9

    def test_dead_ancestor_collapses_the_payload(self):
        unit = _unit(index=2)
        graph = DependencyGraph(5, ((2, 1),))
        payloads = []
        for err in (0.0, 0.5, 1.0):
            know = self._knowledge(graph, [err])
            out = solve_online_unit_dag(unit, 0.0, 1.0, ValueModel.zero(3),
                                        math.inf, know, MODEL)
            payloads.append(out.decision.payload)
        assert payloads[0] >= payloads[1] >= payloads[2]
        assert payloads[2] == 0.0  # nothing left to protect, energy only hurts


# each grid size by the module that holds it: the mdu cycle DP lives in offline
GRID_SIZES = {"_END_GRID": online, "_REFINE_POINTS": online, "_CYCLE_ENDS": offline}


@pytest.mark.parametrize("name", list(GRID_SIZES))
def test_readme_names_each_grid_size_with_its_value(name):
    # the grid sizes are constants, not config keys, so the README is where
    # a reader finds them
    module = GRID_SIZES[name]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    owner = module.__name__.rpartition(".")[2]
    assert f"`{owner}.{name}` = {getattr(module, name)}" in " ".join(readme.split())


class TestCausalStream:
    def _stream(self, n=12, **kw):
        return CausalStream(generate_trace(TraceParams(seed=5, num_dus=n)), **kw)

    def test_observation_order_is_enforced(self):
        s = self._stream()
        with pytest.raises(LookaheadError):
            s.observe(2)
        unit, t_next = s.observe(1)
        assert unit.index == 1
        assert t_next == s.instance.units[1].ready
        with pytest.raises(LookaheadError):
            s.observe(1)  # no rewinding either

    def test_last_unit_sees_no_next_arrival(self):
        s = self._stream(n=1)
        _, t_next = s.observe(1)
        assert t_next == math.inf

    def test_impact_hints_are_gated(self):
        closed = self._stream()
        with pytest.raises(LookaheadError):
            closed.impact_hint(1)
        opened = self._stream(expose_cycle_impacts=True)
        with pytest.raises(LookaheadError):
            opened.impact_hint(1)  # nothing observed yet
        opened.observe(1)
        assert opened.impact_hint(3) == opened.instance.units[2].impact
        with pytest.raises(LookaheadError):
            opened.impact_hint(11)  # next cycle is out of reach

    def test_cycle_bookkeeping(self):
        s = self._stream(n=12)
        assert s.num_cycles == 2
        assert s.cycle_bounds(1) == (1, 10)
        assert s.cycle_bounds(11) == (11, 12)
        first = s.take_cycle(1)
        assert [u.index for u in first] == list(range(1, 11))
        with pytest.raises(LookaheadError):
            s.take_cycle(1)
        assert len(s.take_cycle(2)) == 2

    def test_rejects_silly_cycle_length(self):
        with pytest.raises(ValueError):
            self._stream(cycle_len=0)

    @pytest.mark.parametrize("cycle_len", [2.5, 5.0, True, "5"])
    def test_rejects_a_cycle_length_that_is_not_an_integer(self, cycle_len):
        with pytest.raises(ValueError, match="cycle_len must be an integer"):
            self._stream(cycle_len=cycle_len)


class _Untouched(CausalStream):
    """A stream whose units and cycles must not be asked for."""

    def observe(self, index):
        raise AssertionError("a unit was decided")

    def take_cycle(self, cycle):
        raise AssertionError("a cycle was decided")


class TestRunOnline:
    def test_unknown_policy(self):
        stream = CausalStream(_spaced_instance(4), cycle_len=2)
        with pytest.raises(ValueError):
            run_online(stream, MODEL, "greedy")

    def test_spaced_stream_proposed_equals_myopic(self):
        inst = _spaced_instance(20)
        a = run_online(CausalStream(inst, cycle_len=5), MODEL, "proposed")
        b = run_online(CausalStream(inst, cycle_len=5), MODEL, "myopic")
        assert a.decisions == b.decisions
        assert [r.distortion_reduction for r in a.rows] == [
            r.distortion_reduction for r in b.rows
        ]
        # no backlog was ever carried, so the value model never trained
        assert a.state.coeffs == tuple(ValueModel.zero(3).coeffs)
        assert a.state.backlog == 0.0

    def test_myopic_ignores_the_graph_when_deciding(self):
        base = generate_trace(TraceParams(seed=9, num_dus=20, budget=10.0))
        graph = DependencyGraph(20, tuple((i, i - 1) for i in range(2, 21)))
        coupled = Instance(units=base.units, budget=base.budget, graph=graph)
        a = run_online(CausalStream(coupled, cycle_len=5), MODEL, "myopic")
        b = run_online(CausalStream(base, cycle_len=5), MODEL, "myopic")
        assert a.decisions == b.decisions

    def test_myopic_rows_have_zero_value_norm(self):
        inst = generate_trace(TraceParams(seed=9, num_dus=20, budget=10.0))
        result = run_online(CausalStream(inst, cycle_len=5), MODEL, "myopic")
        assert all(r.value_norm == 0.0 for r in result.rows)
        assert all(r.policy == "myopic" for r in result.rows)

    def test_prices_stay_nonnegative_and_rows_cover_cycles(self):
        inst = generate_trace(TraceParams(seed=3, num_dus=35, budget=5.0))
        stream = CausalStream(inst, cycle_len=10)
        result = run_online(stream, MODEL, "proposed")
        assert len(result.rows) == stream.num_cycles
        assert all(r.price >= 0.0 for r in result.rows)
        assert all(math.isfinite(r.energy_avg) for r in result.rows)

    def test_squeezed_unit_is_dropped_and_counted(self):
        units = (
            _unit(1, ready=0.0, deadline=0.05),
            _unit(2, ready=0.001, deadline=0.002),
        )
        inst = Instance(units=units, budget=1000.0)
        result = run_online(CausalStream(inst, cycle_len=2), MODEL, "myopic")
        assert result.rows[0].dropped == 1
        dropped = result.decisions[1]
        assert dropped.payload == 0.0

    def test_mdu_produces_cycle_rows_without_exposed_impacts(self):
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        stream = CausalStream(inst, cycle_len=5)
        result = run_online(stream, MODEL, "mdu")
        assert len(result.rows) == 2
        assert all(r.policy == "mdu" for r in result.rows)
        assert len(result.decisions) == 10
        for a, b in zip(result.decisions, result.decisions[1:]):
            assert b.start >= a.end - 1e-9

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("price_init", [1.0, 2.0])
    def test_prices_replay_from_the_energies_of_the_decisions(self, policy, price_init):
        # every policy books its units with one price master: replaying its
        # step from price_init over the energies of the returned decisions
        # gives every price. proposed and myopic book the energy of the array
        # closed form, which can differ from the scalar cost in the last ulp;
        # mdu books the latter
        base = generate_trace(TraceParams(seed=3, num_dus=30, budget=5.0))
        inst = Instance(base.units, base.budget, DependencyGraph(30, tuple((i, i - 1) for i in range(2, 31))))
        params = dataclasses.replace(OnlineParams(), price_init=price_init)
        run = run_online(CausalStream(inst, 7, expose_cycle_impacts=True), MODEL, policy, params)
        price, step, total = params.price_init, 0, 0.0
        prices = []
        for u, d in zip(inst.units, run.decisions):
            step += 1
            total += MODEL.cost(u, d.start, d.end, d.payload)
            price = online_price_update(price, params.kappa(step), total / step, inst.budget)
            prices.append(price)
        same = (lambda x: x) if policy == "mdu" else (lambda x: pytest.approx(x, rel=1e-12, abs=0.0))
        assert [r.price for r in run.rows] == same([prices[min(7 * c, 30) - 1] for c in range(1, 6)])
        assert (run.state.price, run.state.cum_energy) == same((price, total))
        assert run.state.step == step

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("price_init", [0.0, 1.0, 4.0])
    def test_first_decisions_start_from_the_initial_state(self, policy, price_init):
        # a run starts from price_init, zero value coefficients and no
        # backlog: its first unit (under mdu its first cycle) is decided as a
        # lone solve from that state decides it
        inst = generate_trace(TraceParams(seed=5, num_dus=12, budget=5.0))
        params = dataclasses.replace(OnlineParams(), price_init=price_init)
        run = run_online(CausalStream(inst, 4), MODEL, policy, params)
        if policy == "mdu":
            first, _ = online._solve_cycle_fixed_price(inst.units[:4], None, price_init, MODEL, -math.inf)
            assert run.decisions[:4] == tuple(first)
        else:
            alone = solve_online_unit(inst.units[0], 0.0, price_init, ValueModel.zero(params.feature_order),
                                      inst.units[1].ready, MODEL)
            assert run.decisions[0] == alone.decision

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("dag", [False, True], ids=["graph-free", "dag"])
    def test_a_run_leaves_nothing_to_the_next(self, policy, dag):
        # each run starts afresh: a run between two runs of one stream
        # changes nothing in the second
        base = generate_trace(TraceParams(seed=8, num_dus=20, budget=5.0))
        graph = generate_dag("random", 20, 5, seed=8, edge_prob=0.5) if dag else None
        inst = Instance(base.units, base.budget, graph)
        other = generate_trace(TraceParams(seed=9, num_dus=15, budget=2.0))

        def run(instance):
            return run_online(CausalStream(instance, 5, expose_cycle_impacts=dag), MODEL, policy)

        first = run(inst)
        run(other)
        assert repr(run(inst)) == repr(first)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("dag", [False, True], ids=["graph-free", "dag"])
    def test_rows_match_the_decisions_valued_afresh(self, policy, dag):
        # the rows read the losses booked with each unit; valuing the returned
        # decisions again by scalar model calls gives the same reductions
        base = generate_trace(TraceParams(seed=4, num_dus=30, budget=5.0))
        graph = generate_dag("random", 30, 7, seed=4, edge_prob=0.5) if dag else None
        inst = Instance(base.units, base.budget, graph)
        run = run_online(CausalStream(inst, 7, expose_cycle_impacts=dag), MODEL, policy)
        values = _ScheduleValues(inst.units, inst.graph, run.decisions, MODEL, priced=False)
        rows = []
        for row in run.rows:
            lo, hi = 7 * row.cycle - 6, min(7 * row.cycle, 30)
            reduction = sum((inst.units[i - 1].impact - values.unit_distortion(i) for i in range(lo, hi + 1)), 0.0)
            rows.append(dataclasses.replace(row, distortion_reduction=reduction))
        assert len(rows) == 5 and tuple(rows) == run.rows

    @pytest.mark.parametrize("policy", POLICIES)
    def test_unknown_impact_estimate_is_rejected(self, policy):
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        with pytest.raises(ValueError, match="unknown impact_estimate 'oracle'"):
            params = dataclasses.replace(OnlineParams(), impact_estimate="oracle")
            run_online(CausalStream(inst, 5, expose_cycle_impacts=True), MODEL, policy, params)


    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("field,value", [(field, value) for field, _, value in LEARNER_REFUSALS] + [
        ("impact_mean", -1.0), ("impact_mean", math.nan), ("impact_mean", math.inf), ("impact_mean", -math.inf),
    ])
    def test_bad_learner_numbers_are_rejected(self, policy, field, value):
        # the config refuses the same values of every field but impact_mean,
        # which it sets itself. A negative or NaN kappa0 froze the price, a
        # NaN price_init made every price NaN, a NaN impact_mean made every
        # proposed unit on a graph send nothing; a gamma0 above 1 or a
        # negative gamma_power failed only a few units into a proposed run,
        # and myopic and mdu never read them
        stream = _Untouched(generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0)), 5)
        with pytest.raises(ValueError, match=field):
            params = dataclasses.replace(OnlineParams(), **{field: value})
            run_online(stream, MODEL, policy, params)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_nan_ready_time_is_rejected(self, policy):
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        units = list(inst.units)
        units[3] = dataclasses.replace(units[3], ready=math.nan)
        stream = CausalStream(Instance(units=tuple(units), budget=inst.budget), 5)
        with pytest.raises(ValueError, match="invalid instance"):
            run_online(stream, MODEL, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_bad_stream_budget_is_rejected_before_any_unit(self, policy, budget):
        # the ledger's price step reads the stream's budget, its only source
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        stream = _Untouched(Instance(inst.units, budget), 5)
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            run_online(stream, MODEL, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("order", [0, -1])
    def test_feature_order_below_one_is_rejected_before_any_unit(self, policy, order):
        stream = _Untouched(generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0)), 5)
        with pytest.raises(ValueError, match="feature order must be >= 1"):
            params = dataclasses.replace(OnlineParams(), feature_order=order)
            run_online(stream, MODEL, policy, params)

    @pytest.mark.parametrize("order", [2.5, 3.0, True, np.float64(3.0)])
    def test_feature_order_that_is_not_an_integer_is_rejected(self, order):
        # 2.5 once failed with a TypeError in ValueModel.zero, and True learned
        # one coefficient
        with pytest.raises(ValueError, match="feature order must be an integer"):
            OnlineParams(feature_order=order)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_mdu_ends_with_zero_values_of_the_feature_order(self, order):
        # mdu learns no values and leaves no backlog
        params = dataclasses.replace(OnlineParams(), feature_order=order)
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        state = run_online(CausalStream(inst, 5), MODEL, "mdu", params).state
        assert (state.coeffs, state.backlog, state.avg_cost, state.step) == ((0.0,) * order, 0.0, 0.0, 10)


class TestLearnedValueShape:
    def test_origin_pin_and_monotonicity_after_training(self):
        # balanced load: arrivals keep pace with lifetimes, so backlog is
        # frequent but the queue never diverges
        inst = generate_trace(
            TraceParams(seed=0, num_dus=2000, mean_interarrival=0.05,
                        lifetime=0.05, budget=10.0)
        )
        model = ShannonExpModel(
            params=MODEL.params.__class__(noise=200.0, bandwidth_hz=200000.0,
                                          bit_unit=1000.0, energy_cap=50.0)
        )
        result = run_online(CausalStream(inst), model, "proposed")
        vm = ValueModel(coeffs=result.state.coeffs)
        assert vm.value(0.0) == 0.0
        assert any(c != 0.0 for c in vm.coeffs)  # backlog did occur

        # visited backlog range from the realized schedule
        ready = [u.ready for u in inst.units]
        backlogs = [
            max(d.end - t, 0.0)
            for d, t in zip(result.decisions, ready[1:])
        ]
        smax = max(backlogs)
        assert smax > 0.0
        xs = np.linspace(0.0, smax, 200)
        vals = np.array([vm.value(s) for s in xs])
        tol = 0.01 * float(np.max(np.abs(vals)))
        # V may never fall below any earlier value by more than the band
        worst_drop = float(np.max(np.maximum.accumulate(vals) - vals))
        assert worst_drop <= tol
