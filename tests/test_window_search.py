"""Slope-bracketed window search: root finder and the per-unit kernel."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from xlsched import (
    CausalStream,
    DataUnit,
    DependencyGraph,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    TraceParams,
    generate_trace,
    run_online,
    solve_independent,
    solve_interdependent,
    upper_optimization,
)
from xlsched.offline import _solve_unit
from xlsched.search import brent_root, derivative_search, golden_section

from test_models import _payload_bound

TOL = 1e-8  # derivative_search's default, the window tolerance of every unit solve


@dataclass(frozen=True)
class CountingModel(ShannonExpModel):
    """The default model, recording each window length the solver values."""

    taus: list = field(default_factory=list, compare=False)

    def window_fn(self, unit, loss_weight, energy_weight):
        window = super().window_fn(unit, loss_weight, energy_weight)

        def counted(tau):
            self.taus.append(tau)
            return window(tau)

        return counted


def _evaluation(f, df):
    """``x -> (f(x), f'(x))``, the evaluation the searches take."""
    return lambda t: (f(t), df(t))


def _root(df, lo, hi, **kw):
    """``brent_root`` on an evaluation with slope ``df`` and no objective."""
    fn = _evaluation(lambda t: None, df)
    return brent_root(fn, lo, hi, fn(lo), fn(hi), **kw)


class TestBrentRoot:
    def test_smooth_root(self):
        x, at = _root(lambda t: t * t - 2.0, 0.0, 2.0, tol=1e-12)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert at == (None, x * x - 2.0)

    def test_step_function_root_within_tol(self):
        x, _ = _root(lambda t: -1.0 if t < 0.3 else 1.0, 0.0, 1.0, tol=1e-9)
        assert abs(x - 0.3) <= 1e-9

    def test_infinite_values_fall_back_to_bisection(self):
        x, _ = _root(lambda t: -math.inf if t < 0.7 else t - 0.7, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.7, abs=1e-10)

    def test_endpoint_roots_and_sign_check(self):
        assert _root(lambda t: t, 0.0, 1.0) == (0.0, (None, 0.0))
        assert _root(lambda t: t - 1.0, 0.0, 1.0) == (1.0, (None, 0.0))
        with pytest.raises(ValueError):
            _root(lambda t: t + 1.0, 0.0, 1.0)

    def test_given_end_values_are_not_recomputed(self):
        seen = []

        def fn(t):
            seen.append(t)
            return None, t * t - 2.0

        x, _ = brent_root(fn, 0.0, 2.0, fn(0.0), fn(2.0), 1e-12)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert seen[:2] == [0.0, 2.0] and len(seen) == len(set(seen))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_bracket_raises(self, lo, hi, fail_fast):
        # a NaN bracket never meets the stopping test, so it must not start
        with pytest.raises(ValueError, match="finite"):
            _root(lambda t: -1.0 if t < 0.5 else 1.0, lo, hi)


class TestDerivativeSearch:
    def test_parabola(self):
        x, (fx, _) = derivative_search(_evaluation(lambda t: (t - 0.3) ** 2, lambda t: 2 * (t - 0.3)), 0.0, 1.0, 1e-10)
        assert x == pytest.approx(0.3, abs=1e-10)
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_tie_rules_match_golden_section(self):
        for f, df in (
            (lambda t: t, lambda t: 1.0),
            (lambda t: -t, lambda t: -1.0),
            (lambda t: 0.0, lambda t: 0.0),
        ):
            x, (fx, _) = derivative_search(_evaluation(f, df), 0.0, 1.0)
            assert (x, fx) == golden_section(f, 0.0, 1.0)

    def test_jump_at_lower_end(self):
        # f(0) is above the limit from the right, as the window value with
        # unpriced energy: the candidate tol above 0 wins
        def f(t):
            return 1.0 if t == 0.0 else 0.5 + t

        x, (fx, _) = derivative_search(_evaluation(f, lambda t: 1.0), 0.0, 1.0, 1e-8)
        assert x == 1e-8 and fx == 0.5 + 1e-8

    def test_degenerate_interval(self):
        assert derivative_search(_evaluation(lambda t: t * t, lambda t: 2 * t), 2.0, 2.0) == (2.0, (4.0, 4.0))
        with pytest.raises(ValueError):
            derivative_search(_evaluation(lambda t: t, lambda t: 1.0), 1.0, 0.0)

    def test_each_point_is_valued_once_and_its_payload_rides_along(self):
        seen = []

        def fn(t):
            seen.append(t)
            return (t - 0.3) ** 2, 2 * (t - 0.3), f"payload at {t!r}"

        x, at = derivative_search(fn, 0.0, 1.0, 1e-10)
        assert at == fn(x)
        seen.pop()
        assert len(seen) == len(set(seen)) >= 4


def _draw_case(rng):
    cap = [None, 0.5, 5.0, 50.0][rng.integers(4)]
    life = [0.0, 1e-9, 1e-4, float(rng.uniform(0.001, 0.1))][rng.integers(4)]
    ready = float(rng.uniform(0.0, 1.0))
    unit = DataUnit(
        1,
        float(rng.uniform(1.0, 200.0)),
        float(rng.uniform(1.0, 20.0)),
        ready,
        ready + life,
        float(rng.uniform(0.05, 2.0)),
        float(rng.uniform(0.1, 3.0)),
    )
    floor = ready + float(rng.choice([0.0, rng.uniform(0.0, 1.0)])) * life
    m = float(rng.choice([1, 4, 10]))
    loss = float(rng.choice([0.0, unit.impact / m]))
    err = float(rng.choice([0.0, rng.uniform(0.0, 50.0) / m]))
    price = float(rng.choice([0.0, rng.exponential(1.0), rng.uniform(0.0, 100.0)])) / m
    hp = float(rng.choice([0.0, rng.uniform(0.0, 200.0)]))
    hn = float(rng.choice([0.0, rng.uniform(0.0, 200.0)]))
    return cap, unit, floor, loss, err, price, hp, hn


def _golden_reference(unit, model, loss, err, price, hp, hn, floor):
    """Golden-section search over the window length of the same objective,
    with the start at its endpoint rule; returns the objective it reaches."""
    cf = hn - hp

    def g(tau):
        value = model.window_fn(unit, loss + err, price)(tau)[1] + hn * tau
        return value + cf * (floor if cf >= 0.0 else unit.deadline - tau)

    return golden_section(g, 0.0, unit.deadline - floor, tol=TOL)[1]


class TestSlopeSearchAgainstGolden:
    def test_random_cases(self):
        rng = np.random.default_rng(2024)
        evals = []
        for _ in range(1500):
            cap, unit, floor, loss, err, price, hp, hn = _draw_case(rng)
            params = ShannonEnergyParams(energy_cap=cap)
            model = CountingModel(params=params)
            sol = _solve_unit(unit, model, loss, err, price, hp, hn, floor)
            ref = _golden_reference(unit, ShannonExpModel(params=params), loss, err, price, hp, hn, floor)
            evals.append(len(model.taus))
            # each window length is valued once
            assert len(set(model.taus)) == len(model.taus)

            d = sol.decision
            assert floor <= d.start <= d.end <= unit.deadline
            assert 0.0 <= d.payload <= _payload_bound(model, unit, d.end - d.start) * (1 + 1e-12)
            if cap is not None:
                assert model.cost(unit, d.start, d.end, d.payload) <= cap * (1 + 1e-9)
            lam = max(hp, hn)
            assert sol.objective <= ref + 1e-9 * max(1.0, abs(ref)) + lam * TOL
            # the reported objective is the decision's own priced value
            honest = (
                loss * model.loss(unit, d.start, d.end, d.payload)
                + err * model.loss(unit, d.start, d.end, d.payload)
                + price * model.cost(unit, d.start, d.end, d.payload)
                - hp * d.start
                + hn * d.end
            )
            assert sol.objective == pytest.approx(honest, rel=1e-9, abs=1e-9)
        # every solve values its window through window_fn, about eight times
        assert min(evals) > 0
        assert float(np.mean(evals)) <= 12.0


def _assert_plain_floats(decisions):
    assert decisions
    for d in decisions:
        for value in (d.start, d.end, d.payload):
            assert type(value) is float


class TestDecisionsArePlainFloats:
    MODEL = ShannonExpModel()

    def test_solve_independent(self):
        inst = generate_trace(TraceParams(seed=7, num_dus=6, budget=2.0))
        _assert_plain_floats(solve_independent(inst, self.MODEL, max_outer=30).decisions)

    def test_solve_interdependent(self):
        inst = generate_trace(TraceParams(seed=5, num_dus=4, budget=2.0))
        graph = DependencyGraph(4, ((2, 1), (3, 2), (4, 3)))
        chained = Instance(units=inst.units, budget=inst.budget, graph=graph)
        _assert_plain_floats(solve_interdependent(chained, self.MODEL, max_outer=30).decisions)

    def test_mdu(self):
        inst = generate_trace(TraceParams(seed=6, num_dus=10, budget=5.0))
        result = run_online(CausalStream(inst, cycle_len=5), self.MODEL, "mdu")
        _assert_plain_floats(result.decisions)

    def test_numpy_multipliers_do_not_leak(self):
        unit = DataUnit(1, 100.0, 10.0, 0.0, 0.05, 0.5, 1.2)
        sol = upper_optimization(unit, np.float64(0.8), np.float64(30.0), np.float64(10.0), 4, self.MODEL)
        _assert_plain_floats([sol.decision])
        assert type(sol.objective) is float
