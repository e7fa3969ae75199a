"""The closed-form window length: W₀ and the per-unit solve in its regime."""

import math
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

from xlsched import CrossLayerDecision, DataUnit, ShannonEnergyParams, ShannonExpModel
from xlsched.offline import _unit_kernel
from xlsched.search import one_plus_w0

from test_models import _payload_bound
from test_window_search import TOL, _draw_case, _golden_reference

scipy_special = pytest.importorskip("scipy.special")

EPS = sys.float_info.epsilon


def _reference(x):
    """``1 + W₀(x)`` from scipy."""
    return 1.0 + float(scipy_special.lambertw(x).real)


class TestOnePlusW0:
    # x + 1/e on a log grid up to x = 1e6, then floats within 1e-12 above -1/e
    # (the float nearest -1/e lies below it, so the walk starts one ulp up)
    GRID = [-1.0 / math.e + float(d) for d in np.logspace(-12, math.log10(1e6 + 1.0 / math.e), 400)]
    NEAR = [math.nextafter(-1.0 / math.e, 0.0) + float(d) for d in np.linspace(0.0, 1e-12, 50)]

    def test_against_scipy(self):
        for x in self.GRID + self.NEAR:
            gap = 1.0 + math.e * x
            got, ref = one_plus_w0(gap), _reference(x)
            if gap >= 0.5:
                assert abs(got - ref) <= 4.0 * math.ulp(ref), x
            else:
                # 1 + W ~ sqrt(2 gap) near the branch point, so an input known
                # to about eps moves it by about eps / (1 + W), in either routine
                assert abs(got - ref) <= 4.0 * EPS / ref, x

    def test_zero_and_branch_point(self):
        assert one_plus_w0(1.0) == 1.0  # W(0) = 0
        assert one_plus_w0(0.0) == 0.0  # W(-1/e) = -1

    @pytest.mark.parametrize("gap", [1.0 + math.e * -0.4, -1e-300, -math.inf, math.nan])
    def test_below_the_branch_point_raises(self, gap):
        with pytest.raises(ValueError):
            one_plus_w0(gap)


@dataclass(frozen=True)
class RootCountingModel(ShannonExpModel):
    """The default model, recording each window length the solver values and
    keeping the closed form that ``window_fn`` attaches to its window."""

    taus: list = field(default_factory=list, compare=False)

    def window_fn(self, unit, loss_weight, energy_weight):
        window = super().window_fn(unit, loss_weight, energy_weight)

        def counted(tau):
            self.taus.append(tau)
            return window(tau)

        if hasattr(window, "root"):
            counted.root = window.root
        return counted


@dataclass(frozen=True)
class BrentOnlyModel(ShannonExpModel):
    """The default model with its window stripped of the closed form, so
    that ``_unit_kernel`` searches with ``derivative_search`` alone."""

    def window_fn(self, unit, loss_weight, energy_weight):
        window = super().window_fn(unit, loss_weight, energy_weight)
        return lambda tau: window(tau)


def _closed_form_tau(model, unit, loss, err, price, hp, hn, floor):
    """The closed form's window length if ``_unit_kernel`` takes it, else None."""
    root = getattr(model.window_fn(unit, loss + err, price), "root", None)
    tau = None if root is None else root(hn if hn - hp >= 0.0 else hp)
    return tau if tau is not None and 0.0 < tau < unit.deadline - floor else None


class TestClosedFormAgainstBrent:
    def test_random_cases(self):
        rng = np.random.default_rng(7)
        in_regime = 0
        # about one draw in thirty is in the regime: most have a window of 0 or
        # 1e-9, no price, no handoff price, or an optimum at the deadline
        for _ in range(5000):
            cap, unit, floor, loss, err, price, hp, hn = _draw_case(rng)
            params = ShannonEnergyParams(energy_cap=cap)
            model = RootCountingModel(params=params)
            start, end, payload, objective, _, _ = _unit_kernel(unit, model, loss, err, price, hp, hn, floor)
            brent = _unit_kernel(unit, BrentOnlyModel(params=params), loss, err, price, hp, hn, floor)[3]
            assert objective <= brent + 1e-9 * max(1.0, abs(brent))

            d = CrossLayerDecision(start, end, payload)
            assert floor <= d.start <= d.end <= unit.deadline
            assert 0.0 <= d.payload <= _payload_bound(model, unit, d.end - d.start) * (1 + 1e-12)
            if cap is not None:
                assert model.cost(unit, d.start, d.end, d.payload) <= cap * (1 + 1e-9)

            assert len(set(model.taus)) == len(model.taus)
            tau_c = _closed_form_tau(model, unit, loss, err, price, hp, hn, floor)
            if tau_c is not None:
                in_regime += 1
                ref = _golden_reference(unit, ShannonExpModel(params=params), loss, err, price, hp, hn, floor)
                assert objective <= ref + 1e-9 * max(1.0, abs(ref)) + max(hp, hn) * TOL
                # g is convex and continuous at 0 here, so the closed form's
                # point is the minimum: one value, at the stored window's length
                assert model.taus == [d.end - d.start]
        assert in_regime >= 100

    def test_cap_binding_at_the_stationary_point_falls_back(self):
        unit = DataUnit(1, 100.0, 10.0, 0.0, 0.05, 0.5, 1.2)
        free = ShannonExpModel().window_fn(unit, 25.0, 0.05).root(30.0)
        assert free is not None and 0.0 < free < 0.05
        # energy at the uncapped stationary point, then a cap at half of it
        a = ShannonExpModel().window_fn(unit, 25.0, 0.05)(free)[0]
        spend = ShannonExpModel().cost(unit, 0.0, free, a)
        capped = ShannonExpModel(params=ShannonEnergyParams(energy_cap=0.5 * spend))
        assert capped.window_fn(unit, 25.0, 0.05).root(30.0) is None
        d = CrossLayerDecision(*_unit_kernel(unit, capped, 25.0, 0.0, 0.05, 0.0, 30.0, 0.0)[:3])
        assert capped.cost(unit, d.start, d.end, d.payload) <= 0.5 * spend * (1 + 1e-9)
