"""Loss/energy curves: frozen point values and structural checks."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from xlsched import (
    CausalStream,
    DataUnit,
    Instance,
    ShannonEnergyParams,
    ShannonExpModel,
    energy_cost,
    loss_fraction,
    run_online,
    solve_independent,
    solve_interdependent,
    verify_shape,
)
from xlsched.core import CrossLayerDecision, DependencyGraph
from xlsched.models import TransmissionModel
from xlsched.offline import _ScheduleValues

# flattens the curve to tau * (2**(a/tau) - 1) at unit channel gain
TEXTBOOK = ShannonEnergyParams(noise=1.0, bandwidth_hz=1.0, bit_unit=1.0)


def _unit(**kw):
    base = dict(index=1, impact=100.0, size=10.0, ready=0.0, deadline=0.05,
                decay=0.5, channel=1.0)
    base.update(kw)
    return DataUnit(**base)


class TestEnergyCost:
    def test_zero_payload_is_free(self):
        assert energy_cost(TEXTBOOK, 1.0, 0.0, 1.0, 0.0) == 0.0

    def test_one_bit_one_second(self):
        assert energy_cost(TEXTBOOK, 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_two_bits_two_seconds(self):
        # same spectral efficiency as above, double the airtime
        assert energy_cost(TEXTBOOK, 1.0, 0.0, 2.0, 2.0) == pytest.approx(2.0)

    def test_empty_window(self):
        assert energy_cost(TEXTBOOK, 1.0, 3.0, 3.0, 0.0) == 0.0
        assert math.isinf(energy_cost(TEXTBOOK, 1.0, 3.0, 3.0, 1.0))

    def test_channel_gain_divides(self):
        base = energy_cost(TEXTBOOK, 1.0, 0.0, 1.0, 1.0)
        assert energy_cost(TEXTBOOK, 2.0, 0.0, 1.0, 1.0) == pytest.approx(base / 2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            energy_cost(TEXTBOOK, 1.0, 0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            energy_cost(TEXTBOOK, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            energy_cost(TEXTBOOK, 0.0, 0.0, 1.0, 1.0)

    def test_huge_exponent_stays_finite(self):
        # clamped exponential: absurd payload/window ratios must not overflow
        v = energy_cost(TEXTBOOK, 1.0, 0.0, 1e-12, 1e6)
        assert math.isfinite(v) and v > 0


class TestLossFraction:
    def test_nothing_sent(self):
        assert loss_fraction(0.5, 10.0, 0.0) == 1.0

    def test_partial_payload(self):
        assert loss_fraction(0.5, 10.0, 2.0) == pytest.approx(0.5)

    def test_saturates_at_size(self):
        assert loss_fraction(0.5, 10.0, 20.0) == pytest.approx(0.03125)
        assert loss_fraction(0.5, 10.0, 20.0) == loss_fraction(0.5, 10.0, 10.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            loss_fraction(0.5, 10.0, -1.0)
        with pytest.raises(ValueError):
            loss_fraction(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            loss_fraction(0.5, 0.0, 1.0)


class TestIndependentDistortion:
    """Without a graph a unit's distortion is impact times the loss fraction."""

    @staticmethod
    def _distortion(impact, payload):
        unit = _unit(impact=impact)
        dec = CrossLayerDecision(0.0, 0.05, payload)
        return _ScheduleValues((unit,), None, (dec,), ShannonExpModel()).unit_distortion(1)

    def test_full_loss(self):
        assert self._distortion(100.0, 0.0) == 100.0

    def test_half_loss(self):
        assert self._distortion(100.0, 2.0) == pytest.approx(50.0)

    def test_saturated(self):
        assert self._distortion(50.0, 20.0) == pytest.approx(1.5625)


class _TableModel:
    """Model with a per-index loss table; energy is irrelevant here."""

    def __init__(self, loss_by_index):
        self._loss = loss_by_index

    def loss(self, unit, start, end, payload):
        return self._loss[unit.index]

    def cost(self, unit, start, end, payload):
        return 0.0


class TestDagDistortion:
    """Unit 2 references unit 1, so unit 1's loss is the error it propagates."""

    def _fixture(self, loss2, loss1):
        units = (_unit(index=1), _unit(index=2, impact=100.0))
        decisions = (CrossLayerDecision(0.0, 0.01, 5.0),) * 2
        graph = DependencyGraph(num_nodes=2, edges=((2, 1),))
        model = _TableModel({1: loss1, 2: loss2})
        return units, _ScheduleValues(units, graph, decisions, model)

    def test_perfect_reception_everywhere(self):
        units, values = self._fixture(loss2=0.0, loss1=0.0)
        assert values.unit_distortion(2) == 0.0

    def test_dead_ancestor_forfeits_everything(self):
        units, values = self._fixture(loss2=0.0, loss1=1.0)
        assert values.unit_distortion(2) == units[1].impact

    def test_partial_survival(self):
        units, values = self._fixture(loss2=0.25, loss1=0.5)
        # 100 * (1 - 0.75 * 0.5)
        assert values.unit_distortion(2) == pytest.approx(62.5)

    def test_no_ancestors_matches_independent(self):
        units, values = self._fixture(loss2=0.25, loss1=0.5)
        assert values.unit_distortion(1) == units[0].impact * 0.5


class TestVerifyShape:
    def test_default_model_is_clean(self):
        report = verify_shape(ShannonExpModel(), _unit(), 1000, seed=7)
        assert report.ok
        assert report.samples == 1000
        assert report.monotonicity_violations == 0
        assert report.convexity_violations == 0
        assert report.range_violations == 0

    def test_concave_cost_stub_is_flagged(self):
        class SqrtCost(ShannonExpModel):
            def cost(self, unit, start, end, payload):
                return math.sqrt(payload)

        report = verify_shape(SqrtCost(), _unit(), 500, seed=7)
        assert not report.ok
        assert report.convexity_violations > 0
        assert report.details  # a human-readable hint comes along

    def test_increasing_loss_stub_is_flagged(self):
        class BadLoss(ShannonExpModel):
            def loss(self, unit, start, end, payload):
                return min(payload / unit.size, 1.0)

        report = verify_shape(BadLoss(), _unit(), 500, seed=7)
        assert report.monotonicity_violations > 0

    def test_zero_samples_is_vacuous(self):
        report = verify_shape(ShannonExpModel(), _unit(), 0, seed=0)
        assert report.ok
        assert report.samples == 0


class ScalarPairModel:
    """Only the scalar pair of the default model: not a TransmissionModel."""

    _inner = ShannonExpModel()

    def loss(self, unit, start, end, payload):
        return self._inner.loss(unit, start, end, payload)

    def cost(self, unit, start, end, payload):
        return self._inner.cost(unit, start, end, payload)


class TestModelProtocol:
    def test_default_model_conforms(self):
        assert isinstance(ShannonExpModel(), TransmissionModel)
        assert not isinstance(ScalarPairModel(), TransmissionModel)

    def test_scalar_pair_suffices_for_verify_shape(self):
        assert verify_shape(ScalarPairModel(), _unit(), 50, seed=3).ok

    @pytest.mark.parametrize("solve", [
        lambda inst, model: solve_independent(inst, model),
        lambda inst, model: solve_interdependent(inst, model),
        lambda inst, model: run_online(CausalStream(inst), model, "proposed"),
        lambda inst, model: run_online(CausalStream(inst), model, "mdu"),
    ], ids=["independent", "interdependent", "online", "mdu"])
    def test_non_conforming_model_is_rejected_at_entry(self, solve):
        # an empty instance: the check runs before any unit is looked at
        with pytest.raises(TypeError, match="TransmissionModel"):
            solve(Instance(units=(), budget=1.0), ScalarPairModel())


def _payload_bound(model, unit, tau):
    """Largest payload that fits the unit and the energy cap in a window of length tau."""
    if tau <= 0.0:
        return 0.0
    p = model.params
    if p.energy_cap is None:
        return unit.size
    # cost(tau, a) = cap solved for a; cost is increasing in a
    a_cap = tau * p.bandwidth_hz / p.bit_unit * math.log2(1.0 + p.energy_cap * unit.channel / (p.noise * tau))
    return min(unit.size, max(a_cap, 0.0))


class TestBestPayload:
    """The payload minimizer, the first entry of ``window_fn``'s value."""

    def _reference(self, model, unit, tau, lw, ew):
        # independent 1-D search over the same objective
        upper = _payload_bound(model, unit, tau)

        def f(a):
            return lw * model.loss(unit, 0.0, tau, a) + ew * model.cost(unit, 0.0, tau, a)

        res = minimize_scalar(f, bounds=(0.0, upper), method="bounded",
                              options={"xatol": 1e-12})
        cands = [(f(0.0), 0.0), (f(upper), upper), (res.fun, float(res.x))]
        return min(cands)

    @pytest.mark.parametrize("tau,lw,ew", [
        (0.05, 100.0, 1.0),
        (0.05, 100.0, 0.2),
        (0.01, 60.0, 1.0),
        (0.03, 150.0, 5.0),
    ])
    def test_matches_bounded_search(self, tau, lw, ew):
        model = ShannonExpModel()
        unit = _unit()
        a = model.window_fn(unit, lw, ew)(tau)[0]
        f_ref, a_ref = self._reference(model, unit, tau, lw, ew)
        f_a = lw * model.loss(unit, 0.0, tau, a) + ew * model.cost(unit, 0.0, tau, a)
        assert f_a <= f_ref + 1e-9
        assert a == pytest.approx(a_ref, abs=1e-6)

    def test_corners(self):
        model = ShannonExpModel()
        unit = _unit()
        assert model.window_fn(unit, 100.0, 1.0)(0.0)[0] == 0.0
        assert model.window_fn(unit, 0.0, 1.0)(0.05)[0] == 0.0
        # free energy: send everything
        assert model.window_fn(unit, 100.0, 0.0)(0.05)[0] == unit.size

    def test_energy_cap_restricts_payload(self):
        capped = ShannonExpModel(params=ShannonEnergyParams(energy_cap=0.5))
        unit = _unit()
        a = capped.window_fn(unit, 1e9, 1e-9)(0.05)[0]
        assert capped.cost(unit, 0.0, 0.05, a) <= 0.5 + 1e-9

    def test_vectorized_paths_agree_with_scalar(self):
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=50.0))
        unit = _unit(channel=1.3)
        taus = np.linspace(0.001, 0.05, 23)
        pls, losses, costs = model.window_vec(unit, taus, 80.0, 1.5)
        window = model.window_fn(unit, 80.0, 1.5)
        for tau, a, lv, cv in zip(taus, pls, losses, costs):
            assert a == pytest.approx(window(tau)[0], abs=1e-12)
            assert lv == pytest.approx(model.loss(unit, 0.0, tau, a), abs=1e-15)
            assert cv == pytest.approx(model.cost(unit, 0.0, tau, a), rel=1e-12)

    @pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (0.0, 1.0)])
    def test_vectorized_empty_window_sends_nothing(self, lw, ew):
        pls, losses, costs = ShannonExpModel().window_vec(_unit(), np.array([0.0]), lw, ew)
        assert (pls[0], losses[0], costs[0]) == (0.0, 1.0, 0.0)



class TestWindowValue:
    @pytest.mark.parametrize("cap", [None, 0.5, 5.0])
    @pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (20.0, 40.0), (0.0, 1.0)])
    def test_value_and_payload_match_the_model(self, cap, lw, ew):
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
        unit = _unit(channel=1.3)
        for tau in (0.0, 1e-6, 0.004, 0.02, 0.05):
            a, v, _ = model.window_fn(unit, lw, ew)(tau)
            assert 0.0 <= a <= _payload_bound(model, unit, tau)
            ref = lw * model.loss(unit, 0.0, tau, a) + ew * model.cost(unit, 0.0, tau, a)
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("cap", [None, 0.5, 5.0])
    @pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (20.0, 40.0), (300.0, 1e-3)])
    def test_slope_matches_central_differences(self, cap, lw, ew):
        model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
        unit = _unit(channel=0.8)
        for tau in np.linspace(0.0007, 0.05, 37):
            _, _, slope = model.window_fn(unit, lw, ew)(tau)
            h = 1e-6 * tau
            fd = (model.window_fn(unit, lw, ew)(tau + h)[1]
                  - model.window_fn(unit, lw, ew)(tau - h)[1]) / (2 * h)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-6 * max(lw, 1.0))
            # a longer window never hurts
            assert slope <= 0.0

    def test_unpriced_and_empty_corners_have_zero_slope(self):
        model = ShannonExpModel()
        unit = _unit()
        assert model.window_fn(unit, 100.0, 1.0)(0.0) == (0.0, 100.0, 0.0)
        assert model.window_fn(unit, 0.0, 1.0)(0.05) == (0.0, 0.0, 0.0)
        a, _, slope = model.window_fn(unit, 100.0, 0.0)(0.05)
        assert (a, slope) == (unit.size, 0.0)
        # an overflowing exponent stays finite or -inf, never NaN
        _, v, slope = model.window_fn(unit, 1e300, 1e-300)(1e-9)
        assert not math.isnan(v) and not math.isnan(slope)

def test_params_validation():
    with pytest.raises(ValueError):
        ShannonEnergyParams(noise=0.0)
    with pytest.raises(ValueError):
        ShannonEnergyParams(bandwidth_hz=-1.0)
    with pytest.raises(ValueError):
        ShannonEnergyParams(energy_cap=0.0)


@pytest.mark.parametrize("field", ["noise", "bandwidth_hz", "bit_unit", "energy_cap"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_params_reject_nan_inf_and_negative(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        ShannonEnergyParams(**{field: value})
