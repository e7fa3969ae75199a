"""The array closed form and the online end grid against the numpy code they
replaced, bit for bit (signed zeros and NaNs included)."""

import math

import numpy as np
import pytest

from xlsched import DataUnit, ShannonEnergyParams, ShannonExpModel
from xlsched.models import EXP_CLAMP
from xlsched import online
from xlsched.offline import _grid


def reference_window_vec(model, unit, taus, loss_weight, energy_weight):
    """``ShannonExpModel.window_vec`` before it became whole-array ufunc
    arithmetic: boolean-mask gathers and scatters and ``np.clip``."""
    p = model.params
    taus = np.asarray(taus, dtype=float)
    payloads = np.zeros_like(taus)
    pos = taus > 0.0
    if np.any(pos) and not loss_weight <= 0.0:
        uppers = np.full_like(taus, float(unit.size))
        if p.energy_cap is not None:
            with np.errstate(divide="ignore"):
                a_cap = (
                    taus * p.bandwidth_hz / p.bit_unit
                    * np.log2(1.0 + p.energy_cap * unit.channel / (p.noise * np.where(pos, taus, 1.0)))
                )
            uppers = np.minimum(uppers, np.maximum(a_cap, 0.0))
        if energy_weight <= 0.0:
            payloads[pos] = uppers[pos]
        else:
            ratio = loss_weight * unit.decay * unit.channel * p.bandwidth_hz / (energy_weight * p.noise * p.bit_unit)
            if not ratio <= 0.0:
                k = np.where(pos, p.bit_unit / (np.where(pos, taus, 1.0) * p.bandwidth_hz), np.inf)
                a = math.log2(ratio) / (unit.decay + k)
                payloads[pos] = np.clip(a[pos], 0.0, uppers[pos])

    z = np.clip(-unit.decay * np.minimum(payloads, unit.size), -EXP_CLAMP, EXP_CLAMP)
    loss = np.clip(np.exp2(z), 0.0, 1.0)

    energy = np.zeros(taus.shape)
    z = np.clip(payloads[pos] * p.bit_unit / (taus[pos] * p.bandwidth_hz), -EXP_CLAMP, EXP_CLAMP)
    vals = (p.noise / unit.channel) * taus[pos] * (np.exp2(z) - 1.0)
    energy[pos] = np.where(np.isinf(vals), 2.0 ** EXP_CLAMP, vals)
    return payloads, loss, energy


def _same(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return (
        got.shape == ref.shape
        and np.array_equal(got, ref, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(ref))
    )


MODELS = [ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap)) for cap in (None, 0.5, 50.0)]
SPECIAL_TAUS = np.array([0.0, -0.0, -1e-3, -math.inf, math.nan, 1e-300, 5e-324, 1e9, math.inf])


def _draw(rng):
    unit = DataUnit(
        index=1,
        impact=float(rng.uniform(1.0, 100.0)),
        size=float(rng.choice([rng.uniform(0.1, 40.0), 10.0])),
        ready=0.0,
        deadline=0.05,
        decay=float(10.0 ** rng.uniform(-2.0, 1.5)),
        channel=float(10.0 ** rng.uniform(-2.0, 1.0)),
    )
    kind = rng.integers(4)
    lw = 0.0 if kind == 0 else float(10.0 ** rng.uniform(-3.0, 3.0))
    ew = 0.0 if kind == 1 else float(10.0 ** rng.uniform(-6.0, 3.0))
    n = int(rng.integers(1, 12))
    taus = 10.0 ** rng.uniform(-12.0, 0.0, size=n)
    special = rng.random(n) < 0.2
    taus[special] = rng.choice(SPECIAL_TAUS, size=int(special.sum()))
    return MODELS[int(rng.integers(3))], unit, taus, lw, ew


def test_matches_reference_on_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        model, unit, taus, lw, ew = _draw(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            got = model.window_vec(unit, taus, lw, ew)
            ref = reference_window_vec(model, unit, taus, lw, ew)
        for g, r in zip(got, ref):
            assert _same(g, r), (model.params.energy_cap, unit, taus.tolist(), lw, ew)


@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
@pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1e-300, 1e300)])
@pytest.mark.parametrize("taus", [
    SPECIAL_TAUS,
    np.array(0.02),
    np.array(0.0),
    np.array(math.nan),
    np.array([]),
    np.linspace(0.0, 0.05, 201),
], ids=["special", "0d", "0d-zero", "0d-nan", "empty", "grid"])
def test_matches_reference_on_edge_inputs(model, lw, ew, taus):
    unit = DataUnit(index=1, impact=50.0, size=10.0, ready=0.0, deadline=0.05, decay=0.5, channel=1.3)
    with np.errstate(over="ignore", invalid="ignore"):
        got = model.window_vec(unit, taus, lw, ew)
        ref = reference_window_vec(model, unit, taus, lw, ew)
    for g, r in zip(got, ref):
        assert _same(g, r)


def _from_table(model, unit, taus, lw, ew):
    return model.window_table(unit, taus)(lw, ew)


def test_table_matches_window_vec_and_reference_on_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        model, unit, taus, lw, ew = _draw(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _from_table(model, unit, taus, lw, ew)
            vec = model.window_vec(unit, taus, lw, ew)
            ref = reference_window_vec(model, unit, taus, lw, ew)
        for g, v, r in zip(got, vec, ref):
            assert _same(g, v) and _same(g, r), (model.params.energy_cap, unit, taus.tolist(), lw, ew)


@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
@pytest.mark.parametrize("taus", [
    SPECIAL_TAUS,
    np.array(0.02),
    np.array(0.0),
    np.array(math.nan),
    np.array([]),
    np.linspace(0.0, 0.05, 201),
    np.array([1e-300, 5e-324, 1e-310, 1e300, math.inf]),
], ids=["special", "0d", "0d-zero", "0d-nan", "empty", "grid", "overflowing"])
def test_one_table_at_weights_in_a_row(model, taus):
    # the weight pairs run through every branch of the weighted half, in an
    # order where a table that kept state from one call to the next would
    # answer the next call wrongly; the arrays it returns are fresh
    unit = DataUnit(index=1, impact=50.0, size=10.0, ready=0.0, deadline=0.05, decay=0.5, channel=1.3)
    pairs = [(80.0, 1.5), (0.0, 1.0), (-3.0, 1.0), (80.0, 0.0), (80.0, -2.0), (1e-300, 1e300), (1e300, 1e-300),
             (80.0, 1.5), (1e-3, 50.0), (0.0, 0.0), (80.0, 1.5)]
    with np.errstate(over="ignore", invalid="ignore"):
        table = model.window_table(unit, taus)
    seen = []
    for lw, ew in pairs:
        with np.errstate(over="ignore", invalid="ignore"):
            got = table(lw, ew)
            vec = model.window_vec(unit, taus, lw, ew)
            ref = reference_window_vec(model, unit, taus, lw, ew)
        for g, v, r in zip(got, vec, ref):
            assert _same(g, v) and _same(g, r), (lw, ew)
        seen.extend(got)
        for g in got:
            if isinstance(g, np.ndarray):  # 0-d taus give numpy scalars
                g[...] = 7.0  # a caller may write into what it was handed
    assert len({id(a) for a in seen}) == len(seen)


def test_not_positive_taus_send_nothing():
    unit = DataUnit(index=1, impact=50.0, size=10.0, ready=0.0, deadline=0.05, decay=0.5, channel=1.3)
    taus = np.array([0.0, -0.0, -1.0, math.nan, -math.inf])
    for model in MODELS:
        pls, loss, energy = model.window_vec(unit, taus, 80.0, 1.5)
        assert pls.tolist() == [0.0] * 5 and loss.tolist() == [1.0] * 5 and energy.tolist() == [0.0] * 5
        assert not np.signbit(pls).any() and not np.signbit(energy).any()


def test_grid_is_linspace():
    rng = np.random.default_rng(5)
    tiny = 5e-324
    cases = [(0.0, 0.0, 7), (1.5, 1.5, 200), (0.0, 3 * tiny, 200), (0.0, 1e-320, 60),
             (1.0, math.nextafter(1.0, 2.0), 200), (2.0, 1.0, 5), (0.3, 0.7, 2)]
    for _ in range(3000):
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1e4), 10.0 ** rng.uniform(-320, 3)]))
        kind = rng.integers(4)
        if kind == 0:
            hi = lo
        elif kind == 1:
            hi = lo + tiny * float(rng.integers(1, 1000))
        else:
            hi = lo + float(10.0 ** rng.uniform(-12, 2))
        cases.append((lo, hi, int(rng.integers(2, 260))))
    for lo, hi, n in cases:
        assert _same(_grid(lo, hi, n), np.linspace(lo, hi, n)), (lo, hi, n)
        # the refinement grid is built between two numpy floats
        assert _same(_grid(np.float64(lo), np.float64(hi), n), np.linspace(np.float64(lo), np.float64(hi), n))


@pytest.mark.parametrize("n", [60.0, 2.5])
def test_grid_refuses_a_float_count_like_linspace(n):
    with pytest.raises(TypeError):
        np.linspace(0.0, 1.0, n)
    with pytest.raises(TypeError):
        _grid(0.0, 1.0, n)



@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
@pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (1e-300, 1e300)])
def test_subnormal_taus_warn_nothing(model, lw, ew):
    # such taus overflow energy_cap*channel/(noise*tau) and bit_unit/span;
    # the infinities are the values, so the results stay the reference's
    unit = DataUnit(index=1, impact=50.0, size=10.0, ready=0.0, deadline=0.05, decay=0.5, channel=1.3)
    taus = np.array([5e-324, 1e-320, 1e-315, 1e-310, 2e-308, 0.02])
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_window_vec(model, unit, taus, lw, ew)
    for g, r in zip(model.window_vec(unit, taus, lw, ew), ref):
        assert _same(g, r)
    for i, tau in enumerate(taus):
        for g, r in zip(model.window_vec(unit, np.array(tau), lw, ew), ref):
            assert _same(g, r[i])


# -- the clamps window_vec leaves out or guards, each where it would bind -------------

def _check_against_reference(model, unit, taus, lw, ew):
    """``window_vec`` and the reference on ``taus``, as arrays and one 0-d tau at a
    time, bit for bit; returns the reference's arrays."""
    taus = np.asarray(taus, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ref = reference_window_vec(model, unit, taus, lw, ew)
        for g, r in zip(model.window_vec(unit, taus, lw, ew), ref):
            assert _same(g, r), (unit, taus.tolist(), lw, ew)
        for i, tau in enumerate(taus.ravel()):
            for g, r in zip(model.window_vec(unit, np.array(tau), lw, ew), ref):
                assert _same(g, r.ravel()[i]), (unit, tau, lw, ew)
    return ref


TAUS = np.array([5e-324, 1e-310, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 1.0, 1e6])


@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
def test_loss_exponent_beyond_the_clamp(model):
    # decay*size = 1200 > EXP_CLAMP: an unpriced payload at the size (or near it)
    # sends the loss exponent below -EXP_CLAMP, where the clamp gives 2**-1023
    unit = DataUnit(index=1, impact=50.0, size=40.0, ready=0.0, deadline=0.05, decay=30.0, channel=1.3)
    assert unit.decay * unit.size > EXP_CLAMP
    bound = 0
    for lw, ew in [(80.0, 0.0), (80.0, 1e-12), (80.0, 1.5), (1e300, 1e-300)]:
        _, loss, _ = _check_against_reference(model, unit, TAUS, lw, ew)
        bound += int((loss == 2.0 ** -EXP_CLAMP).sum())
    if model.params.energy_cap is None:
        assert bound > 0


@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
@pytest.mark.parametrize("lw,side", [(1.0, "below"), (2.0, "equal"), (4.0, "above")])
def test_payload_clamp_on_each_side_of_ratio_one(model, lw, side):
    # with the default parameters ratio = lw*decay*channel/ew, exactly 0.5, 1 and 2
    unit = DataUnit(index=1, impact=50.0, size=10.0, ready=0.0, deadline=0.05, decay=0.5, channel=1.0)
    p = model.params
    ratio = lw * unit.decay * unit.channel * p.bandwidth_hz / (1.0 * p.noise * p.bit_unit)
    assert ratio == {"below": 0.5, "equal": 1.0, "above": 2.0}[side]
    taus = np.concatenate((TAUS, [0.0, -1.0, math.nan]))
    payloads, _, _ = _check_against_reference(model, unit, taus, lw, 1.0)
    if side == "above":
        # a positive over a positive: +0.0 only where it underflows (tau 5e-324)
        assert (payloads[1:len(TAUS)] > 0.0).all() and not np.signbit(payloads).any()
    else:
        # log2(ratio) <= 0: every stationary point is -0.0 or below, clamped to +0.0
        assert payloads.tolist() == [0.0] * len(taus) and not np.signbit(payloads).any()


def test_energy_that_overflows_to_inf_reads_the_clamp():
    # bandwidth 1 and bit_unit 1: size/tau puts the exponent at the clamp, and
    # (noise/channel)*tau*2**1023 overflows for tau = 1e-3 and above
    model = ShannonExpModel(params=ShannonEnergyParams(noise=200.0, bandwidth_hz=1.0, bit_unit=1.0))
    unit = DataUnit(index=1, impact=50.0, size=1e4, ready=0.0, deadline=0.05, decay=1e-3, channel=0.01)
    taus = np.array([1e-6, 1e-3, 0.01, 0.05])
    for lw, ew in [(80.0, 0.0), (1e300, 1e-300)]:
        _, _, energy = _check_against_reference(model, unit, taus, lw, ew)
        assert (energy == 2.0 ** EXP_CLAMP).any()
    # a NaN weight makes NaN energies, which the fallback keeps as they are
    _, _, energy = _check_against_reference(model, unit, taus, math.nan, 1.0)
    assert np.isnan(energy).all()


def test_finite_energy_above_the_clamp_is_kept():
    # (noise/channel)*tau*(2**1023 - 1) with noise = channel = 1 and tau = 1.5 is
    # 1.35e308: finite, above 2**EXP_CLAMP, and not replaced by it
    model = ShannonExpModel(params=ShannonEnergyParams(noise=1.0, bandwidth_hz=1.0, bit_unit=1.0))
    unit = DataUnit(index=1, impact=50.0, size=1e4, ready=0.0, deadline=2.0, decay=1e-3, channel=1.0)
    _, _, energy = _check_against_reference(model, unit, np.array([0.5, 1.5, 1.9]), 80.0, 0.0)
    assert energy[1] > 2.0 ** EXP_CLAMP and np.isfinite(energy).all()


@pytest.mark.parametrize("model", MODELS, ids=["uncapped", "cap0.5", "cap50"])
@pytest.mark.parametrize("taus", [
    np.array([math.nan, 0.02, math.nan]),
    np.array([5e-324, 1e-320, 2e-308, 0.02]),
    np.array([]),
    np.empty((0, 51)),
    np.empty((3, 0)),
], ids=["nan", "subnormal", "empty", "empty-rows", "empty-cols"])
@pytest.mark.parametrize("lw,ew", [(80.0, 1.5), (80.0, 0.0), (1.0, 1.0), (1e-300, 1e300)])
def test_nan_subnormal_and_empty_taus(model, taus, lw, ew):
    unit = DataUnit(index=1, impact=50.0, size=40.0, ready=0.0, deadline=0.05, decay=30.0, channel=1.3)
    _check_against_reference(model, unit, taus, lw, ew)


# -- the value term of the online objective --------------------------------------

def reference_value_vec(coeffs, s):
    """``online._value_vec`` before it started from its first term: the sum from
    0.0 of r_k * s^k / k!, each power built from 1.0."""
    out, term = 0.0, 1.0
    for k, r in enumerate(coeffs, start=1):
        term = term * s / k
        out = out + r * term
    return out


def test_value_vec_matches_the_loop_it_replaced():
    rng = np.random.default_rng(23)
    special = [0.0, -0.0, -1.0, 1.0, -1e300, 5e-324, -5e-324, 1e-300]
    backlogs = np.concatenate(([0.0, 0.0, 5e-324, 1e-300, 1e-3, 0.02, 1.0, 7.5, 1e100, math.inf, math.nan],
                               np.maximum(rng.uniform(-0.05, 0.1, size=40), 0.0)))
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        coeffs = tuple(float(rng.choice(special)) if rng.random() < 0.3 else float(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3)))
                       for _ in range(n))
        s = backlogs[rng.permutation(len(backlogs))[:int(rng.integers(1, 20))]]
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = online._value_vec(coeffs, s), reference_value_vec(coeffs, s)
        assert _same(got, ref), (coeffs, s.tolist())
    # a negative first coefficient at backlog 0 makes -0.0, which the sum from 0.0 made +0.0
    got = online._value_vec((-1.0,), np.array([0.0, 0.5]))
    assert _same(got, [0.0, -0.5]) and not np.signbit(got[0])
