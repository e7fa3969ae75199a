"""The array closed form and the online end grid against the numpy code they
replaced, bit for bit (signed zeros and NaNs included)."""

import math

import numpy as np
import pytest

from xlsched import DataUnit, ShannonEnergyParams, ShannonExpModel
from xlsched.models import EXP_CLAMP
from xlsched.online import _grid


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
