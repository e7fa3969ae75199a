"""The loss and energy that the window and the per-unit kernel hand back.

``window_fn``'s window returns, with the payload, value and slope, the
payload's loss and energy in a window of length tau; ``_unit_kernel``
returns them for the decision it stores, so that no solver calls ``loss``
or ``cost`` on its decisions again. Both must be the model's own values,
bit for bit, which holds only where they are taken at the stored window's
length ``end - start``: the closed form's root and the searched length
differ from it by an ulp in most solves.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from xlsched import DataUnit, ShannonEnergyParams, ShannonExpModel
from xlsched.offline import _unit_kernel

# the window lengths the window is valued at: empty, subnormal, tiny, the
# unit's lifetime (replaced by it below) and far longer than any lifetime
TAUS = (0.0, 5e-324, 1e-9, None, 1e3)

_weights = st.one_of(
    st.just(0.0), st.just(-1.0), st.floats(-50.0, -1e-6), st.floats(1e-4, 500.0),
)
_handoffs = st.one_of(st.just(0.0), st.floats(1e-3, 300.0))


@st.composite
def _cases(draw):
    """A unit, a model with no energy cap or one that binds on the full
    payload over the unit's lifetime, and a start floor inside the lifetime."""
    life = draw(st.one_of(st.just(1e-9), st.floats(1e-4, 0.2)))
    ready = draw(st.floats(0.0, 5.0))
    unit = DataUnit(1, draw(st.floats(1.0, 200.0)), draw(st.floats(0.5, 20.0)), ready, ready + life,
                    draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 3.0)))
    model = ShannonExpModel()
    if draw(st.booleans()):
        # a fraction of the energy of the whole payload over the whole lifetime
        full = model.cost(unit, 0.0, life, unit.size)
        cap = draw(st.floats(1e-6, 0.9)) * min(full, 1e300)
        if 0.0 < cap < math.inf:
            model = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap))
    floor = unit.ready + draw(st.sampled_from([0.0, 0.5, 0.999])) * life
    return unit, model, floor


def _hex(*values):
    return tuple(float(v).hex() for v in values)


@given(case=_cases(), loss=_weights, err=_weights, price=_weights, hp=_handoffs, hn=_handoffs)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_the_kernel_hands_back_the_model_values_of_its_decision(case, loss, err, price, hp, hn):
    unit, model, floor = case
    start, end, payload, _, p, w = _unit_kernel(unit, model, loss, err, price, hp, hn, floor)
    assert _hex(p, w) == _hex(model.loss(unit, start, end, payload), model.cost(unit, start, end, payload))


@given(case=_cases(), loss=_weights, price=_weights)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_window_hands_back_the_model_values_of_its_payload(case, loss, price):
    unit, model, _ = case
    window = model.window_fn(unit, loss, price)
    for tau in TAUS:
        tau = unit.lifetime if tau is None else tau
        a, _, _, p, w = window(tau)
        # a window from 0 has length tau exactly
        assert _hex(p, w) == _hex(model.loss(unit, 0.0, tau, a), model.cost(unit, 0.0, tau, a))


@pytest.mark.parametrize("loss,price", [(80.0, 1.5), (80.0, 0.0), (0.0, 1.0), (80.0, -1.0)])
@pytest.mark.parametrize("cap", [None, 5.0])
def test_a_window_of_infinite_or_nan_length_raises(loss, price, cap):
    unit = DataUnit(1, 100.0, 10.0, 0.0, 0.05, 0.5, 1.2)
    window = ShannonExpModel(params=ShannonEnergyParams(energy_cap=cap)).window_fn(unit, loss, price)
    for tau in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            window(tau)
    # a length that is not positive stays the empty payload
    assert window(-math.inf)[0] == window(0.0)[0] == 0.0
