"""Transmission models: loss fractions and energy cost.

The concrete model couples an exponential loss curve with a Shannon-style
energy cost:

* a unit carrying ``size`` payload units transmitted with payload ``a`` is
  lost by the application with probability ``2**(-decay * min(a, size))``;
  a unit helps only if it and every ancestor it references are received, so
  the error a lost reference propagates to its descendants is its loss;
* sending ``a`` payload units inside a window of length ``tau`` seconds over
  a channel with gain ``channel`` costs
  ``(noise / channel) * (2**(a * bit_unit / (tau * bandwidth_hz)) - 1) * tau``.

``bit_unit`` converts stored payload units into bits for the spectral
efficiency exponent. The defaults interpret payloads in kilobits over a
200 kHz channel, so a full 10-kilobit unit in a full 50 ms window has
exponent 1. Setting ``bandwidth_hz = 1`` and ``bit_unit = 1`` recovers the
plain textbook expression used by several unit tests.

Every solver in the package only relies on two structural facts, checked by
:func:`verify_shape` for any candidate model: the loss fraction is
non-increasing in window length and payload, and loss and cost are jointly
convex in (window length, payload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .search import one_plus_w0

if TYPE_CHECKING:  # pragma: no cover
    from .core import DataUnit

__all__ = [
    "ShannonEnergyParams",
    "ShannonExpModel",
    "TransmissionModel",
    "ShapeReport",
    "energy_cost",
    "loss_fraction",
    "verify_shape",
    "EXP_CLAMP",
]

# |exponent| bound keeping 2**z finite in IEEE double precision
EXP_CLAMP = 1023.0
_LN2 = math.log(2.0)
# the slack verify_shape allows each sampled comparison for rounding
_SHAPE_TOL = 1e-9


@dataclass(frozen=True)
class ShannonEnergyParams:
    """Parameters of the Shannon-gap energy curve.

    ``energy_cap``, when set, bounds the energy any single transmission may
    spend; solvers treat it as a restriction of the feasible payload range
    (the sublevel set of a jointly convex function, so convexity of the
    per-unit problems is preserved).
    """

    noise: float = 200.0
    bandwidth_hz: float = 200_000.0
    bit_unit: float = 1000.0
    energy_cap: Optional[float] = None

    def __post_init__(self) -> None:
        # written as "not 0 < v < inf" so that NaN fails too
        if not 0 < self.noise < math.inf:
            raise ValueError(f"noise density must be positive and finite, got {self.noise}")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz}")
        if not 0 < self.bit_unit < math.inf:
            raise ValueError(f"bit_unit must be positive and finite, got {self.bit_unit}")
        if self.energy_cap is not None and not 0 < self.energy_cap < math.inf:
            raise ValueError(f"energy cap must be positive and finite when set, got {self.energy_cap}")


def energy_cost(params: ShannonEnergyParams, channel: float, start: float, end: float, payload: float) -> float:
    """Energy spent transmitting ``payload`` units in the window [start, end].

    A zero-length window is free for an empty payload and has infinite cost
    otherwise; the infinity is the sentinel all optimizers treat as "never
    selectable".
    """
    # float zeros and the exponent clamp spelled out: the recovery's budget search
    # calls this about a hundred times per solve and outer iteration
    if payload < 0.0:
        raise ValueError(f"payload must be nonnegative, got {payload}")
    if end < start:
        raise ValueError(f"window end {end} precedes start {start}")
    if channel <= 0.0:
        raise ValueError(f"channel gain must be positive, got {channel}")
    tau = end - start
    if tau == 0.0:
        return 0.0 if payload == 0.0 else math.inf
    z = payload * params.bit_unit / (tau * params.bandwidth_hz)
    # multiply the small factors first; a clamped exponential times noise/channel
    # can overflow even though the full product is representable
    e2z = 2.0 ** (EXP_CLAMP if z > EXP_CLAMP else -EXP_CLAMP if z < -EXP_CLAMP else z)
    val = (params.noise / channel) * tau * (e2z - 1.0)
    if math.isinf(val):
        val = 2.0 ** EXP_CLAMP
    return val


def loss_fraction(decay: float, size: float, payload: float) -> float:
    """Fraction of a unit's value lost when ``payload`` of ``size`` is sent.

    Exponential in the transmitted payload, saturating at the full size:
    sending more than ``size`` buys nothing.
    """
    # float zeros, min, max and the exponent clamp spelled out as comparisons:
    # the calls took about two thirds of its time
    if payload < 0.0:
        raise ValueError(f"payload must be nonnegative, got {payload}")
    if decay <= 0.0 or size <= 0.0:
        raise ValueError(f"decay and size must be positive, got {decay}, {size}")
    z = -decay * (size if size < payload else payload)
    p = 2.0 ** (EXP_CLAMP if z > EXP_CLAMP else -EXP_CLAMP if z < -EXP_CLAMP else z)
    p = 0.0 if 0.0 > p else p
    return 1.0 if 1.0 < p else p


def _unit_distortion(impact: float, loss: float, ancestor_losses: Sequence[float]) -> float:
    """Expected distortion of a unit from its loss and its ancestors' losses.

    A unit is useful only if it and every ancestor are received; otherwise
    its full impact is lost. Without ancestors it is ``impact * loss``. The
    fractions may be numpy arrays.
    """
    if not ancestor_losses:
        return impact * loss
    survive = 1.0 - loss
    for e in ancestor_losses:
        survive *= 1.0 - e
    return impact - impact * survive


def _empty_window(empty: tuple) -> Callable[[float], tuple]:
    """A ``window_fn`` window that sends nothing: ``empty`` at every length,
    and ``ValueError`` on an infinite or NaN one."""

    def window(tau: float) -> tuple:
        if not tau < math.inf:  # NaN fails too
            raise ValueError(f"window length must be finite, got {tau!r}")
        return empty

    return window


@runtime_checkable
class TransmissionModel(Protocol):
    """What the solvers need from a physical-layer model.

    The scalar pair ``loss`` and ``cost`` values a decision (and is all
    :func:`verify_shape` samples); a unit's loss is also the error it
    propagates to the units that reference it. Both depend on the window
    only through its length ``end - start``: ``window_fn``, ``window_vec``,
    ``window_table`` and the lattice option tables rely on it. The per-unit
    solves use the closed form of the payload argmin at fixed weights on loss
    and energy: ``window_fn`` for the offline window search, built once per
    solve, and its array twin ``window_vec`` for the online end-grid search.
    A ``window_fn`` window maps tau to five entries, ``(payload, value,
    slope, loss, energy)``; the last two are ``loss`` and ``cost`` of that
    payload in a window of length tau, bit for bit, so that a solver values
    the decision it stores without calling them again.
    ``window_table(unit, taus)`` is ``window_vec`` on fixed taus with the
    weights left open, ``(loss_weight, energy_weight) -> (payload, loss,
    energy)``: the ``mdu`` DAG passes build one per unit and cycle and
    evaluate it at each pass's weights while the unit's start times stay the
    same. A window may carry ``root(lam)``, the root of its slope plus
    ``lam`` in closed form or None; the search uses it where present.
    """

    def loss(self, unit: "DataUnit", start: float, end: float, payload: float) -> float: ...

    def cost(self, unit: "DataUnit", start: float, end: float, payload: float) -> float: ...

    def window_fn(
        self, unit: "DataUnit", loss_weight: float, energy_weight: float
    ) -> Callable[[float], tuple[float, float, float, float, float]]: ...

    def window_vec(
        self, unit: "DataUnit", taus: np.ndarray, loss_weight: float, energy_weight: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def window_table(
        self, unit: "DataUnit", taus: np.ndarray
    ) -> Callable[[float, float], tuple[np.ndarray, np.ndarray, np.ndarray]]: ...


def check_model(model: object) -> None:
    """Raise ``TypeError`` unless ``model`` implements :class:`TransmissionModel`."""
    if not isinstance(model, TransmissionModel):
        raise TypeError(
            f"{type(model).__name__} does not implement the TransmissionModel protocol "
            "(loss, cost, window_fn, window_vec, window_table)"
        )


@dataclass(frozen=True)
class ShannonExpModel:
    """Default model: exponential loss curve + Shannon-gap energy.

    Besides the scalar pair it exposes the window value
    ``V(tau) = min_a L * 2**(-decay*a) + E * cost(tau, a)`` in closed form
    (``window_fn``, and ``window_vec`` or ``window_table`` over an array of
    window lengths): the payload minimizer is a stationary point solvable in
    the log domain, and the slope ``dV/dtau`` follows from the envelope
    theorem. Below the cap and with energy priced it is
    ``E*noise/channel*phi(z)``, where ``z = a*bit_unit/(tau*bandwidth_hz)``
    and ``phi(z) = 2**z (1 - z ln 2) - 1`` falls, so its root has a closed
    form in the Lambert W function.
    """

    params: ShannonEnergyParams = field(default_factory=ShannonEnergyParams)

    def loss(self, unit, start, end, payload) -> float:
        return loss_fraction(unit.decay, unit.size, payload)

    # not part of the protocol: the benchmark's schedule check and its traced
    # model still call it, and a unit's error propagation is its loss
    errprop = loss

    def cost(self, unit, start, end, payload) -> float:
        return energy_cost(self.params, unit.channel, start, end, payload)

    # -- closed form used by the solvers -----------------------------------

    def window_fn(
        self, unit, loss_weight: float, energy_weight: float
    ) -> Callable[[float], tuple[float, float, float, float, float]]:
        """The window value of ``unit`` at fixed weights, as a function of tau.

        Returns ``tau -> (a, V, dV/dtau, loss, energy)``: the payload
        minimizer, the window value ``V(tau) = min_a L*loss(a) + E*cost(tau, a)``
        over the payloads ``a`` that fit the unit and the energy cap in a
        window of length ``tau``, its slope, and the loss and energy of ``a``
        in that window. The last two are the same expressions as
        :func:`loss_fraction` and :func:`energy_cost`, so they equal
        ``loss`` and ``cost`` of any window of length ``tau`` bit for bit.
        A tau that is not positive gives the empty payload (loss 1, energy
        0); an infinite or NaN one raises ``ValueError``. Everything that does
        not depend on tau is computed here, once per solve. By the envelope
        theorem the slope is ``E * d cost/d tau`` at fixed ``a`` unless the
        energy cap binds, where ``a`` moves with the cap and the slope is
        ``L * d loss/d a * d a_cap/d tau`` (energy stays at the cap). An empty
        payload, or an unpriced one (``E = 0``) below the cap, has slope 0.

        The window also carries ``root(lam)``, the tau where the slope is
        ``-lam`` in closed form, or None where that form does not hold.
        """
        p = self.params
        size, decay, channel = unit.size, unit.decay, unit.channel
        bandwidth, bit_unit, noise, cap = p.bandwidth_hz, p.bit_unit, p.noise, p.energy_cap
        empty = (0.0, loss_weight, 0.0, 1.0, 0.0)
        if loss_weight <= 0.0:
            return _empty_window(empty)
        log_ratio = None  # unpriced: the payload sits at its upper bound
        if not energy_weight <= 0.0:
            ratio = loss_weight * decay * channel * bandwidth / (energy_weight * noise * bit_unit)
            if ratio <= 0.0:
                return _empty_window(empty)
            log_ratio = math.log2(ratio)
        priced = energy_weight > 0.0
        per_gain = noise / channel
        spend_slope = energy_weight * per_gain
        cap_gain = None if cap is None else cap * channel
        cap_pull = -loss_weight * decay * _LN2

        # runs once per tau: min, max and the exponent clamp are spelled out as the
        # same comparisons, since calls to them took about a third of its time
        def window(tau: float) -> tuple[float, float, float, float, float]:
            if tau <= 0.0:
                return empty
            if not tau < math.inf:  # NaN fails too
                raise ValueError(f"window length must be finite, got {tau!r}")
            span = tau * bandwidth
            upper = size
            if cap_gain is not None:
                # invert cost(tau, a) = cap; cost is increasing in a
                k_tau = cap_gain / (noise * tau)
                log_k = math.log2(1.0 + k_tau)
                a_cap = span / bit_unit * log_k
                a_cap = 0.0 if a_cap < 0.0 else a_cap
                upper = a_cap if a_cap < size else size
            if upper <= 0.0:
                return empty
            if log_ratio is None:
                a = upper
            else:
                a = log_ratio / (decay + bit_unit / span)
                a = 0.0 if a < 0.0 else a
                a = upper if upper < a else a
                if a <= 0.0:
                    return empty
            # a <= upper <= size, so the loss exponent needs no min with size
            z = -decay * a
            lost = 2.0 ** (EXP_CLAMP if z > EXP_CLAMP else -EXP_CLAMP if z < -EXP_CLAMP else z)
            lost = 1.0 if lost > 1.0 else lost
            z = a * bit_unit / span
            e2z = 2.0 ** (EXP_CLAMP if z > EXP_CLAMP else -EXP_CLAMP if z < -EXP_CLAMP else z)
            spend = per_gain * tau * (e2z - 1.0)
            if spend == math.inf or spend == -math.inf:
                spend = 2.0 ** EXP_CLAMP
            value = loss_weight * lost
            if priced:
                value += energy_weight * spend
            if a == upper < size:
                # the cap binds: a = a_cap(tau) = (tau/c) log2(1 + K/tau) with
                # c = bit_unit/bandwidth and K = cap*channel/noise, so
                # a_cap'(tau) = (log2(1 + K/tau) - (K/tau) / ((1 + K/tau) ln 2)) / c
                d_cap = (log_k - k_tau / ((1.0 + k_tau) * _LN2)) * bandwidth / bit_unit
                return a, value, cap_pull * lost * d_cap, lost, spend
            if priced:
                return a, value, spend_slope * (e2z - 1.0 - z * _LN2 * e2z), lost, spend
            return a, value, 0.0, lost, spend

        def root(lam: float) -> Optional[float]:
            # phi(z) = -lam/spend_slope at z = (1 + W0((lam/spend_slope - 1)/e))/ln 2,
            # then z = log_ratio*c/(decay*tau + c) (interior) or size*c/tau (at the size)
            if not (lam > 0.0 and priced and log_ratio > 0.0):
                return None
            z = one_plus_w0(lam / spend_slope) / _LN2
            if not z < log_ratio:
                return None
            c = bit_unit / bandwidth
            tau = min(c * (log_ratio - z) / (decay * z), size * c / z)
            if cap_gain is not None and per_gain * tau * math.expm1(z * _LN2) > cap:
                return None
            return tau

        window.root = root
        return window

    def window_vec(
        self, unit, taus: np.ndarray, loss_weight: float, energy_weight: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array twin of :meth:`window_fn`: ``(payload, loss, energy)`` per tau.

        The payload is the same argmin as ``window_fn``'s, and the loss and
        energy are the model's at that payload. A tau that is not positive
        (zero, negative or NaN) gives payload 0, loss 1 and energy 0. numpy's
        ``exp2`` and ``log2`` may differ from the scalar ``cost`` and ``loss``
        in the last ulp; that difference is kept, since the online decisions
        are pinned to this arithmetic.

        It runs twice per online decision on a few hundred taus, and once per
        unit of a graph-free ``mdu`` cycle on a table of (link-free time, end)
        pairs, so it is whole-array ufunc arithmetic, and on such arrays its
        time goes mostly to the number of numpy calls. It is the two halves
        of :meth:`window_table` run in one call under one ``errstate``: the
        weight-free half on ``taus``, then the weighted half at the weights.
        """
        with np.errstate(divide="ignore", over="ignore"):
            return self._weighted(unit, self._weight_free(unit, taus), loss_weight, energy_weight)

    def window_table(
        self, unit, taus: np.ndarray
    ) -> Callable[[float, float], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`window_vec` on fixed ``taus`` at weights given later.

        Returns ``(loss_weight, energy_weight) -> (payload, loss, energy)``,
        bit for bit ``window_vec(unit, taus, loss_weight, energy_weight)``.
        The weight-free half of the arithmetic runs here, once; each call
        runs only the half that reads the weights, and returns fresh arrays.
        The ``mdu`` DAG passes value the same (link-free time, end) pairs of
        a unit at new loss weights, and keep its table while its start times
        stay the same.
        """
        with np.errstate(divide="ignore", over="ignore"):
            free = self._weight_free(unit, taus)

        def table(loss_weight: float, energy_weight: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            with np.errstate(divide="ignore", over="ignore"):
                return self._weighted(unit, free, loss_weight, energy_weight)

        return table

    # The two halves below run under the caller's errstate: a subnormal tau
    # overflows energy_cap*channel/(noise*tau), bit_unit/span and
    # payload*bit_unit/span, and a huge one the energy product; each inf
    # stands for the bound it exceeds, as the clamps expect. Their time goes
    # mostly to the number of numpy calls: ``safe`` stands in for the taus
    # that are not positive, one ``where`` zeroes their payload, and only
    # clamps that can bind are applied. The energy exponent keeps its upper
    # clamp (a subnormal span sends it past ``EXP_CLAMP``); its lower one and
    # the loss exponent's upper one never bind, since payloads lie in
    # [0, size]. The cap ``a_cap`` is never negative, so it needs no lower
    # clamp. The loss exponent's lower clamp is applied only when
    # ``decay * size`` exceeds ``EXP_CLAMP``, and the payload's lower clamp
    # only when ``log2(ratio)`` is not positive: otherwise the stationary
    # point is never negative. An infinite energy is read as
    # ``2**EXP_CLAMP``; one max test finds that none is there (a NaN also
    # takes the ``where``).

    def _weight_free(self, unit, taus: np.ndarray) -> tuple:
        """What the window arrays take from the taus alone: the positivity
        mask, the spans, the payload's upper bound (the size, or the energy
        cap's payload), the stationary payload's denominator
        ``decay + bit_unit / span`` and the energy's factor ``noise / channel * tau``."""
        p = self.params
        taus = np.asarray(taus, dtype=float)
        pos = taus > 0.0
        safe = np.where(pos, taus, 1.0)
        span = safe * p.bandwidth_hz
        upper = float(unit.size)
        if p.energy_cap is not None:
            # span and the log2 of 1 plus a positive are not negative, so
            # neither is a_cap; a NaN would pass a max with 0 unchanged
            a_cap = span / p.bit_unit * np.log2(1.0 + p.energy_cap * unit.channel / (p.noise * safe))
            upper = np.minimum(upper, a_cap)
        return pos, span, upper, unit.decay + p.bit_unit / span, (p.noise / unit.channel) * safe

    def _weighted(self, unit, free: tuple, loss_weight: float, energy_weight: float) -> tuple:
        """The window arrays at the weights, from :meth:`_weight_free`'s tuple,
        which it reads and never writes."""
        p = self.params
        pos, span, upper, denominator, spend = free
        payload = 0.0
        if not loss_weight <= 0.0:
            if energy_weight <= 0.0:
                payload = upper
            else:
                ratio = loss_weight * unit.decay * unit.channel * p.bandwidth_hz / (energy_weight * p.noise * p.bit_unit)
                if not ratio <= 0.0:
                    log_ratio = math.log2(ratio)
                    a = log_ratio / denominator
                    # a positive over a positive is not negative; otherwise
                    # not np.clip: with a scalar bound it keeps a = -0.0 (a
                    # tau near 1e-300), which np.maximum turns into +0.0
                    payload = np.minimum(a if log_ratio > 0.0 else np.maximum(a, 0.0), upper)
        payloads = np.where(pos, payload, 0.0)

        # payloads lie in [0, size], so the exponent is in [-decay*size, 0]
        z = -unit.decay * payloads
        loss = np.exp2(z if unit.decay * unit.size <= EXP_CLAMP else np.maximum(z, -EXP_CLAMP))
        vals = spend * (np.exp2(np.minimum(payloads * p.bit_unit / span, EXP_CLAMP)) - 1.0)
        # vals are not negative, so a max below inf rules out inf and NaN
        energy = vals if vals.size and vals.max() < math.inf else np.where(np.isinf(vals), 2.0 ** EXP_CLAMP, vals)
        return payloads, loss, energy


@dataclass(frozen=True)
class ShapeReport:
    """Outcome of the sampled structural checks on a model."""

    samples: int
    monotonicity_violations: int
    convexity_violations: int
    range_violations: int
    details: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.monotonicity_violations == 0
            and self.convexity_violations == 0
            and self.range_violations == 0
        )


def verify_shape(
    model: TransmissionModel,
    unit: "DataUnit",
    sample_count: int,
    seed: int,
) -> ShapeReport:
    """Sampled check of the structural conditions the solvers rely on.

    Draws windows/payloads in the unit's feasible ranges and tests, pairwise,
    that the loss fraction is non-increasing in window length and payload, that loss and cost are midpoint-convex jointly in (window,
    payload), and that ranges hold (fractions in [0,1], cost nonnegative),
    each up to ``_SHAPE_TOL``. Zero samples are vacuously fine.
    """
    rng = np.random.default_rng(seed)
    tau_max = unit.deadline - unit.ready
    if tau_max <= 0:
        raise ValueError("unit has an empty feasible window")
    mono = 0
    conv = 0
    rng_viol = 0
    details: list[str] = []

    def note(msg: str) -> None:
        if len(details) < 10:
            details.append(msg)

    t0 = unit.ready
    for _ in range(sample_count):
        tau1, tau2 = sorted(rng.uniform(1e-9 * tau_max, tau_max, size=2))
        a1, a2 = sorted(rng.uniform(0.0, unit.size, size=2))

        v11 = model.loss(unit, t0, t0 + tau1, a1)
        v21 = model.loss(unit, t0, t0 + tau2, a1)
        v12 = model.loss(unit, t0, t0 + tau1, a2)
        if v21 > v11 + _SHAPE_TOL or v12 > v11 + _SHAPE_TOL:
            mono += 1
            note(f"loss not non-increasing near tau={tau1:.6g}, a={a1:.6g}")
        if not (-_SHAPE_TOL <= v11 <= 1.0 + _SHAPE_TOL):
            rng_viol += 1
            note(f"loss out of [0,1]: {v11!r}")

        w11 = model.cost(unit, t0, t0 + tau1, a1)
        if w11 < -_SHAPE_TOL:
            rng_viol += 1
            note(f"cost negative: {w11!r}")

        tm = 0.5 * (tau1 + tau2)
        am = 0.5 * (a1 + a2)
        for fn, name in ((model.loss, "loss"), (model.cost, "cost")):
            f1 = fn(unit, t0, t0 + tau1, a1)
            f2 = fn(unit, t0, t0 + tau2, a2)
            fm = fn(unit, t0, t0 + tm, am)
            if fm > 0.5 * (f1 + f2) + _SHAPE_TOL:
                conv += 1
                note(
                    f"{name} not midpoint-convex at tau=({tau1:.6g},{tau2:.6g}), a=({a1:.6g},{a2:.6g})"
                )

    return ShapeReport(
        samples=sample_count,
        monotonicity_violations=mono,
        convexity_violations=conv,
        range_violations=rng_viol,
        details=tuple(details),
    )
