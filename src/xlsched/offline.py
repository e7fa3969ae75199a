"""Offline solvers: dual decomposition over units with subgradient prices.

The joint schedule problem (pick a window and payload per unit, FIFO order
between consecutive windows, long-term average energy budget) is relaxed by
pricing the two coupling constraint families:

* ``price`` multiplies the average-energy budget violation;
* ``handoff_prices[i]`` multiplies the overlap ``end_i - start_{i+1}``.

At fixed prices the relaxation splits into one small problem per unit, solved
in two layers: the payload search inside a fixed window is convex and the
model solves it in closed form, and the remaining window search is convex in
the window length after observing that the start time enters linearly and is
therefore optimal at an interval endpoint. The model's window value comes
with its slope in the window length, and the default model gives the root of
that slope in closed form (Lambert W). There energy is priced, the window
value is continuous at length 0 and the root is the minimum, so the kernel
values the window once, at the length of the window it stores. Elsewhere (a
binding energy cap, unpriced energy) it is a bracketed root-find on the
slope compared against both ends, about eight values per unit. A unit's loss
is also the error it propagates to its descendants, so the dependency terms
weigh the same loss curve, and every table and cache below holds loss and
energy only.

Both solvers share one outer loop, which owns the two master problems: it
moves the budget price and the handoff prices, recovers a feasible schedule
every iteration and keeps the best primal and dual values. A solver supplies
only its relaxed step. Independent units are solved once each per outer
iteration; interdependent units couple through the dependency graph, so
there the per-unit subproblems are swept in index order (block coordinate
descent) with warm starts across outer iterations.

Each decision is valued once, where it is made. The per-unit kernel returns
a plain (start, end, payload, objective, loss, energy) tuple, the loss and
energy taken from the window evaluation at the stored window's length (a
lattice step reads both from the option row), and a relaxed step hands the
outer loop the per-unit loss and energy with the decisions. The price step
sums those energies, and the recovery starts from them, takes a repaired
unit's from its kernel solve and values only the units it drops and the
payloads it scales. ``CrossLayerDecision`` objects are built only for the
decisions a step returns or a sweep accepts.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    CrossLayerDecision,
    DataUnit,
    DependencyGraph,
    Instance,
    IterationRow,
    SolveReport,
    _require_count,
    validate_instance,
    write_text_atomic,
)
from .models import TransmissionModel, _unit_distortion, check_model
from .search import brent_root, derivative_search
# unused here: perfbench/spans.py wraps this module attribute
from .search import golden_section  # noqa: F401

__all__ = [
    "UnitSolution",
    "DecisionGrid",
    "upper_optimization",
    "price_update",
    "handoff_update",
    "solve_independent",
    "solve_interdependent",
    "recover_primal",
    "instance_distortion",
    "average_energy",
    "report_to_csv",
]

_TINY = 1e-12

# The most rows one DecisionGrid.options table may hold (window pairs times
# action points). The default grid builds at most 441 rows per unit (6 time
# points on a 50 ms lifetime, 21 action points); one of 992 838 rows took
# 0.12 s and 74 MB of peak memory to build on a 2-vCPU Xeon.
_MAX_OPTION_ROWS = 1_000_000

# When the budget price touches 0 while handoff prices are positive, the
# relaxed subproblems collapse windows to zero length at full payload and the
# realized relaxed energy is essentially unbounded. The dual value stays
# finite (energy is unpriced right there), but feeding that usage into the
# price step would throw the price orders of magnitude off. The steps
# therefore see usage clipped to a small multiple of the budget, which keeps
# the ascent direction (the sign of usage - budget is preserved).
_USAGE_CLIP_FACTOR = 3.0


@dataclass(frozen=True)
class UnitSolution:
    """Per-unit relaxed solve: the decision and its priced objective."""

    decision: CrossLayerDecision
    objective: float


@dataclass(frozen=True)
class DecisionGrid:
    """Uniform decision lattice: per-unit window endpoints on a time grid
    anchored at the unit's ready time, payloads on an evenly spaced action
    grid between 0 and the unit's size.

    Passing a grid to a solver restricts every per-unit subproblem to these
    points, so the reported primal is feasible for the lattice-restricted
    problem and directly comparable to exhaustive search over the same
    lattice.
    """

    time_step: float
    action_points: int

    def __post_init__(self) -> None:
        if not 0.0 < self.time_step < math.inf:
            raise ValueError(f"time_step must be positive and finite, got {self.time_step!r}")
        _require_count("action_points", self.action_points, 2)

    def action_step(self, unit: DataUnit) -> float:
        return unit.size / (self.action_points - 1)

    def options(self, unit: DataUnit, model: TransmissionModel):
        """All finite-cost (start, end, payload) choices of one unit.

        Returns five parallel arrays: starts, ends, payloads, and the model's
        loss and energy values at each choice, valued once per distinct window
        length and payload. Choices whose energy exceeds the model's
        per-transmission cap are removed. Choices run start-major, then end,
        then payload, so the starts never decrease, and no time point lies
        past the deadline: ``ready + k*time_step`` can overshoot it by an
        ulp, so the points are clamped to it.

        The model is called with plain floats (``tolist``), not numpy scalars:
        the values are the same bits, and float arithmetic in the model costs
        about half as much. A unit whose table would hold more than
        ``_MAX_OPTION_ROWS`` rows (window pairs times action points, before
        the cap removes any) raises ``ValueError`` before any array is built.
        """
        span = unit.deadline - unit.ready
        steps = span / self.time_step + 1e-9
        n_steps = int(math.floor(steps)) if math.isfinite(steps) else None
        rows = math.inf if n_steps is None else (n_steps + 1) * (n_steps + 2) // 2 * int(self.action_points)
        if rows > _MAX_OPTION_ROWS:
            raise ValueError(
                f"unit {unit.index}: its lattice table would hold {rows} option rows "
                f"(time step {self.time_step!r}, {self.action_points} action points), "
                f"more than the limit of {_MAX_OPTION_ROWS}"
            )
        times = np.minimum(unit.ready + self.time_step * np.arange(n_steps + 1), unit.deadline)
        actions = np.linspace(0.0, unit.size, self.action_points)

        xi, yi, row_x, row_y, row_a = _table_index(len(times), len(actions))
        starts, ends, payloads = times[row_x], times[row_y], actions[row_a]

        # scalar calls (the vector model differs from them in the last ulp),
        # once per distinct window length at a window of that length
        _, first, inverse = np.unique(times[yi] - times[xi], return_index=True, return_inverse=True)
        points, amounts = times.tolist(), actions.tolist()
        windows = [(points[x], points[y]) for x, y in zip(xi[first].tolist(), yi[first].tolist())]
        loss = np.array([[model.loss(unit, x, y, a) for a in amounts] for x, y in windows])[inverse].ravel()
        cost = np.array([[model.cost(unit, x, y, a) for a in amounts] for x, y in windows])[inverse].ravel()

        keep = np.isfinite(cost)
        cap = getattr(getattr(model, "params", None), "energy_cap", None)
        if cap is not None:
            keep &= cost <= cap + 1e-12
        return starts[keep], ends[keep], payloads[keep], loss[keep], cost[keep]


@functools.lru_cache(maxsize=4)
def _table_index(points: int, actions: int) -> tuple[np.ndarray, ...]:
    """The index arrays of an option table of ``points`` time points and
    ``actions`` action points, which depend on its shape only: the start and
    end point of each window pair, start-major, then each row's start point,
    end point and action point. They are read-only; at the row limit one
    entry holds about 32 MB."""
    xi, yi = np.triu_indices(points)
    index = xi, yi, np.repeat(xi, actions), np.repeat(yi, actions), np.tile(np.arange(actions), len(xi))
    for arr in index:
        arr.flags.writeable = False
    return index


def _solve_unit_grid(
    opts,
    handoff_prev: float,
    handoff_next: float,
    loss_coeff: float,
    err_coeff: float,
    energy_coeff: float,
    mask: Optional[np.ndarray] = None,
) -> tuple[float, float, float, float, float, float]:
    """Exact per-unit solve over precomputed grid options: the one lattice
    argmin, taken by the relaxed step and by both stages of
    :func:`_recover_primal_grid`.

    Same objective as the continuous path:
    loss_coeff*p + err_coeff*p + energy_coeff*w - handoff_prev*start
    + handoff_next*end; argmin ties resolve to the earliest window. Rows
    where ``mask`` is false score +inf, so an all-false mask returns an
    infinite objective. Returns the option row's (start, end, payload), its
    objective, loss and energy.

    A term whose coefficient is zero (either sign) is skipped. This is
    exact: its product with a finite column is ±0.0, and adding ±0.0
    changes only a -0.0, which the running sum never is. Its first term
    ``loss_coeff * loss`` is not -0.0 (``loss_coeff`` is not negative and
    losses lie in [0, 1]), and a sum or difference of a value other than
    -0.0 with anything is not -0.0 either.
    """
    starts, ends, payloads, loss, cost = opts
    obj = loss_coeff * loss
    if err_coeff:
        obj += err_coeff * loss
    if energy_coeff:
        obj += energy_coeff * cost
    if handoff_prev:
        obj -= handoff_prev * starts
    if handoff_next:
        obj += handoff_next * ends
    if mask is not None:
        obj = np.where(mask, obj, math.inf)
    j = int(obj.argmin())
    return starts.item(j), ends.item(j), payloads.item(j), obj.item(j), loss.item(j), cost.item(j)


def _unit_kernel(
    unit: DataUnit,
    model: TransmissionModel,
    loss_coeff: float,
    err_coeff: float,
    energy_coeff: float,
    handoff_prev: float,
    handoff_next: float,
    start_floor: float,
) -> tuple[float, float, float, float, float, float]:
    """The continuous per-unit relaxed solve every solver path shares, as a
    plain (start, end, payload, objective, loss, energy) tuple, the last two
    the model's ``loss`` and ``cost`` of the decision, bit for bit.

    Minimizes loss_coeff*p + err_coeff*p + energy_coeff*w - handoff_prev*start
    + handoff_next*end over windows inside [start_floor, deadline] and their
    payloads, where p is the unit's loss and also the error it propagates to
    its descendants. ``window_fn`` gives, per window length tau, the payload
    argmin, the window value V(tau) and its slope for the merged weight
    loss_coeff + err_coeff, and the payload's loss and energy; V depends on
    the window only through its length.

    For fixed tau the start time enters linearly with coefficient
    (handoff_next - handoff_prev), so it sits at an endpoint of
    [start_floor, deadline - tau]; substituting the endpoint leaves a convex
    function g of tau alone, with slope V'(tau) + handoff_next (start at the
    floor) or + handoff_prev (end at the deadline). Where the window's
    ``root`` gives the root of that slope strictly inside (0, deadline -
    start_floor), energy is priced, so g is continuous at 0 (the payload
    vanishes with the window) and the root is its minimum: the stored window
    is derived from it and valued once, at its own length. Elsewhere g may
    jump at 0 (free energy buys the full payload in any window), so
    derivative_search's point is compared against both ends, and ties prefer
    the maximal window (start at the floor, end at the deadline).
    """
    # numpy scalars here would leak into every iterate and the decision
    handoff_prev, handoff_next = float(handoff_prev), float(handoff_next)
    window = model.window_fn(unit, float(loss_coeff) + float(err_coeff), float(energy_coeff))
    cf = handoff_next - handoff_prev
    deadline = unit.deadline
    at_floor = cf * start_floor
    lam = handoff_next if cf >= 0.0 else handoff_prev

    def g(tau: float) -> tuple[float, float, float, float, float]:  # with the payload, loss and energy
        a, value, slope, p, w = window(tau)
        start_term = at_floor if cf >= 0.0 else cf * (deadline - tau)
        return value + handoff_next * tau + start_term, slope + lam, a, p, w

    tau_max = deadline - start_floor
    root = getattr(window, "root", None)
    tau_star = None if root is None else root(lam)
    closed = tau_star is not None and 0.0 < tau_star < tau_max
    if not closed:
        tau_star, at = derivative_search(g, 0.0, tau_max)
    x_star = start_floor if cf >= 0.0 else max(deadline - tau_star, start_floor)
    # rounding in start + tau must not carry the end past the deadline, and
    # the payload must fit the stored window, whose length may differ by an ulp
    end = min(x_star + tau_star, deadline)
    if closed:
        obj, _, payload, p, w = g(end - x_star)
    else:
        obj, _, payload, p, w = at
        if end - x_star != tau_star:
            payload, _, _, p, w = window(end - x_star)
    return x_star, end, payload, obj, p, w


def upper_optimization(
    unit: DataUnit,
    price: float,
    handoff_prev: float,
    handoff_next: float,
    num_units: int,
    model: TransmissionModel,
) -> UnitSolution:
    """Full per-unit relaxed solve: window and payload against given prices.

    The objective is ``(impact*loss + price*cost)/num_units
    - handoff_prev*start + handoff_next*end``.
    """
    if num_units <= 0:
        raise ValueError(f"num_units must be positive, got {num_units}")
    m = float(num_units)
    start, end, payload, obj, _, _ = _unit_kernel(
        unit, model, unit.impact / m, 0.0, price / m, handoff_prev, handoff_next, unit.ready
    )
    return UnitSolution(CrossLayerDecision(start, end, payload), obj)


def price_update(price: float, avg_usage: float, budget: float, step: float) -> float:
    """Projected subgradient step on the budget multiplier."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if price < 0.0:
        raise ValueError(f"price must be nonnegative, got {price}")
    return max(price + step * (avg_usage - budget), 0.0)


def handoff_update(handoff: float, end_i: float, start_next: float, step: float) -> float:
    """Projected subgradient step on one FIFO-coupling multiplier."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if handoff < 0.0:
        raise ValueError(f"handoff price must be nonnegative, got {handoff}")
    return max(handoff + step * (end_i - start_next), 0.0)


# -- dependency-aware pieces -------------------------------------------------


def _graph_coeffs(
    index: int, graph, loss: Sequence[float], kept: Sequence[float]
) -> tuple[float, float]:
    """Ancestor survival A and descendant weight S of unit ``index``.

    ``loss`` and ``kept`` are indexed by unit (slot 0 unused), the layout of
    :class:`_ScheduleValues`: ``loss[k]`` is unit k's loss, which is also the
    error it propagates, and ``kept[j]`` the impact unit j keeps. A is the
    product of ``1 - loss[k]`` over the ancestors k; S sums, over the
    descendants j, ``kept[j]`` times the product of ``1 - loss[k]`` over the
    ancestors k of j other than ``index``, each product in the iteration order
    of the graph's ancestor sets (``graph.relatives``), as the graph's
    ``descendant_terms`` table lists them.
    """
    a_surv = 1.0
    for k in graph.relatives[0][index]:
        a_surv *= 1.0 - loss[k]
    s_weight = 0.0
    for j, others in graph.descendant_terms[index]:
        term = kept[j]
        for k in others:
            term *= 1.0 - loss[k]
        s_weight += term
    return a_surv, s_weight


def _neighbour_prices(mu: Sequence[float], i: int) -> tuple[float, float]:
    """The handoff prices before and after the unit at position ``i`` (0 at the ends)."""
    return (mu[i - 2] if i >= 2 else 0.0), (mu[i - 1] if i <= len(mu) else 0.0)


def _dag_coeffs(index: int, values: "_ScheduleValues") -> tuple[float, float]:
    """Coefficients (ancestor survival A, descendant weight S) for unit ``index``.

    With everyone else's decisions in ``values`` held fixed, the terms of the
    total distortion that vary with unit i's decision collapse to
    ``impact_i * p_i * A - (1 - p_i) * S``, with ``p_i`` unit i's loss.
    """
    return _graph_coeffs(index, values.graph, values.loss, values.kept)


def _solve_unit_dag(
    unit: DataUnit,
    price: float,
    handoff_prev: float,
    handoff_next: float,
    num_units: int,
    model: TransmissionModel,
    anc_survival: float,
    desc_weight: float,
) -> tuple[float, float, float, float, float, float]:
    """Per-unit relaxed solve with dependency-adjusted distortion terms, as
    :func:`_unit_kernel`'s (start, end, payload, objective, loss, energy).

    Objective (up to the constant -desc_weight/num_units):
    (impact*A*p + S*p)/M + price*w/M - handoff_prev*start + handoff_next*end.
    """
    m = float(num_units)
    return _unit_kernel(
        unit,
        model,
        unit.impact * anc_survival / m,
        desc_weight / m,
        price / m,
        handoff_prev,
        handoff_next,
        unit.ready,
    )


# -- whole-instance evaluation ----------------------------------------------


class _ScheduleValues:
    """The model's values of one schedule, refreshed one unit at a time.

    Slot i (1-based like graph nodes; slot 0 unused) holds unit i's loss,
    which is also the error it propagates to its descendants, kept impact
    ``impact * (1 - loss)`` and, if ``priced``, energy, from scalar model
    calls on ``decisions[i - 1]``, or from ``measured``, the per-unit
    (losses, energies) of those decisions when the caller already has them,
    taken in one pass; ``set`` re-values one unit. ``graph`` (None ignores the dependencies) is
    the one that the distortion and the coefficients use. The distortion is
    kept until the next ``set``."""

    def __init__(self, units: Sequence[DataUnit], graph, decisions: Sequence[CrossLayerDecision],
                 model: TransmissionModel, priced: bool = True,
                 measured: Optional[tuple[Sequence[float], Sequence[float]]] = None):
        if len(decisions) != len(units):
            raise ValueError(f"got {len(decisions)} decisions for {len(units)} units")
        self.units, self.graph, self.model = units, graph, model
        self.decisions = list(decisions)
        self._distortion = None
        if measured is None:
            n = len(units) + 1
            self.loss, self.kept = [0.0] * n, [0.0] * n
            self.cost = [0.0] * n if priced else None
            for i, dec in enumerate(self.decisions, start=1):
                self.set(i, dec)
        else:
            losses, energies = measured
            self.loss = [0.0, *losses]
            self.kept = [0.0, *[u.impact * (1.0 - p) for u, p in zip(units, losses)]]
            self.cost = [0.0, *energies] if priced else None

    def measure(self, i: int, dec: CrossLayerDecision) -> tuple:
        """Loss and energy (None unless priced) of unit i under ``dec``."""
        u, model = self.units[i - 1], self.model
        p = model.loss(u, dec.start, dec.end, dec.payload)
        return p, None if self.cost is None else model.cost(u, dec.start, dec.end, dec.payload)

    def set(self, i: int, dec: CrossLayerDecision, measured: Optional[tuple] = None) -> None:
        """Make ``dec`` unit i's decision; ``measured`` is its ``measure``, if known."""
        p, w = measured or self.measure(i, dec)
        self.decisions[i - 1] = dec
        self.loss[i], self.kept[i] = p, self.units[i - 1].impact * (1.0 - p)
        if self.cost is not None:
            self.cost[i] = w
        self._distortion = None

    def unit_distortion(self, i: int) -> float:
        """Expected distortion of unit i: its full impact unless it and every
        ancestor survive (``impact * loss`` without a graph or ancestors)."""
        losses = [self.loss[k] for k in self.graph.relatives[0][i]] if self.graph is not None else ()
        return _unit_distortion(self.units[i - 1].impact, self.loss[i], losses)

    def distortion(self) -> float:
        """Average expected distortion of the schedule."""
        if self._distortion is None:
            m = len(self.units)
            total = 0.0
            for i in range(1, m + 1):
                total += self.unit_distortion(i)
            self._distortion = total / m if m else 0.0
        return self._distortion

    def lagrangian(self, price: float, handoffs: Sequence[float], budget: float) -> float:
        """Distortion plus the priced budget and FIFO violations."""
        m = len(self.units)
        energy = sum(self.cost[1:]) / m if m else 0.0
        val = self.distortion() + price * (energy - budget)
        for i, mu in enumerate(handoffs):
            val += mu * (self.decisions[i].end - self.decisions[i + 1].start)
        return val


def instance_distortion(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    model: TransmissionModel,
) -> float:
    """Average expected distortion of a full schedule through the instance's
    graph, if it has one: :meth:`_ScheduleValues.distortion`."""
    return _ScheduleValues(inst.units, inst.graph, decisions, model, priced=False).distortion()


def average_energy(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    model: TransmissionModel,
) -> float:
    m = inst.num_units
    if len(decisions) != m:
        raise ValueError(f"got {len(decisions)} decisions for {m} units")
    if m == 0:
        return 0.0
    return sum(
        model.cost(u, d.start, d.end, d.payload) for u, d in zip(inst.units, decisions)
    ) / m


def _lagrangian_value(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    price: float,
    handoffs: Sequence[float],
    model: TransmissionModel,
) -> float:
    return _ScheduleValues(inst.units, inst.graph, decisions, model).lagrangian(
        price, handoffs, inst.budget
    )


# -- primal recovery ----------------------------------------------------------


# non-negative floats sort like their bit patterns
_F64, _BITS = struct.Struct("<d"), struct.Struct("<q")


def _largest_scale(usage: Callable[[float], float], budget: float, full: float) -> float:
    """The largest float ``s`` with ``usage(s) <= budget < usage(nextafter(s, 1))``,
    for ``usage`` non-decreasing on [0, 1] and ``usage(0) = 0 < budget < full = usage(1)``.

    Brent's zero-in on ``usage(s) - budget`` narrows the bracket
    ``usage(lo) <= budget < usage(hi)`` in at most 18 values, and bisection of
    its ends' bit patterns makes them adjacent in at most 62 more (floats in
    [0, 1] have bit patterns below 2**62).
    """
    lo, hi, passes = 0.0, 1.0, 0

    def excess(s: float) -> tuple[float, float]:
        nonlocal lo, hi, passes
        passes += 1
        if passes > 18:
            return s, 0.0  # a zero ends Brent's search
        over = usage(s) - budget
        # Brent values points inside its bracket, which is this one
        if over > 0.0:
            hi = s
        else:
            lo = s
        return s, over or -5e-324  # at usage == budget the float sought lies above

    brent_root(excess, 0.0, 1.0, (0.0, -budget), (1.0, full - budget), tol=0.0)
    lo_bits, hi_bits = (_BITS.unpack(_F64.pack(x))[0] for x in (lo, hi))
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if usage(_F64.unpack(_BITS.pack(mid))[0]) > budget:
            hi_bits = mid
        else:
            lo_bits = mid
    return _F64.unpack(_BITS.pack(lo_bits))[0]


def recover_primal(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    model: TransmissionModel,
    price: float = 0.0,
    handoff_prices: Optional[Sequence[float]] = None,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """Turn relaxed decisions into a feasible schedule and value it.

    Forward sweep: each start is floored at the previous (final) end; units
    whose window was actually moved get their end/payload re-optimized inside
    the clipped window under the current prices, everyone else passes through
    bit-exact. A unit with no room left before its deadline is dropped and
    leaves the floor where it was. If the budget still binds, payloads are
    scaled down by one common factor, the largest float whose average energy
    does not exceed the budget (``_largest_scale``). Re-optimized units weigh
    their loss through the instance's graph, if it has one, and so does the
    returned distortion.

    Each given decision is valued once (loss and energy), each dropped one
    once more, and every scaled one once (loss); a re-optimized unit takes
    the loss and energy its kernel solve returns, and the energy at scale 1
    is the sum of those energies. The dual loop hands over the values its
    relaxed step already has (``_recover``), so there a unit that passes
    through is not valued again.

    Raises ``ValueError`` on a budget that is NaN, zero or negative.
    """
    if not inst.budget > 0.0:
        raise ValueError(f"budget must be positive, got {inst.budget!r}")
    handoffs = tuple(handoff_prices) if handoff_prices is not None else (0.0,) * max(inst.num_units - 1, 0)
    return _recover(inst, decisions, model, price, handoffs)


def _recover(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    model: TransmissionModel,
    price: float,
    handoffs: Sequence[float],
    measured: Optional[tuple[Sequence[float], Sequence[float]]] = None,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """:func:`recover_primal` on a positive budget, with ``measured`` the
    per-unit (losses, energies) of ``decisions`` when they are known."""
    m = inst.num_units
    # holds the final decisions of the units before pos and the given ones after
    values = _ScheduleValues(inst.units, inst.graph, decisions, model, measured=measured)
    out = values.decisions
    if m == 0:
        return (), 0.0

    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if floor >= unit.deadline:
            # no feasible window left: the unit is dropped
            values.set(pos, CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0))
            continue
        hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
        a_surv, s_weight = (1.0, 0.0) if inst.graph is None else _dag_coeffs(pos, values)
        # a start coefficient hn - min(hn, 0) >= 0 keeps the start at the floor
        start, end, payload, _, p, w = _unit_kernel(
            unit, model, unit.impact * a_surv / m, s_weight / m, price / m, min(hn, 0.0), hn, floor
        )
        values.set(pos, CrossLayerDecision(start, end, payload), (p, w))
        prev_end = end

    # budget enforcement: uniform payload scaling, monotone in the scale; the
    # average energy at scale 1 is the sum of the energies already at hand
    if (full := sum(values.cost[1:]) / m) > inst.budget:
        cost, rows = model.cost, [(u, d.start, d.end, d.payload) for u, d in zip(inst.units, out)]

        def usage(scale: float) -> float:
            return sum([cost(u, start, end, scale * payload) for u, start, end, payload in rows]) / m

        scale = _largest_scale(usage, inst.budget, full)
        scaled = [CrossLayerDecision(d.start, d.end, scale * d.payload) for d in out]
        values = _ScheduleValues(inst.units, inst.graph, scaled, model, priced=False)

    return tuple(values.decisions), values.distortion()


def _recover_primal_grid(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    opts,
    grid: DecisionGrid,
    model: TransmissionModel,
    price: float,
    handoffs: Sequence[float],
    measured: tuple[Sequence[float], Sequence[float]],
    memo: dict,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """Lattice counterpart of recover_primal: the same forward sweep with
    repairs picked from the unit's lattice options, and the budget restored
    by shaving whole action steps, so the result stays on the lattice.

    The floor is the latest end so far, so that a drop, whose empty window
    sits at its deadline, never moves it back, and the local descent bounds
    each unit by the latest earlier end and the earliest later start. The
    schedule's values start from ``measured``, the per-unit (losses,
    energies) of ``decisions``, and a repair or a descent move takes those
    of its option row, so only drops and shaved payloads call the model. The
    restoration and the local descent read only the repaired schedule, not
    the prices, so ``memo`` (one dict per dual solve) keeps their result by
    the repaired decisions. On a graph a repair reads its coefficients
    (``_graph_coeffs``) from plain lists of the losses and kept impacts of
    ``measured``, with the losses of the repairs so far; descendants come
    later, so no repair reads the kept impact of an earlier one. A drop there
    is valued where it is made, since a later repair may read its loss. The
    schedule's values (:class:`_ScheduleValues`) are built only after a memo
    miss, on a graph or not, with the repairs replayed into them in order.

    Both the repair and each descent step are one :func:`_solve_unit_grid`
    call. ``opts`` are :meth:`DecisionGrid.options` tables, whose starts
    never decrease, so the rows that start at or after a bound are a
    suffix, found by ``searchsorted`` and sliced column by column. A repair
    scores that suffix at no previous handoff price, the impact times the
    survival, the descendant weight and the price each over ``m``, and the
    next handoff price. A descent step scores it by the impact times the
    survival and the descendant weight alone, masked to the rows within the
    budget and, where a later unit exists, ending by its start; an infinite
    least score means no such row, and the unit keeps its pick."""
    m, graph = inst.num_units, inst.graph
    out, repairs, losses, kept = list(decisions), [], None, None
    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor - _TINY and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if losses is None and graph is not None:
            # _ScheduleValues' layout: slot i holds unit i's loss and kept
            # impact. Descendants come later, so no repair reads the kept
            # impact of an earlier repair, only its loss
            losses = [0.0, *measured[0]]
            kept = [0.0, *(u.impact * (1.0 - p) for u, p in zip(inst.units, measured[0]))]
        starts, ends, payloads, loss, cost = opts[pos - 1]
        first = int(starts.searchsorted(floor - _TINY))
        if first == len(starts):
            fixed = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0)
            # a later repair's coefficients read the drop's loss
            pair = None if graph is None else (model.loss(unit, fixed.start, fixed.end, 0.0),
                                                model.cost(unit, fixed.start, fixed.end, 0.0))
        else:
            hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
            a_surv, s_weight = (1.0, 0.0) if graph is None else _graph_coeffs(pos, graph, losses, kept)
            suffix = starts[first:], ends[first:], payloads[first:], loss[first:], cost[first:]
            x, y, a, _, p, w = _solve_unit_grid(suffix, 0.0, hn, unit.impact * a_surv / m, s_weight / m, price / m)
            fixed, pair = CrossLayerDecision(x, y, a), (p, w)
        out[pos - 1] = fixed
        repairs.append((pos, fixed, pair))
        if losses is not None:
            losses[pos] = pair[0]
        prev_end = max(prev_end, fixed.end)
    repaired = tuple(out)
    if (known := memo.get(repaired)) is not None:
        return known
    values = _ScheduleValues(inst.units, graph, decisions, model, measured=measured)
    for pos, fixed, pair in repairs:
        values.set(pos, fixed, pair)
    out = values.decisions

    # budget restoration in whole action steps, largest spender first
    for _ in range(m * grid.action_points):
        costs = values.cost[1:]
        if sum(costs) / m <= inst.budget + _TINY:
            break
        i = max(range(m), key=lambda k: costs[k])
        d = out[i]
        step = grid.action_step(inst.units[i])
        values.set(i + 1, CrossLayerDecision(d.start, d.end, max(d.payload - step, 0.0)))

    # local descent on the true objective: each unit re-picks its lattice
    # option between the other units' boundaries while the budget allows; the
    # varying dual iterates feeding this sweep supply diverse starting points.
    # A unit's pick reads only the other units, so a unit that just moved, or
    # found nothing better, keeps its pick until another unit moves: the
    # descent ends once all m units in a row have been settled that way,
    # where a whole pass more would move nothing.
    budget_total = inst.budget * m
    settled = 0
    for _ in range(8 * m):
        for i in range(m):
            if settled == m:
                break
            settled += 1
            unit = inst.units[i]
            starts, ends, payloads, loss, cost = opts[i]
            lo = max((d.end for d in out[:i]), default=-math.inf)
            hi = min((d.start for d in out[i + 1 :]), default=math.inf)
            spent_elsewhere = sum(values.cost[1 : i + 1] + values.cost[i + 2 :])
            a_surv, s_weight = (1.0, 0.0) if inst.graph is None else _dag_coeffs(i + 1, values)
            first = 0 if lo == -math.inf else int(starts.searchsorted(lo - _TINY))
            if first == len(starts):
                continue
            suffix = starts[first:], ends[first:], payloads[first:], loss[first:], cost[first:]
            feas = cost[first:] <= budget_total - spent_elsewhere + _TINY
            if hi != math.inf:
                feas &= ends[first:] <= hi + _TINY
            x, y, a, best, p, w = _solve_unit_grid(suffix, 0.0, 0.0, unit.impact * a_surv, s_weight, 0.0, feas)
            cur = unit.impact * a_surv * values.loss[i + 1] + s_weight * values.loss[i + 1]
            if best < cur - 1e-12:
                values.set(i + 1, CrossLayerDecision(x, y, a), (p, w))
                settled = 1
        if settled == m:
            break

    memo[repaired] = tuple(out), values.distortion()
    return memo[repaired]


# the pair polish: at most this many passes over all pairs, and candidates
# within this many time / action steps of the incumbent
_POLISH_ROUNDS = 4
_POLISH_TIME_RADIUS = 3
_POLISH_PAY_RADIUS = 5


# the most totals one block of the polish's shave table holds (steps x candidates)
_SHAVE_CELLS = 1 << 16


def _undominated(x: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """The distinct pairs (x[r], y[r]) that no other pair matches or
    exceeds in both values, as plain floats."""
    if x.size == 0:
        return []
    top = x.max(), y.max()
    # mostly one pair holds both maxima
    if ((x == top[0]) & (y == top[1])).any():
        return [(float(top[0]), float(top[1]))]
    order = np.lexsort((-y, -x))
    ys = y[order]
    new = np.ones(ys.size, dtype=bool)
    new[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    return list(zip(x[order[new]].tolist(), ys[new].tolist()))


def _unit_order_sum(terms: list, i: int, x: float, k: int, y: float) -> float:
    """``terms`` summed in order from 0.0, with ``x`` at position i and ``y`` at k."""
    total = 0.0
    for q, term in enumerate(terms):
        total += x if q == i else y if q == k else term
    return total


def _shave(bystanders: dict, m: int, i: int, cost_i: np.ndarray, k: int, cost_k: np.ndarray,
           budget_total: float, limit: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The shave sequence that candidates over budget share, and where each fits.

    Candidate r spends ``cost_i[r]`` on unit i and ``cost_k[r]`` on unit k;
    ``bystanders`` maps every other unit to its :class:`_Bystander`, in unit
    order. Each step shaves the largest spender (ties to the lowest index),
    for at most ``limit`` steps and while a payload is left, and a candidate
    stops at the first step whose energy, summed in unit order, is within
    ``budget_total``. Returns the bystanders' levels after each step
    (``steps[0]`` the incumbent), whether each candidate fits and its stop,
    the last step for one that never fits.

    The sequence ends once every candidate has fit at some step. A total
    summed in unit order never falls as ``cost_i`` or ``cost_k`` grows, so a
    candidate fits no later than one whose two costs are both at least its
    own, and only the undominated ones are followed while the sequence is
    made. The candidates' stops then come from a steps x candidates table of
    totals, a block of steps at a time, so no step makes a numpy pass.
    """
    levels = dict.fromkeys(bystanders, 0)
    spends = {j: y.spend(0) for j, y in bystanders.items()}
    terms = [bystanders[q].cost[0] if q in bystanders else None for q in range(m)]
    steps = [tuple(levels.values())]
    pending = _undominated(cost_i, cost_k) if bystanders else []
    for _ in range(limit if pending else 0):
        j = max(spends, key=spends.get)
        if spends[j] == -math.inf:
            break
        levels[j] = n = levels[j] + 1
        ladder = bystanders[j]
        ladder.reach(n)
        spends[j], terms[j] = ladder.spend(n), ladder.cost[n]
        steps.append(tuple(levels.values()))
        pending = [(x, y) for x, y in pending if _unit_order_sum(terms, i, x, k, y) > budget_total]
        if not pending:
            break

    # the terms before the first bystander, p, are the same at every step
    p = min(bystanders, default=m)
    shaves = {q: np.array([bystanders[q].cost[lv[c]] for lv in steps[1:]])[:, None]
              for c, q in enumerate(bystanders)}
    fits, stops = np.zeros(cost_i.size, dtype=bool), np.zeros(cost_i.size, dtype=np.intp)
    left = np.arange(cost_i.size)
    block = max(1, _SHAVE_CELLS // max(cost_i.size, 1))
    for lo in range(1, len(steps), block):
        part = slice(lo - 1, min(lo + block, len(steps)) - 1)
        head = np.zeros(left.size)
        for q in range(p):
            head += cost_i if q == i else cost_k
        total = head + shaves[p][part]
        for q in range(p + 1, m):
            total += cost_i if q == i else cost_k if q == k else shaves[q][part]
        fit = total <= budget_total
        hit = fit.any(axis=0)
        fits[left] = hit
        stops[left] = np.where(hit, lo + fit.argmax(axis=0), len(steps) - 1)
        if hit.all():
            break
        left, cost_i, cost_k = left[~hit], cost_i[~hit], cost_k[~hit]
    return steps, fits, stops


class _Bystander:
    """A unit outside the pair being re-picked, shaved per candidate.

    Its payload ladder starts at the incumbent payload, and level n+1 has
    payload ``max(p_n - step, 0.0)``. Each level keeps the model's loss and
    energy from scalar calls, as valuing that decision directly would.
    ``level`` holds every candidate's level once the shaves are known.
    """

    def __init__(self, unit: DataUnit, dec: CrossLayerDecision, step: float, model: TransmissionModel):
        self.unit, self.dec, self.step, self.model = unit, dec, step, model
        self.payload: list[float] = []
        self.loss: list[float] = []
        self.cost: list[float] = []
        self.level: Optional[np.ndarray] = None
        self._add(dec.payload)

    def _add(self, payload: float) -> None:
        u, d, model = self.unit, self.dec, self.model
        self.payload.append(payload)
        self.loss.append(model.loss(u, d.start, d.end, payload))
        self.cost.append(model.cost(u, d.start, d.end, payload))

    def spend(self, level: int) -> float:
        """The energy at ``level``, or -inf where the payload is 0 and nothing is left to shave."""
        return self.cost[level] if self.payload[level] > 0.0 else -math.inf

    def reach(self, level: int) -> None:
        """Extend the ladder down to ``level``."""
        while len(self.payload) <= level:
            self._add(max(self.payload[-1] - self.step, 0.0))

    def decision(self, row: int) -> CrossLayerDecision:
        level = int(self.level[row])
        if level == 0:
            return self.dec
        return CrossLayerDecision(self.dec.start, self.dec.end, self.payload[level])


def _polish_grid_pairs(
    inst: Instance,
    decisions: Sequence[CrossLayerDecision],
    opts,
    grid: DecisionGrid,
    model: TransmissionModel,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """Pairwise lattice descent around an incumbent schedule.

    The coupling constraints are pairwise (FIFO between neighbors, one shared
    budget), so single-unit moves stall where a handoff boundary or a payload
    budget swap must move jointly. For adjacent pairs this re-picks
    (end_i, start_{i+1}, payload_i, payload_{i+1}) with the outer endpoints
    held fixed, and start_{i+1} no earlier than any earlier unit's end (unit
    i may be a drop whose empty window sits before it); distant pairs only
    swap payload at fixed windows. A candidate over budget may still buy its
    way in by shaving bystander payloads one action step at a time (largest
    spender first, ties to the lowest index, at most twice as many steps as
    unit i has options). Candidates stay
    within ``_POLISH_TIME_RADIUS`` time steps and ``_POLISH_PAY_RADIUS``
    action steps of the incumbent, scored by the true objective, for at most
    ``_POLISH_ROUNDS`` passes over all pairs.

    Each pair (i, k) is scored over all its candidates at once. Its
    candidates are the (row of i, row of k) combinations of the two option
    tables in a-major order: every row of k for the first row of i, then for
    the next. Units i and k are read from the tables, each bystander from a
    ladder of its shave levels (:class:`_Bystander`). Every candidate starts
    from the incumbent bystanders and the shave rule reads only their
    levels, so the candidates over budget share one shave sequence, and each
    stops at the first step whose energy, summed in unit order, fits
    (:func:`_shave`, which follows only the undominated candidates while it
    makes the sequence and then finds every stop in one table). As in the
    scan, the first budget test adds the pair's energies to the incumbent
    bystanders' sum, and only the later ones sum in unit order. The
    value applies ``_unit_distortion`` to those arrays in
    ``instance_distortion``'s order, so each score is bit-identical to
    valuing the candidate schedule alone. The first
    candidate in scan order that beats the incumbent by more than 1e-12 is
    accepted (first improvement) and the pair's remaining candidates are
    re-scored against the new incumbent, whose bystanders may have been
    shaved: the result is that of scanning the candidates one by one.
    """
    m = inst.num_units
    out = list(decisions)
    budget_total = inst.budget * m + 1e-9
    best = instance_distortion(inst, tuple(out), model)
    ancestors = inst.graph.relatives[0][1:] if inst.graph is not None else [()] * m

    def rows_near(idx: int, fix_start: bool, fix_end: bool):
        starts, ends, payloads = opts[idx][0], opts[idx][1], opts[idx][2]
        d = out[idx]
        t_rad = _POLISH_TIME_RADIUS * grid.time_step + _TINY
        p_rad = _POLISH_PAY_RADIUS * grid.action_step(inst.units[idx]) + _TINY
        keep = np.abs(payloads - d.payload) <= p_rad
        keep &= np.abs(starts - d.start) <= (_TINY if fix_start else t_rad)
        keep &= np.abs(ends - d.end) <= (_TINY if fix_end else t_rad)
        return np.flatnonzero(keep)

    def score(i: int, k: int, a: np.ndarray, b: np.ndarray):
        """Feasibility and value of each candidate, and the shaved bystanders."""
        bystanders = {
            j: _Bystander(inst.units[j], out[j], grid.action_step(inst.units[j]), model)
            for j in range(m)
            if j not in (i, k)
        }
        spent_elsewhere = sum(y.cost[0] for y in bystanders.values())
        cost_i, cost_k = opts[i][4][a], opts[k][4][b]
        feasible = spent_elsewhere + cost_i + cost_k <= budget_total
        rows = (~feasible).nonzero()[0]
        steps, fits, stops = _shave(bystanders, m, i, cost_i[rows], k, cost_k[rows], budget_total,
                                    2 * len(opts[i][2]))
        feasible[rows] = fits
        stop = np.zeros(a.size, dtype=np.intp)
        stop[rows] = stops

        losses = [None] * m
        for c, (j, y) in enumerate(bystanders.items()):
            y.level = np.array([lv[c] for lv in steps])[stop]
            losses[j] = np.array(y.loss)[y.level]
        losses[i], losses[k] = opts[i][3][a], opts[k][3][b]
        total = np.zeros(a.size)
        for q in range(m):
            above = [losses[anc - 1] for anc in ancestors[q]]
            total += _unit_distortion(inst.units[q].impact, losses[q], above)
        return feasible, total / m, bystanders

    for _ in range(_POLISH_ROUNDS):
        improved = False
        for i in range(m - 1):
            for k in range(i + 1, m):
                adjacent = k == i + 1
                ri = rows_near(i, fix_start=True, fix_end=not adjacent)
                rk = rows_near(k, fix_start=not adjacent, fix_end=True)
                if ri.size == 0 or rk.size == 0:
                    continue
                si, ei, pi = opts[i][:3]
                sk, ek, pk = opts[k][:3]
                right_bound = min((d.start for d in out[k + 1 :]), default=math.inf)
                a = np.repeat(ri, rk.size)
                b = np.tile(rk, ri.size)
                left_bound = sk[b] if adjacent else out[i + 1].start
                keep = ~(ei[a] > left_bound + _TINY)
                # an infinite bound (no unit after k, or none before an adjacent i) keeps every row
                if right_bound != math.inf:
                    keep &= ~(ek[b] > right_bound + _TINY)
                floor = max((d.end for d in out[:i]), default=-math.inf)
                if adjacent and floor != -math.inf:
                    keep &= ~(floor > sk[b] + _TINY)
                a, b = a[keep], b[keep]
                while a.size:
                    feasible, val, bystanders = score(i, k, a, b)
                    hits = np.flatnonzero(feasible & (val < best - 1e-12))
                    if hits.size == 0:
                        break
                    t = int(hits[0])
                    best = float(val[t])
                    out[i] = CrossLayerDecision(float(si[a[t]]), float(ei[a[t]]), float(pi[a[t]]))
                    out[k] = CrossLayerDecision(float(sk[b[t]]), float(ek[b[t]]), float(pk[b[t]]))
                    for j, y in bystanders.items():
                        out[j] = y.decision(t)
                    improved = True
                    a, b = a[t + 1 :], b[t + 1 :]
        if not improved:
            break
    return tuple(out), best


# -- the fixed-price FIFO dynamic program --------------------------------------

# window ends per unit in the FIFO DP, and its fixed-coefficient passes on a graph
_CYCLE_ENDS = 51
_DAG_PASSES = 3


@functools.lru_cache(maxsize=None)
def _ramp(n: int) -> np.ndarray:
    # operator.index refuses a float count, as np.linspace does
    ramp = np.arange(operator.index(n), dtype=float)
    ramp.flags.writeable = False
    return ramp


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` for n >= 2, as every caller passes: its
    arithmetic (the step, its zero-step branch for subnormal spans, the shift
    by ``lo`` and the exact last point) on a cached ramp, not a fresh ``arange``."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    y = _ramp(n) / div * delta if step == 0 else _ramp(n) * step
    y += lo
    y[-1] = hi
    return y


class _UnitWindows:
    """The windows that :func:`_fifo_dp` values, for one sequence of units at
    one floor and number of ends, shared by every DP over them.

    ``ends[k]`` is unit k's end grid, ``points`` evenly spaced times from
    ``max(ready, floor)`` to its deadline, or None where that interval is
    empty. :meth:`value` values the windows from the live start times to those
    ends at a loss weight and price. With ``keep`` it also keeps each unit's
    window table, with the start times and the mask of empty windows it was
    built on, and a later DP whose unit k starts from the same times only
    evaluates that table at its own weights; otherwise it calls ``window_vec``.
    """

    def __init__(self, units: Sequence[DataUnit], model: TransmissionModel, floor: float, points: int,
                 keep: bool):
        self.model = model
        self.ends = [_grid(lo, u.deadline, points) if (lo := max(u.ready, floor)) < u.deadline else None
                     for u in units]
        self.kept = [None] * len(units) if keep else None

    def value(self, k: int, unit: DataUnit, starts: np.ndarray, weight: float, price: float) -> tuple:
        """(payload, loss, energy, empty window) tables of unit k, one row per start."""
        if self.kept is None:
            taus = self.ends[k] - starts[:, None]
            return (*self.model.window_vec(unit, taus, weight, price), taus <= 0.0)
        kept, key = self.kept[k], starts.tobytes()
        if kept is None or kept[0] != key:
            taus = self.ends[k] - starts[:, None]
            kept = self.kept[k] = key, self.model.window_table(unit, taus), taus <= 0.0
        return (*kept[1](weight, price), kept[2])


def _fifo_dp(units: Sequence[DataUnit], weights: Sequence[float], price: float, model: TransmissionModel,
             floor: float, points: int = _CYCLE_ENDS,
             windows: Optional[_UnitWindows] = None) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """The cheapest FIFO schedule of ``units`` at fixed loss weights and price.

    Minimizes the sum of ``weights[i] * loss + price * energy``. Each unit
    sends nothing, or ends on one of ``points`` evenly spaced times from
    ``max(ready, floor)`` to its deadline, starts at ``max(ready, link-free
    time)`` and sends ``window_vec``'s payload. The state is the time the link
    becomes free: one valuation per unit values every (state, end) pair,
    sending nothing keeps the state (with an empty window there, or at the
    deadline if that has passed), and a state free no earlier than another at
    no lower cost is pruned, so the last state kept is the optimum. Returns
    the decisions and the time the link becomes free after them. ``windows``,
    built on the same units, model, floor and points, carries the valuations
    from one DP to the next; without it each unit calls ``window_vec``.

    A unit's candidates are its live states, which keep their time (sending
    nothing), then its ends, each reached from the state of least cost (the
    row argmin of the value table). Only their times and costs are
    concatenated and pruned; the unit keeps its first live state, starts,
    idle times, ends, row argmins, payload table and kept indices, and the
    backtrack resolves the parent, window and payload of the one candidate
    it picks per unit.
    """
    if windows is None:
        windows = _UnitWindows(units, model, floor, points, keep=False)
    times, costs, steps = np.array([floor]), np.array([0.0]), []
    for k, (unit, w) in enumerate(zip(units, weights)):
        # ready times do not decrease, so of the states free by this ready
        # time the last, cheapest one stands for all, for every later unit too
        first = max(int(times.searchsorted(unit.ready, "right")) - 1, 0)
        starts, base = np.maximum(times[first:], unit.ready), costs[first:]
        t, c, ends, rows, payloads = starts, base + w, windows.ends[k], None, None
        if ends is not None:
            payloads, loss, energy, empty = windows.value(k, unit, starts, w, price)
            vals = base[:, None] + (w * loss + price * energy)
            np.putmask(vals, empty, math.inf)
            rows = vals.argmin(axis=0)
            t, c = np.concatenate((t, ends)), np.concatenate((c, vals.min(axis=0)))
        order = np.lexsort((c, t))
        ordered = c[order]
        keep = order[ordered < np.minimum.accumulate(np.concatenate(((math.inf,), ordered[:-1])))]
        times, costs = t[keep], c[keep]
        steps.append((first, starts, np.minimum(starts, unit.deadline), ends, rows, payloads, keep))
    decisions, state = [], len(times) - 1
    for first, starts, idle, ends, rows, payloads, keep in reversed(steps):
        j = int(keep[state])
        if j < len(starts):
            decisions.append(CrossLayerDecision(float(idle[j]), float(idle[j]), 0.0))
            state = first + j
        else:
            j -= len(starts)
            row = int(rows[j])
            decisions.append(CrossLayerDecision(float(starts[row]), float(ends[j]), float(payloads[row, j])))
            state = first + row
    return tuple(reversed(decisions)), float(times[-1])


def _solve_cycle_fixed_price(
    units: Sequence[DataUnit], graph: Optional[DependencyGraph], price: float, model: TransmissionModel,
    start_floor: float,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """Clairvoyant solve of one cycle at a fixed budget price, starting no
    earlier than ``start_floor``: one :func:`_fifo_dp` at the units' impacts.
    With a graph that schedule seeds up to ``_DAG_PASSES`` passes, each at the
    weights ``impact * A + S`` that ``_dag_coeffs`` reads from the previous
    schedule, and the schedule with the lowest cycle Lagrangian (distortion
    through the graph plus the priced energy) is kept. The end grids are
    built once per cycle; with a graph each unit's window table is kept too,
    and a pass whose unit starts from the same times as the last pass only
    evaluates it at the new weight. Returns the decisions and the time the
    link becomes free after them."""
    windows = _UnitWindows(units, model, start_floor, _CYCLE_ENDS, keep=graph is not None)
    best = solved = _fifo_dp(units, [u.impact for u in units], price, model, start_floor, _CYCLE_ENDS, windows)
    if graph is None:
        return best
    values = _ScheduleValues(units, graph, solved[0], model)
    best_value = values.lagrangian(price, (), 0.0)
    for _ in range(_DAG_PASSES):
        coeffs = [_dag_coeffs(i, values) for i in range(1, len(units) + 1)]
        again = _fifo_dp(units, [u.impact * a + s for u, (a, s) in zip(units, coeffs)], price, model, start_floor,
                         _CYCLE_ENDS, windows)
        if again[0] == solved[0]:
            break
        solved, values = again, _ScheduleValues(units, graph, again[0], model)
        if (value := values.lagrangian(price, (), 0.0)) < best_value:
            best, best_value = solved, value
    return best


# -- full solvers -------------------------------------------------------------

_EMPTY_REPORT = SolveReport((), 0.0, 0.0, 0.0, 0, 0, True, 0.0, ())


def _require_valid(inst: Instance) -> None:
    """Raise ``ValueError`` naming the first issue ``validate_instance`` finds."""
    check = validate_instance(inst)
    if not check.ok:
        raise ValueError(f"invalid instance: {check.issues[0]}")


def _require_settings(max_outer: int, alpha0: float, beta0: float, epsilon: float,
                      gap_tol: Optional[float], max_inner: int = 1, inner_epsilon: float = 0.0) -> None:
    """Raise ``ValueError`` unless the iteration caps are integers >= 1, the step
    constants positive and finite and the tolerances non-negative (or None)."""
    for name, value in (("max_outer", max_outer), ("max_inner", max_inner)):
        _require_count(name, value, 1)
    for name, value in (("alpha0", alpha0), ("beta0", beta0)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (("epsilon", epsilon), ("inner_epsilon", inner_epsilon), ("gap_tol", gap_tol)):
        if value is not None and not value >= 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")


def _unit_solver(inst: Instance, model: TransmissionModel, opts):
    """``solve(i, price, mu, a_surv=1, s_weight=0)`` for the unit at position
    ``i`` against the budget price and the handoff prices ``mu``, of which it
    reads the two around the unit. Both solvers' relaxed steps go through it.
    It returns a plain (start, end, payload, objective, loss, energy) tuple:
    the lattice argmin over ``opts`` with the loss and energy of its option
    row, else the continuous solve, which goes through the module-level
    ``_solve_unit_dag`` looked up at call time and values its decision where
    it makes it."""
    m = inst.num_units
    if opts is None:

        def solve(i, price, mu, a_surv=1.0, s_weight=0.0):
            hp, hn = _neighbour_prices(mu, i)
            return _solve_unit_dag(inst.units[i - 1], price, hp, hn, m, model, a_surv, s_weight)

    else:

        def solve(i, price, mu, a_surv=1.0, s_weight=0.0):
            hp, hn = _neighbour_prices(mu, i)
            impact = inst.units[i - 1].impact
            return _solve_unit_grid(opts[i - 1], hp, hn, impact * a_surv / m, s_weight / m, price / m)

    return solve


def _handoff_norm(v: Sequence[float]) -> float:
    """``float(np.linalg.norm(v))`` bit for bit. numpy takes the square root
    of ``v.dot(v)``: with one element that is a single product, so plain
    floats give the same bits, while a longer dot keeps numpy's summation
    order (and its overflow warning), so a longer vector still goes through
    numpy."""
    if len(v) > 1:
        return float(np.linalg.norm(v))
    return math.sqrt(v[0] * v[0]) if v else 0.0


def _dual_loop(
    inst: Instance, model: TransmissionModel, relax: Callable, opts, grid: Optional[DecisionGrid],
    *, epsilon: float, max_outer: int, alpha0: float, beta0: float,
    gap_tol: Optional[float],
) -> SolveReport:
    """The outer loop of both dual solvers: the price and handoff masters.

    Each iteration takes the relaxed step ``relax(k, price, mu)`` ->
    (decisions, dual value, sweeps, (losses, energies)), the last pair the
    per-unit loss and energy of the decisions, so that nothing here values a
    decision again: the price step's usage is the energies summed in unit
    order (``average_energy``'s sum), and the continuous recovery
    (``_recover``) takes both and values only the units it drops. It then
    recovers a feasible schedule from the decisions, keeps the best primal
    and dual values, and moves the budget price and the handoff prices by
    projected subgradient steps alpha0/k and beta0/k. It stops when the
    multipliers move by at most ``epsilon`` or the best relative gap reaches
    ``gap_tol``, when given. On a lattice the best schedule is finally
    polished by pairwise lattice descent.

    The trajectory's handoff norm and the norm of the handoff step are
    numpy's, bit for bit (:func:`_handoff_norm`). The step's norm is taken
    only when the price moved by at most ``epsilon``: adding a norm, never
    negative, cannot bring a larger move back under it.
    """
    m = inst.num_units
    price = 0.0
    # plain floats: numpy scalars would leak into the Lagrangian and the report
    mu = (0.0,) * max(m - 1, 0)
    best_dual = -math.inf
    best_primal = math.inf
    best_decisions = tuple(CrossLayerDecision(u.deadline, u.deadline, 0.0) for u in inst.units)
    rows: list[IterationRow] = []
    converged = False
    inner_total = 0
    memo = None if opts is None else {}

    for k in range(1, max_outer + 1):
        decisions, dual_value, sweeps, measured = relax(k, price, mu)
        inner_total += sweeps
        avg_usage = sum(measured[1]) / m
        if opts is None:
            primal_decisions, primal_value = _recover(inst, decisions, model, price, mu, measured)
        else:
            primal_decisions, primal_value = _recover_primal_grid(
                inst, decisions, opts, grid, model, price, mu, measured, memo
            )
        best_dual = max(best_dual, dual_value)
        if primal_value < best_primal:
            best_primal = primal_value
            best_decisions = primal_decisions
        gap = (best_primal - best_dual) / max(abs(best_dual), _TINY)
        rows.append(IterationRow(k, dual_value, primal_value, gap, price, _handoff_norm(mu), sweeps))

        usage = min(avg_usage, _USAGE_CLIP_FACTOR * inst.budget)
        new_price = price_update(price, usage, inst.budget, alpha0 / k)
        new_mu = tuple(
            handoff_update(mu[i], decisions[i].end, decisions[i + 1].start, beta0 / k)
            for i in range(m - 1)
        )
        delta = abs(new_price - price)
        # adding a norm, never negative, cannot bring a larger delta back under epsilon
        if delta <= epsilon:
            delta += _handoff_norm([a - b for a, b in zip(new_mu, mu)])
        price, mu = new_price, new_mu
        if (gap_tol is not None and gap <= gap_tol) or delta <= epsilon:
            converged = True
            break

    if opts is not None:
        polished, pval = _polish_grid_pairs(inst, best_decisions, opts, grid, model)
        if pval < best_primal:
            best_primal, best_decisions = pval, polished

    return SolveReport(
        decisions=tuple(best_decisions),
        dual_value=best_dual,
        primal_value=best_primal,
        gap=(best_primal - best_dual) / max(abs(best_dual), _TINY),
        outer_iterations=k,
        inner_iterations=inner_total,
        converged=converged,
        price=price,
        handoff_prices=mu,
        trajectory=tuple(rows),
    )


def solve_independent(
    inst: Instance,
    model: TransmissionModel,
    *,
    epsilon: float = 1e-3,
    max_outer: int = 2000,
    alpha0: float = 0.5,
    beta0: float = 1000.0,
    gap_tol: Optional[float] = None,
    grid: Optional[DecisionGrid] = None,
) -> SolveReport:
    """Dual solve for units with no dependencies.

    The instance's graph, if any, is dropped once the instance is validated,
    so the report is that of the graph-free copy. Every other evaluator here
    reads the instance's graph: callers who want graph-free values from them
    pass a graph-free :class:`Instance`.

    Outer loop: per-unit relaxed solves at the current prices, projected
    subgradient updates with steps alpha0/k and beta0/k, stopping when the
    multiplier movement drops below ``epsilon`` (or the best relative gap
    reaches ``gap_tol``, when given). Reports the best feasible schedule and
    best dual value seen. With ``grid`` every subproblem is an exact argmin
    over the unit's lattice options and the recovered primal stays on the
    lattice. ``ValueError`` is raised before any work for an instance that
    ``validate_instance`` rejects, ``max_outer < 1``, a step constant that is
    not positive and finite, or a negative or NaN tolerance.
    """
    check_model(model)
    _require_settings(max_outer, alpha0, beta0, epsilon, gap_tol)
    _require_valid(inst)
    inst = Instance(inst.units, inst.budget)
    m = inst.num_units
    if m == 0:
        return _EMPTY_REPORT
    opts = None if grid is None else [grid.options(u, model) for u in inst.units]
    solve = _unit_solver(inst, model, opts)

    def relax(k, price, mu):
        starts, ends, payloads, objs, losses, energies = zip(*[solve(i, price, mu) for i in range(1, m + 1)])
        decisions = list(map(CrossLayerDecision, starts, ends, payloads))
        return decisions, sum(objs) - price * inst.budget, 1, (losses, energies)

    return _dual_loop(
        inst, model, relax, opts, grid, epsilon=epsilon, max_outer=max_outer,
        alpha0=alpha0, beta0=beta0, gap_tol=gap_tol,
    )


def solve_interdependent(
    inst: Instance,
    model: TransmissionModel,
    *,
    epsilon: float = 1e-3,
    max_outer: int = 2000,
    max_inner: int = 50,
    inner_epsilon: float = 1e-6,
    alpha0: float = 0.5,
    beta0: float = 1000.0,
    gap_tol: Optional[float] = None,
    sweep_log: Optional[list] = None,
    grid: Optional[DecisionGrid] = None,
) -> SolveReport:
    """Dual solve for graph-coupled units via block coordinate descent.

    The outer loop is that of :func:`solve_independent`. Within each outer
    iteration the per-unit subproblems are swept in index order against the
    current decisions of everyone else (warm-started from the previous outer
    iteration), at most ``max_inner`` times and until the relaxed objective
    moves by less than ``inner_epsilon``; a candidate is accepted only when
    it lowers the unit's local objective, so the relaxed objective is
    non-increasing sweep over sweep. The coefficients, local objectives and
    relaxed objective are read from a :class:`_ScheduleValues` cache, which
    re-values only the unit a candidate replaces. ``sweep_log``, when given,
    receives (outer_k, sweep_index, relaxed objective) tuples. With ``grid``
    the subproblems are exact argmins over lattice options and the recovered
    primal stays on the lattice. Invalid arguments, ``max_inner < 1`` and a
    negative or NaN ``inner_epsilon`` raise as in :func:`solve_independent`.
    """
    check_model(model)
    _require_settings(max_outer, alpha0, beta0, epsilon, gap_tol, max_inner, inner_epsilon)
    _require_valid(inst)
    m = inst.num_units
    if m == 0:
        return _EMPTY_REPORT
    if inst.graph is None:
        raise ValueError("solve_interdependent requires an instance with a graph")
    opts = None if grid is None else [grid.options(u, model) for u in inst.units]
    solve = _unit_solver(inst, model, opts)
    if opts is None:
        # an empty window can send nothing: its full payload would cost infinite energy
        decisions = [
            CrossLayerDecision(u.ready, u.deadline, u.size if u.deadline > u.ready else 0.0)
            for u in inst.units
        ]
    else:
        # warm start must live on the lattice or it can survive the sweeps
        decisions = [CrossLayerDecision(*solve(i, 0.0, (0.0,) * (m - 1))[:3]) for i in range(1, m + 1)]

    values = _ScheduleValues(inst.units, inst.graph, decisions, model)
    units, loss, cost, current = inst.units, values.loss, values.cost, values.decisions

    def relax(k, price, mu):
        g_prev = values.lagrangian(price, mu, inst.budget)
        for sweep in range(max_inner):
            for i in range(1, m + 1):
                a_surv, s_weight = _dag_coeffs(i, values)
                x, y, a, _, p, w = solve(i, price, mu, a_surv, s_weight)
                hp, hn = _neighbour_prices(mu, i)
                impact, inc, p0 = units[i - 1].impact, current[i - 1], loss[i]
                # the unit's term of the relaxed Lagrangian under the candidate and the incumbent
                term = (impact * a_surv * p + s_weight * p + price * w) / m - hp * x + hn * y
                if term < (impact * a_surv * p0 + s_weight * p0 + price * cost[i]) / m - hp * inc.start + hn * inc.end:
                    values.set(i, CrossLayerDecision(x, y, a), (p, w))
            g_now = values.lagrangian(price, mu, inst.budget)
            if sweep_log is not None:
                sweep_log.append((k, sweep, g_now))
            settled = abs(g_prev - g_now) < inner_epsilon
            g_prev = g_now
            if settled:
                break
        return current, g_prev, sweep + 1, (loss[1:], cost[1:])

    return _dual_loop(
        inst, model, relax, opts, grid, epsilon=epsilon, max_outer=max_outer,
        alpha0=alpha0, beta0=beta0, gap_tol=gap_tol,
    )


def report_to_csv(report: SolveReport, path: Union[str, Path], note: str = "") -> None:
    """Write the outer-iteration trajectory as CSV (atomically)."""
    lines = []
    if note:
        lines.append(f"# {note}")
    lines.append("k,dual_value,primal_value,gap,price,handoff_norm,inner_iterations")
    for r in report.trajectory:
        lines.append(
            f"{r.k},{r.dual_value!r},{r.primal_value!r},{r.gap!r},{r.price!r},{r.handoff_norm!r},{r.inner_iterations}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n")
