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
that slope in closed form (Lambert W): the search values the window there
and at both ends. Elsewhere (a binding energy cap, unpriced energy) it is a
bracketed root-find on the slope, about eight values per unit. A unit's loss
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
a plain (start, end, payload, objective) tuple; a relaxed step values each
of its decisions with one ``loss`` and one ``cost`` call (a lattice step
reads both from the option row) and hands the outer loop the per-unit loss
and energy with the decisions. The price step sums those energies, and the
recovery starts from them and values only the units it moves and the
payloads it scales. ``CrossLayerDecision`` objects are built only for the
decisions a step returns or a sweep accepts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    CrossLayerDecision,
    DataUnit,
    Instance,
    IterationRow,
    SolveReport,
    validate_instance,
    write_text_atomic,
)
from .models import TransmissionModel, _unit_distortion, check_model
from .search import _with_corners, brent_root, derivative_search
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

# column of a DecisionGrid.options table holding each per-option value
_OPT_COLUMN = {"payload": 2, "loss": 3, "cost": 4}

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
        points = self.action_points
        if isinstance(points, bool) or not isinstance(points, (int, np.integer)) or points < 2:
            raise ValueError(f"action_points must be an integer of at least 2, got {points!r}")

    def action_step(self, unit: DataUnit) -> float:
        return unit.size / (self.action_points - 1)

    def options(self, unit: DataUnit, model: TransmissionModel):
        """All finite-cost (start, end, payload) choices of one unit.

        Returns five parallel arrays: starts, ends, payloads, and the model's
        loss and energy values at each choice, valued once per distinct window
        length and payload. Choices whose energy exceeds the model's
        per-transmission cap are removed. Choices run start-major, then end,
        then payload, and no time point lies past the deadline:
        ``ready + k*time_step`` can overshoot it by an ulp, so the points are
        clamped to it.
        """
        span = unit.deadline - unit.ready
        n_steps = int(math.floor(span / self.time_step + 1e-9))
        times = np.minimum(unit.ready + self.time_step * np.arange(n_steps + 1), unit.deadline)
        actions = np.linspace(0.0, unit.size, self.action_points)

        xi, yi = np.triu_indices(len(times))
        starts = np.repeat(times[xi], len(actions))
        ends = np.repeat(times[yi], len(actions))
        payloads = np.tile(actions, len(xi))

        # scalar calls (the vector model differs from them in the last ulp),
        # once per distinct window length at a window of that length
        _, first, inverse = np.unique(times[yi] - times[xi], return_index=True, return_inverse=True)
        windows = [(times[xi[w]], times[yi[w]]) for w in first]
        loss = np.array([[model.loss(unit, x, y, a) for a in actions] for x, y in windows])[inverse].ravel()
        cost = np.array([[model.cost(unit, x, y, a) for a in actions] for x, y in windows])[inverse].ravel()

        keep = np.isfinite(cost)
        cap = getattr(getattr(model, "params", None), "energy_cap", None)
        if cap is not None:
            keep &= cost <= cap + 1e-12
        return starts[keep], ends[keep], payloads[keep], loss[keep], cost[keep]


def _solve_unit_grid(
    opts,
    handoff_prev: float,
    handoff_next: float,
    loss_coeff: float,
    err_coeff: float,
    energy_coeff: float,
) -> tuple[float, float, float, float, float, float]:
    """Exact per-unit relaxed solve over precomputed grid options.

    Same objective as the continuous path:
    loss_coeff*p + err_coeff*p + energy_coeff*w - handoff_prev*start
    + handoff_next*end; argmin ties resolve to the earliest window. Returns
    the option row's (start, end, payload), its objective, loss and energy.
    """
    starts, ends, payloads, loss, cost = opts
    vals = loss_coeff * loss + err_coeff * loss + energy_coeff * cost
    obj = vals - handoff_prev * starts + handoff_next * ends
    j = int(np.argmin(obj))
    return (float(starts[j]), float(ends[j]), float(payloads[j]), float(obj[j]),
            float(loss[j]), float(cost[j]))


def _unit_kernel(
    unit: DataUnit,
    model: TransmissionModel,
    loss_coeff: float,
    err_coeff: float,
    energy_coeff: float,
    handoff_prev: float,
    handoff_next: float,
    start_floor: float,
) -> tuple[float, float, float, float]:
    """The continuous per-unit relaxed solve every solver path shares, as a
    plain (start, end, payload, objective) tuple.

    Minimizes loss_coeff*p + err_coeff*p + energy_coeff*w - handoff_prev*start
    + handoff_next*end over windows inside [start_floor, deadline] and their
    payloads, where p is the unit's loss and also the error it propagates to
    its descendants. ``window_fn`` gives, per window length tau, the payload
    argmin, the window value V(tau) and its slope for the merged weight
    loss_coeff + err_coeff; V depends on the window only through its length.

    For fixed tau the start time enters linearly with coefficient
    (handoff_next - handoff_prev), so it sits at an endpoint of
    [start_floor, deadline - tau]; substituting the endpoint leaves a convex
    function g of tau alone, with slope V'(tau) + handoff_next (start at the
    floor) or + handoff_prev (end at the deadline). Its root is the window's
    ``root`` where that gives one inside the window, else derivative_search's,
    and it is compared against both ends. Ties prefer the maximal window
    (start at the floor, end at the deadline).
    """
    # numpy scalars here would leak into every iterate and the decision
    handoff_prev, handoff_next = float(handoff_prev), float(handoff_next)
    window = model.window_fn(unit, float(loss_coeff) + float(err_coeff), float(energy_coeff))
    cf = handoff_next - handoff_prev
    deadline = unit.deadline
    at_floor = cf * start_floor
    lam = handoff_next if cf >= 0.0 else handoff_prev

    def g(tau: float) -> tuple[float, float, float]:  # with the payload argmin
        a, value, slope = window(tau)
        start_term = at_floor if cf >= 0.0 else cf * (deadline - tau)
        return value + handoff_next * tau + start_term, slope + lam, a

    tau_max = deadline - start_floor
    root = getattr(window, "root", None)
    tau_c = None if root is None else root(lam)
    if tau_c is not None and 0.0 < tau_c < tau_max:
        tau_star, (obj, _, payload) = _with_corners(0.0, g(0.0), tau_max, g(tau_max), tau_c, g(tau_c))
    else:
        tau_star, (obj, _, payload) = derivative_search(g, 0.0, tau_max)
    x_star = start_floor if cf >= 0.0 else max(deadline - tau_star, start_floor)
    # rounding in start + tau must not carry the end past the deadline, and
    # the payload must fit the stored window, whose length may differ by an ulp
    end = min(x_star + tau_star, deadline)
    if end - x_star != tau_star:
        payload = window(end - x_star)[0]
    return x_star, end, payload, obj


def _solve_unit(
    unit: DataUnit,
    model: TransmissionModel,
    loss_coeff: float,
    err_coeff: float,
    energy_coeff: float,
    handoff_prev: float,
    handoff_next: float,
    start_floor: float,
) -> UnitSolution:
    """:func:`_unit_kernel` with its result as a :class:`UnitSolution`."""
    start, end, payload, obj = _unit_kernel(
        unit, model, loss_coeff, err_coeff, energy_coeff, handoff_prev, handoff_next, start_floor
    )
    return UnitSolution(CrossLayerDecision(start, end, payload), obj)


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
    return _solve_unit(
        unit, model, unit.impact / m, 0.0, price / m, handoff_prev, handoff_next, unit.ready
    )


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
) -> tuple[float, float, float, float]:
    """Per-unit relaxed solve with dependency-adjusted distortion terms, as
    :func:`_unit_kernel`'s (start, end, payload, objective).

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
    (losses, energies) of those decisions when the caller already has them;
    ``set`` re-values one unit. ``graph`` (None ignores the dependencies) is
    the one that the distortion and the coefficients use. The distortion is
    kept until the next ``set``."""

    def __init__(self, units: Sequence[DataUnit], graph, decisions: Sequence[CrossLayerDecision],
                 model: TransmissionModel, priced: bool = True,
                 measured: Optional[tuple[Sequence[float], Sequence[float]]] = None):
        if len(decisions) != len(units):
            raise ValueError(f"got {len(decisions)} decisions for {len(units)} units")
        self.units, self.graph, self.model = units, graph, model
        self.decisions = list(decisions)
        n = len(units) + 1
        self.loss, self.kept = [0.0] * n, [0.0] * n
        self.cost = [0.0] * n if priced else None
        self._distortion = None
        pairs = zip(*measured) if measured is not None else [None] * len(units)
        for i, pair in enumerate(pairs, start=1):
            self.set(i, self.decisions[i - 1], pair)

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

    Each given decision is valued once (loss and energy), each re-optimized
    or dropped one once more, and every scaled one once (loss); the energy at
    scale 1 is the sum of those energies. The dual loop hands over the values
    its relaxed step already has (``_recover``), so there a unit that passes
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
        start, end, payload, _ = _unit_kernel(
            unit, model, unit.impact * a_surv / m, s_weight / m, price / m, min(hn, 0.0), hn, floor
        )
        values.set(pos, CrossLayerDecision(start, end, payload))
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
    memo: dict,
) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """Lattice counterpart of recover_primal: the same forward sweep with
    repairs picked from the unit's lattice options, and the budget restored
    by shaving whole action steps, so the result stays on the lattice.

    The floor is the latest end so far, so that a drop, whose empty window
    sits at its deadline, never moves it back, and the local descent bounds
    each unit by the latest earlier end and the earliest later start. The
    restoration and the local descent read only the repaired schedule, not
    the prices, so ``memo`` (one dict per dual solve) keeps their result by
    the repaired decisions. The schedule's values are built only where they
    are read: at the first repair on a graph, whose dependency coefficients
    read them, and otherwise after a memo miss."""
    m = inst.num_units
    out, values = list(decisions), None
    prev_end = -math.inf
    for pos, (unit, dec) in enumerate(zip(inst.units, decisions), start=1):
        floor = max(unit.ready, prev_end)
        if dec.start >= floor - _TINY and dec.end >= dec.start:
            prev_end = dec.end
            continue
        if values is None and inst.graph is not None:
            values = _ScheduleValues(inst.units, inst.graph, out, model)
        starts, ends, payloads, loss, cost = opts[pos - 1]
        feas = starts >= floor - _TINY
        if not feas.any():
            fixed = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0)
        else:
            hn = handoffs[pos - 1] if pos - 1 < len(handoffs) else 0.0
            a_surv, s_weight = (1.0, 0.0) if values is None else _dag_coeffs(pos, values)
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
        if sum(costs) / m <= inst.budget + _TINY:
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
            score = unit.impact * a_surv * loss + s_weight * loss
            feas = (
                (starts >= lo - _TINY)
                & (ends <= hi + _TINY)
                & (cost <= budget_total - spent_elsewhere + _TINY)
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


# the pair polish: at most this many passes over all pairs, and candidates
# within this many time / action steps of the incumbent
_POLISH_ROUNDS = 4
_POLISH_TIME_RADIUS = 3
_POLISH_PAY_RADIUS = 5


class _Bystander:
    """A unit outside the pair being re-picked, shaved per candidate.

    Its payload ladder starts at the incumbent payload, and level n+1 has
    payload ``max(p_n - step, 0.0)``. Each level keeps the model's loss and
    energy from scalar calls, as valuing that decision directly would.
    ``level`` holds every candidate's current level.
    """

    def __init__(self, unit: DataUnit, dec: CrossLayerDecision, step: float,
                 model: TransmissionModel, candidates: int):
        self.unit, self.dec, self.step, self.model = unit, dec, step, model
        self.payload: list[float] = []
        self.loss: list[float] = []
        self.cost: list[float] = []
        self.level = np.zeros(candidates, dtype=np.intp)
        self._add(dec.payload)

    def _add(self, payload: float) -> None:
        u, d, model = self.unit, self.dec, self.model
        self.payload.append(payload)
        self.loss.append(model.loss(u, d.start, d.end, payload))
        self.cost.append(model.cost(u, d.start, d.end, payload))

    def at(self, field: str, rows) -> np.ndarray:
        """``field`` at the current level of the candidates in ``rows``."""
        return np.asarray(getattr(self, field))[self.level[rows]]

    def shave(self, rows: np.ndarray) -> None:
        """One action step off the payload of the candidates in ``rows``."""
        if rows.size:
            self.level[rows] += 1
            deepest = int(self.level[rows].max())
            while len(self.payload) <= deepest:
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

    Each pair (i, k) is scored in one numpy pass. Its candidates are the
    (row of i, row of k) combinations of the two option tables in a-major
    order: every row of k for the first row of i, then for the next. Units
    i and k are read from the tables, each bystander from a ladder of its
    shave levels (:class:`_Bystander`), and the value applies
    ``_unit_distortion`` to those arrays in ``instance_distortion``'s order, so
    each score is bit-identical to valuing the candidate schedule alone. The first
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
            j: _Bystander(inst.units[j], out[j], grid.action_step(inst.units[j]), model, a.size)
            for j in range(m)
            if j not in (i, k)
        }
        spent_elsewhere = sum(y.cost[0] for y in bystanders.values())

        def column(q: int, field: str, rows):
            if q == i:
                return opts[i][_OPT_COLUMN[field]][a[rows]]
            if q == k:
                return opts[k][_OPT_COLUMN[field]][b[rows]]
            return bystanders[q].at(field, rows)

        every = slice(None)
        feasible = spent_elsewhere + column(i, "cost", every) + column(k, "cost", every) <= budget_total
        pending = ~feasible
        # without bystanders nothing can be shaved
        for _ in range(2 * len(opts[i][2]) if bystanders else 0):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            cost = np.column_stack([y.at("cost", rows) for y in bystanders.values()])
            shavable = np.column_stack([y.at("payload", rows) > 0.0 for y in bystanders.values()])
            stuck = ~shavable.any(axis=1)
            pending[rows[stuck]] = False
            rows, cost, shavable = rows[~stuck], cost[~stuck], shavable[~stuck]
            if rows.size == 0:
                break
            # largest spender first; argmax keeps the lowest index on ties
            pick = np.argmax(np.where(shavable, cost, -np.inf), axis=1)
            for c, y in enumerate(bystanders.values()):
                y.shave(rows[pick == c])
            total = np.zeros(rows.size)
            for q in range(m):
                total = total + column(q, "cost", rows)
            feasible[rows] = total <= budget_total
            pending[rows] = ~feasible[rows]

        total = np.zeros(a.size)
        for q in range(m):
            losses = [column(anc - 1, "loss", every) for anc in ancestors[q]]
            total = total + _unit_distortion(inst.units[q].impact, column(q, "loss", every), losses)
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
                keep = ~(ek[b] > right_bound + _TINY) & ~(ei[a] > left_bound + _TINY)
                if adjacent:
                    keep &= ~(max((d.end for d in out[:i]), default=-math.inf) > sk[b] + _TINY)
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


# -- full solvers -------------------------------------------------------------

_EMPTY_REPORT = SolveReport((), 0.0, 0.0, 0.0, 0, 0, True, 0.0, ())


def _require_valid(inst: Instance) -> None:
    """Raise ``ValueError`` naming the first issue ``validate_instance`` finds."""
    check = validate_instance(inst)
    if not check.ok:
        issue = check.issues[0]
        where = "" if issue.index is None else f" (unit {issue.index})"
        raise ValueError(f"invalid instance: {issue.message}{where}")


def _require_settings(max_outer: int, alpha0: float, beta0: float, epsilon: float,
                      gap_tol: Optional[float], max_inner: int = 1, inner_epsilon: float = 0.0) -> None:
    """Raise ``ValueError`` unless the iteration caps are at least 1, the step
    constants positive and finite and the tolerances non-negative (or None)."""
    for name, value in (("max_outer", max_outer), ("max_inner", max_inner)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
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
    ``_solve_unit_dag`` looked up at call time, with its decision valued once
    by the model's ``loss`` and ``cost``."""
    m = inst.num_units
    if opts is None:

        def solve(i, price, mu, a_surv=1.0, s_weight=0.0):
            hp, hn = _neighbour_prices(mu, i)
            unit = inst.units[i - 1]
            x, y, a, obj = _solve_unit_dag(unit, price, hp, hn, m, model, a_surv, s_weight)
            return x, y, a, obj, model.loss(unit, x, y, a), model.cost(unit, x, y, a)

    else:

        def solve(i, price, mu, a_surv=1.0, s_weight=0.0):
            hp, hn = _neighbour_prices(mu, i)
            impact = inst.units[i - 1].impact
            return _solve_unit_grid(opts[i - 1], hp, hn, impact * a_surv / m, s_weight / m, price / m)

    return solve


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
    (``_recover``) takes both and values only the units it moves. It then
    recovers a feasible schedule from the decisions, keeps the best primal
    and dual values, and moves the budget price and the handoff prices by
    projected subgradient steps alpha0/k and beta0/k. It stops when the
    multipliers move by at most ``epsilon`` or the best relative gap reaches
    ``gap_tol``, when given. On a lattice the best schedule is finally
    polished by pairwise lattice descent.
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
                inst, decisions, opts, grid, model, price, mu, memo
            )
        best_dual = max(best_dual, dual_value)
        if primal_value < best_primal:
            best_primal = primal_value
            best_decisions = primal_decisions
        gap = (best_primal - best_dual) / max(abs(best_dual), _TINY)
        norm = float(np.linalg.norm(mu))
        rows.append(IterationRow(k, dual_value, primal_value, gap, price, norm, sweeps))

        usage = min(avg_usage, _USAGE_CLIP_FACTOR * inst.budget)
        new_price = price_update(price, usage, inst.budget, alpha0 / k)
        new_mu = tuple(
            handoff_update(mu[i], decisions[i].end, decisions[i + 1].start, beta0 / k)
            for i in range(m - 1)
        )
        delta = abs(new_price - price) + float(np.linalg.norm(np.subtract(new_mu, mu)))
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
