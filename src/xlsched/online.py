"""Online scheduling: per-unit decisions from backlog state plus learned values.

Each arriving unit is decided immediately from (its attributes, the backlog
caused by the previous unit's window, the current resource price, the next
arrival time), on a grid of window ends valued by the model's ``window_vec``;
a transmitted unit's realized loss is the error it propagates to later ones.
The cost-to-go of leaving backlog behind is approximated with a polynomial
in the backlog whose coefficients are learned on a fast timescale, while the
resource price tracks the budget on a slow timescale from the running
average of realized energy.

Three policies share the loop:

* ``proposed``: full objective with the learned value term;
* ``myopic``: the same per-unit solve with the value term pinned to zero;
* ``mdu``: buffers one cycle at a time, assumes the cycle's attributes are
  known, and runs the offline per-unit solves with handoff-price iterations
  at the frozen global price (explicitly exempt from the causal interface).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CrossLayerDecision, DataUnit, DependencyGraph, Instance
from .models import TransmissionModel, check_model
from .offline import (
    _dag_coeffs,
    _graph_coeffs,
    _require_valid,
    _ScheduleValues,
    _solve_unit_dag,
    handoff_update,
    recover_primal,
)
# unused here: perfbench/spans.py wraps this module attribute
from .offline import upper_optimization  # noqa: F401

__all__ = [
    "ValueModel",
    "LearnerState",
    "OnlineParams",
    "UnitOutcome",
    "CycleRow",
    "RunResult",
    "CausalStream",
    "LookaheadError",
    "DagKnowledge",
    "state_transition",
    "value_update",
    "online_price_update",
    "solve_online_unit",
    "solve_online_unit_dag",
    "run_online",
]

POLICIES = ("proposed", "myopic", "mdu")
UPDATE_MODES = ("verbatim", "semi_gradient", "normalized")
IMPACT_ESTIMATES = ("known", "mean")


@dataclass(frozen=True)
class ValueModel:
    """Polynomial backlog-value approximation V(s) = sum_k r_k s^k / k!.

    The feature vector omits a constant term, so V(0) = 0 identically.
    """

    coeffs: tuple[float, ...]

    @classmethod
    def zero(cls, order: int) -> "ValueModel":
        if order < 1:
            raise ValueError(f"feature order must be >= 1, got {order}")
        return cls(coeffs=(0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def features(self, s: float) -> tuple[float, ...]:
        if s < 0:
            raise ValueError(f"backlog must be nonnegative, got {s}")
        out = []
        term = 1.0
        for k in range(1, len(self.coeffs) + 1):
            term *= s / k
            out.append(term)
        return tuple(out)

    def value(self, s: float) -> float:
        return sum(r * v for r, v in zip(self.coeffs, self.features(s)))


def _value_vec(coeffs: Sequence[float], s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    term = np.ones_like(s)
    for k, r in enumerate(coeffs, start=1):
        term = term * s / k
        out += r * term
    return out


def state_transition(end: float, t_next: float) -> float:
    """Backlog handed to the next unit by a window ending at ``end``."""
    return max(end - t_next, 0.0)


def value_update(
    vm: ValueModel,
    gamma: float,
    s: float,
    target: float,
    mode: str = "verbatim",
    floor: float = 1e-4,
) -> ValueModel:
    """One stochastic value-coefficient update at visited backlog ``s``.

    ``verbatim`` keeps the running-average form
    ``r <- (1-gamma) r + gamma * target * v(s)`` (note that at s = 0 this
    shrinks the coefficients, since the features vanish there). The
    ``semi_gradient`` mode applies the temporal-difference step
    ``r <- r + gamma * (target - V(s)) * v(s)``, whose fixed point matches the
    target scale, but with backlogs measured in seconds the features are tiny
    and the per-visit contraction gamma*|v(s)|^2 is ~1e-4, far too slow to
    reach that fixed point inside a run. ``normalized`` divides the same step
    by ``floor + |v(s)|^2``, which restores the per-state averaging speed of a
    tabular update while staying inside the feature class; the floor bounds
    the 1/s gain for visits with near-zero backlog, whose noisy targets would
    otherwise whipsaw the linear coefficient. It is the mode the shipped
    experiment configs use, fed with average-cost-centered targets (see
    ``run_online``).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return vm
    feats = vm.features(s)
    if mode == "verbatim":
        new = tuple((1.0 - gamma) * r + gamma * target * v for r, v in zip(vm.coeffs, feats))
    elif mode == "semi_gradient":
        delta = target - vm.value(s)
        new = tuple(r + gamma * delta * v for r, v in zip(vm.coeffs, feats))
    elif mode == "normalized":
        norm_sq = sum(v * v for v in feats)
        if norm_sq == 0.0:
            return vm
        delta = target - vm.value(s)
        step = gamma * delta / (floor + norm_sq)
        new = tuple(r + step * v for r, v in zip(vm.coeffs, feats))
    else:
        raise ValueError(f"unknown update mode {mode!r}")
    return ValueModel(coeffs=new)


def online_price_update(price: float, kappa: float, running_avg: float, budget: float) -> float:
    """Slow-timescale projected step tracking the energy budget."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if price < 0.0:
        raise ValueError(f"price must be nonnegative, got {price}")
    return max(price + kappa * (running_avg - budget), 0.0)


@dataclass(frozen=True)
class OnlineParams:
    """Knobs of the online loop (defaults match the experiment configs)."""

    feature_order: int = 3
    gamma0: float = 0.5
    gamma_power: float = 0.6
    kappa0: float = 1.0
    update_mode: str = "normalized"
    norm_floor: float = 1e-4
    price_init: float = 1.0
    end_grid: int = 200
    refine_points: int = 60
    impact_estimate: str = "known"
    impact_mean: float = 100.0
    mdu_outer: int = 40
    mdu_epsilon: float = 1e-4
    beta0: float = 1000.0

    def gamma(self, i: int) -> float:
        return self.gamma0 / float(i) ** self.gamma_power

    def kappa(self, i: int) -> float:
        return self.kappa0 / float(i)


@dataclass(frozen=True)
class UnitOutcome:
    decision: CrossLayerDecision
    objective: float
    energy: float
    loss: float
    err: float
    dropped: bool = False


def _solve_online_core(
    unit: DataUnit,
    start: float,
    price: float,
    vm: ValueModel,
    t_next: float,
    model: TransmissionModel,
    merged: float,
    end_grid: int,
    refine_points: int,
) -> UnitOutcome:
    """Grid-plus-refinement search over the window end, payload nested inside.

    ``merged`` weighs the loss curve: the unit's loss weight plus the weight
    of the error its loss propagates to its descendants. The payload, loss
    and energy at each end come from the model's array closed form
    ``window_vec``; the error fraction the outcome hands to later units is
    the scalar ``loss`` of the chosen decision. The end grid always contains
    both interval endpoints and the kink of the backlog term at the next
    arrival time.
    """
    d = unit.deadline
    coeffs = vm.coeffs

    def best_on(ys: np.ndarray) -> tuple[int, tuple[float, ...]]:
        """The argmin over the ends ``ys`` and its (objective, end, payload, loss, energy)."""
        pls, p, w = model.window_vec(unit, ys - start, merged, price)
        obj = merged * p + price * w + _value_vec(coeffs, np.maximum(ys - t_next, 0.0))
        j = int(np.argmin(obj))
        return j, (float(obj[j]), float(ys[j]), float(pls[j]), float(p[j]), float(w[j]))

    if d <= start:
        ys = np.array([start])
    else:
        ys = np.linspace(start, d, end_grid)
        if start < t_next < d:
            ys = np.sort(np.append(ys, t_next))
    j, best = best_on(ys)

    if len(ys) > 1 and refine_points > 1:
        lo = ys[max(j - 1, 0)]
        hi = ys[min(j + 1, len(ys) - 1)]
        if hi > lo:
            _, fine = best_on(np.linspace(lo, hi, refine_points))
            if fine[0] < best[0]:
                best = fine

    objective, end, payload, loss_p, energy = best
    return UnitOutcome(
        decision=CrossLayerDecision(start=start, end=end, payload=payload),
        objective=objective,
        energy=energy,
        loss=loss_p,
        err=model.loss(unit, start, end, payload),
        dropped=False,
    )


def _dropped_outcome(
    unit: DataUnit,
    vm: ValueModel,
    t_next: float,
    loss_coeff: float | None = None,
    err_coeff: float = 0.0,
) -> UnitOutcome:
    dec = CrossLayerDecision(start=unit.deadline, end=unit.deadline, payload=0.0)
    lost = unit.impact if loss_coeff is None else loss_coeff
    objective = lost + err_coeff + vm.value(state_transition(unit.deadline, t_next))
    return UnitOutcome(
        decision=dec, objective=objective, energy=0.0, loss=1.0, err=1.0, dropped=True
    )


def solve_online_unit(
    unit: DataUnit,
    backlog: float,
    price: float,
    vm: ValueModel,
    t_next: float,
    model: TransmissionModel,
    end_grid: int = 200,
    refine_points: int = 60,
) -> UnitOutcome:
    """Decide a unit with no dependents: window end and payload from backlog.

    The start time is pinned at ready + backlog; a unit whose start falls
    past its deadline is dropped (empty window at the deadline, full loss,
    zero energy).
    """
    if backlog < 0:
        raise ValueError(f"backlog must be nonnegative, got {backlog}")
    start = unit.ready + backlog
    if start > unit.deadline:
        return _dropped_outcome(unit, vm, t_next)
    return _solve_online_core(
        unit, start, price, vm, t_next, model, unit.impact, end_grid, refine_points
    )


@dataclass(frozen=True)
class DagKnowledge:
    """What a dependency-aware online decision may rely on.

    ``realized_err`` holds the error fractions of already transmitted units,
    which are their losses (indexable by unit index - 1); ``impact_of``
    estimates the impact of not-yet-transmitted units in the current cycle
    (true values when the cycle's attributes are observable, a configured
    mean otherwise).
    """

    graph: DependencyGraph
    realized_err: Sequence[float]
    impact_of: Callable[[int], float]
    cycle_lo: int
    cycle_hi: int


def solve_online_unit_dag(
    unit: DataUnit,
    backlog: float,
    price: float,
    vm: ValueModel,
    t_next: float,
    knowledge: DagKnowledge,
    model: TransmissionModel,
    end_grid: int = 200,
    refine_points: int = 60,
) -> UnitOutcome:
    """Dependency-aware online decision.

    The unit's own loss is weighted by the realized survival of its
    ancestors; an extra term charges the expected descendant impact the
    unit's own loss erases, with untransmitted descendants assumed received
    intact (their own loss and the losses of other untransmitted references
    set to zero). The objective is anchored so a
    perfect transmission scores zero: the anchor is invisible to the argmin
    but keeps the realized objectives that feed the value learner free of
    per-unit graph-position offsets.
    """
    if backlog < 0:
        raise ValueError(f"backlog must be nonnegative, got {backlog}")
    i = unit.index

    def err(k: int) -> float:
        # untransmitted references (k >= i) count as intact
        return knowledge.realized_err[k - 1] if k < i else 0.0

    def kept(j: int) -> float:
        return knowledge.impact_of(j) if knowledge.cycle_lo <= j <= knowledge.cycle_hi else 0.0

    a_surv, s_weight = _graph_coeffs(i, knowledge.graph, err, kept)
    start = unit.ready + backlog
    if start > unit.deadline:
        return _dropped_outcome(unit, vm, t_next, unit.impact * a_surv, s_weight)
    return _solve_online_core(
        unit, start, price, vm, t_next, model, unit.impact * a_surv + s_weight,
        end_grid, refine_points,
    )


# -- streams -------------------------------------------------------------------


class LookaheadError(RuntimeError):
    """An online policy asked for information it must not have yet."""


class CausalStream:
    """Sequential view of an instance for the online policies.

    ``observe`` must be called with strictly increasing indices and reveals
    only the current unit plus the next arrival time. When the instance has a
    graph and ``expose_cycle_impacts`` is set, ``impact_hint`` additionally
    reveals impacts within the current cycle (attributes observable at cycle
    start). ``take_cycle`` hands a whole cycle to the clairvoyant baseline
    and is the documented exemption from causality.
    """

    def __init__(self, inst: Instance, cycle_len: int = 10, expose_cycle_impacts: bool = False):
        if cycle_len < 1:
            raise ValueError(f"cycle length must be >= 1, got {cycle_len}")
        self._inst = inst
        self._cycle_len = cycle_len
        self._expose = expose_cycle_impacts
        self._pos = 0
        self._cycle_pos = 0

    @property
    def num_units(self) -> int:
        return self._inst.num_units

    @property
    def cycle_len(self) -> int:
        return self._cycle_len

    @property
    def num_cycles(self) -> int:
        return (self.num_units + self._cycle_len - 1) // self._cycle_len

    @property
    def budget(self) -> float:
        return self._inst.budget

    @property
    def graph(self) -> Optional[DependencyGraph]:
        return self._inst.graph

    @property
    def instance(self) -> Instance:
        return self._inst

    def observe(self, index: int) -> tuple[DataUnit, float]:
        if index != self._pos + 1:
            raise LookaheadError(
                f"observe({index}) out of order; next observable unit is {self._pos + 1}"
            )
        self._pos = index
        unit = self._inst.units[index - 1]
        t_next = (
            self._inst.units[index].ready if index < self.num_units else math.inf
        )
        return unit, t_next

    def impact_hint(self, index: int) -> float:
        if not self._expose:
            raise LookaheadError("cycle impacts are not observable in this stream")
        if self._pos == 0:
            raise LookaheadError("no unit observed yet")
        lo, hi = self.cycle_bounds(self._pos)
        if not lo <= index <= hi:
            raise LookaheadError(
                f"unit {index} is outside the current cycle [{lo}, {hi}]"
            )
        return self._inst.units[index - 1].impact

    def cycle_bounds(self, index: int) -> tuple[int, int]:
        c = (index - 1) // self._cycle_len
        lo = c * self._cycle_len + 1
        hi = min((c + 1) * self._cycle_len, self.num_units)
        return lo, hi

    def take_cycle(self, cycle: int) -> tuple[DataUnit, ...]:
        if cycle != self._cycle_pos + 1:
            raise LookaheadError(
                f"take_cycle({cycle}) out of order; next cycle is {self._cycle_pos + 1}"
            )
        self._cycle_pos = cycle
        lo = (cycle - 1) * self._cycle_len
        hi = min(cycle * self._cycle_len, self.num_units)
        return self._inst.units[lo:hi]


# -- run loop --------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerState:
    """Resumable snapshot of the online learner."""

    price: float
    coeffs: tuple[float, ...]
    step: int
    backlog: float
    cum_energy: float
    avg_cost: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "price": self.price,
                "coeffs": list(self.coeffs),
                "step": self.step,
                "backlog": self.backlog,
                "cum_energy": self.cum_energy,
                "avg_cost": self.avg_cost,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LearnerState":
        d = json.loads(text)
        return cls(
            price=float(d["price"]),
            coeffs=tuple(float(c) for c in d["coeffs"]),
            step=int(d["step"]),
            backlog=float(d["backlog"]),
            cum_energy=float(d["cum_energy"]),
            avg_cost=float(d.get("avg_cost", 0.0)),
        )


@dataclass(frozen=True)
class CycleRow:
    cycle: int
    policy: str
    distortion_reduction: float
    energy_avg: float
    price: float
    value_norm: float
    dropped: int


@dataclass(frozen=True)
class RunResult:
    rows: tuple[CycleRow, ...]
    state: LearnerState
    decisions: tuple[CrossLayerDecision, ...]


def _cycle_rows(
    stream: CausalStream,
    policy: str,
    decisions: Sequence[CrossLayerDecision],
    energies: Sequence[float],
    dropped: Sequence[bool],
    price_at: Sequence[float],
    vnorm_at: Sequence[float],
    model: TransmissionModel,
) -> tuple[CycleRow, ...]:
    inst = stream.instance
    values = _ScheduleValues(inst.units, inst.graph, decisions, model, priced=False)
    rows = []
    for c in range(1, stream.num_cycles + 1):
        lo, hi = (c - 1) * stream.cycle_len + 1, min(c * stream.cycle_len, stream.num_units)
        reduction = 0.0
        for i in range(lo, hi + 1):
            reduction += inst.units[i - 1].impact - values.unit_distortion(i)
        e_avg = float(np.mean([energies[i - 1] for i in range(lo, hi + 1)]))
        rows.append(
            CycleRow(
                cycle=c,
                policy=policy,
                distortion_reduction=reduction,
                energy_avg=e_avg,
                price=price_at[hi - 1],
                value_norm=vnorm_at[hi - 1],
                dropped=sum(1 for i in range(lo, hi + 1) if dropped[i - 1]),
            )
        )
    return tuple(rows)


def run_online(
    stream: CausalStream,
    model: TransmissionModel,
    policy: str,
    params: Optional[OnlineParams] = None,
    budget: Optional[float] = None,
    resume: Optional[LearnerState] = None,
) -> RunResult:
    """Run one policy over a stream; returns per-cycle metrics and final state.

    The decision, state transition, price update and value update happen in
    that order for every unit. The price step uses the running average of all
    realized energies. The value target is the realized minimized objective
    centered by a running estimate of the mean per-unit stage cost: the
    feature class pins V(0) = 0, so without centering the learned function
    would chase the absolute cost-to-idle, which jumps at 0+ and has no
    bounded-slope representation. The centered fixed point is the excess cost
    of entering a backlog, which is continuous through the origin.

    A ``resume`` state (by default the price ``price_init`` and zeros) carries
    the price, step count and cumulative energy over under every policy; the
    learned coefficients, average cost and backlog are used by ``proposed``
    and ``myopic``, and ``mdu`` hands them back unchanged (it learns no
    values and leaves no backlog).

    Raises ``ValueError`` on an invalid instance (see ``validate_instance``),
    an unknown policy, ``update_mode`` or ``impact_estimate`` (under every
    policy), or a ``budget`` override that is not positive and finite.
    """
    check_model(model)
    _require_valid(stream.instance)
    if params is None:
        params = OnlineParams()
    for what, name, names in (("policy", policy, POLICIES),
                              ("update_mode", params.update_mode, UPDATE_MODES),
                              ("impact_estimate", params.impact_estimate, IMPACT_ESTIMATES)):
        if name not in names:
            raise ValueError(f"unknown {what} {name!r}; expected one of {names}")
    if budget is None:
        budget = stream.budget
    elif not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    if resume is None:
        resume = LearnerState(params.price_init, ValueModel.zero(params.feature_order).coeffs, 0, 0.0, 0.0)
    if policy == "mdu":
        if params.mdu_outer < 1:
            raise ValueError(f"mdu_outer must be at least 1, got {params.mdu_outer}")
        return _run_mdu(stream, model, params, budget, resume)

    n = stream.num_units
    vm, price, backlog = ValueModel(coeffs=resume.coeffs), resume.price, resume.backlog
    cum_energy, avg_cost, step0 = resume.cum_energy, resume.avg_cost, resume.step

    # the greedy baseline is the independent-unit optimizer even on coupled
    # streams: it transmits without considering impact on other units, while
    # realized distortion is still scored through the graph for both policies
    use_graph = stream.graph is not None and policy == "proposed"
    realized_err: list[float] = []
    decisions: list[CrossLayerDecision] = []
    energies: list[float] = []
    drops: list[bool] = []
    price_at: list[float] = []
    vnorm_at: list[float] = []

    for i in range(1, n + 1):
        unit, t_next = stream.observe(i)
        vm_used = vm if policy == "proposed" else ValueModel.zero(params.feature_order)
        if use_graph:
            lo, hi = stream.cycle_bounds(i)
            if params.impact_estimate == "known":
                impact_of = stream.impact_hint
            else:
                mean = params.impact_mean
                impact_of = lambda j, _m=mean: _m  # noqa: E731
            knowledge = DagKnowledge(
                graph=stream.graph,
                realized_err=realized_err,
                impact_of=impact_of,
                cycle_lo=lo,
                cycle_hi=hi,
            )
            outcome = solve_online_unit_dag(
                unit, backlog, price, vm_used, t_next, knowledge, model,
                params.end_grid, params.refine_points,
            )
        else:
            outcome = solve_online_unit(
                unit, backlog, price, vm_used, t_next, model,
                params.end_grid, params.refine_points,
            )

        s_visited = backlog
        backlog = state_transition(outcome.decision.end, t_next)
        cum_energy += outcome.energy
        k = step0 + i
        kap = params.kappa(k)
        if kap > 0.0:
            price = online_price_update(price, kap, cum_energy / k, budget)
        if policy == "proposed":
            gam = params.gamma(k)
            # stage cost is what the unit itself paid; the bootstrap part of
            # the objective must not leak into the average-cost estimate
            stage = outcome.objective - vm.value(backlog)
            avg_cost = (1.0 - gam) * avg_cost + gam * stage
            vm = value_update(
                vm, gam, s_visited, outcome.objective - avg_cost,
                params.update_mode, params.norm_floor,
            )

        realized_err.append(outcome.err)
        decisions.append(outcome.decision)
        energies.append(outcome.energy)
        drops.append(outcome.dropped)
        price_at.append(price)
        vnorm_at.append(float(np.linalg.norm(vm.coeffs)))

    rows = _cycle_rows(stream, policy, decisions, energies, drops, price_at, vnorm_at, model)
    state = LearnerState(
        price=price, coeffs=vm.coeffs, step=step0 + n, backlog=backlog,
        cum_energy=cum_energy, avg_cost=avg_cost,
    )
    return RunResult(rows=rows, state=state, decisions=tuple(decisions))


# -- clairvoyant per-cycle baseline ---------------------------------------------


def _block_graph(graph: Optional[DependencyGraph], lo: int, hi: int) -> Optional[DependencyGraph]:
    if graph is None:
        return None
    edges = [
        (i - lo + 1, j - lo + 1)
        for i, j in graph.edges
        if lo <= i <= hi and lo <= j <= hi
    ]
    if not edges:
        return None
    return DependencyGraph(num_nodes=hi - lo + 1, edges=tuple(edges))


def _solve_cycle_fixed_price(
    units: Sequence[DataUnit],
    graph: Optional[DependencyGraph],
    price: float,
    model: TransmissionModel,
    start_floor: float,
    params: OnlineParams,
) -> tuple[CrossLayerDecision, ...]:
    """Offline-style solve of one cycle with the budget price frozen.

    Only the handoff prices iterate; the first unit's window is floored at
    the previous cycle's realized end. Each handoff iteration sweeps the
    units in index order through ``_solve_unit_dag``: once with
    coefficients (1, 0) when the cycle has no graph, three times with
    ``_dag_coeffs`` when it has one. Those read a value cache of the current
    decisions, in which each solve re-values only the unit it moved. The
    realized schedule is the FIFO recovery of the final relaxed decisions on
    an instance with an infinite budget, so no payload is rescaled (the
    budget is enforced across cycles by the frozen global price).
    """
    m = len(units)
    local_units = []
    for pos, u in enumerate(units, start=1):
        ready = u.ready
        if pos == 1 and start_floor > ready:
            ready = min(start_floor, u.deadline)
        local_units.append(
            DataUnit(pos, u.impact, u.size, ready, max(u.deadline, ready), u.decay, u.channel)
        )
    inst = Instance(units=tuple(local_units), budget=math.inf, graph=graph)
    mu = np.zeros(max(m - 1, 0))
    decisions: list[CrossLayerDecision] = [
        CrossLayerDecision(u.ready, u.deadline, u.size) for u in local_units
    ]
    values = None if graph is None else _ScheduleValues(local_units, graph, decisions, model, priced=False)
    for k in range(1, params.mdu_outer + 1):
        for _ in range(1 if values is None else 3):
            for i in range(1, m + 1):
                hp = mu[i - 2] if i >= 2 else 0.0
                hn = mu[i - 1] if i <= m - 1 else 0.0
                a_surv, s_weight = (1.0, 0.0) if values is None else _dag_coeffs(i, values)
                decisions[i - 1] = _solve_unit_dag(
                    local_units[i - 1], price, hp, hn, m, model, a_surv, s_weight
                ).decision
                if values is not None:
                    values.set(i, decisions[i - 1])
        new_mu = mu.copy()
        for i in range(m - 1):
            new_mu[i] = handoff_update(
                mu[i], decisions[i].end, decisions[i + 1].start, params.beta0 / k
            )
        delta = float(np.linalg.norm(new_mu - mu))
        mu = new_mu
        if delta <= params.mdu_epsilon:
            break
    realized, _ = recover_primal(inst, decisions, model, price=price, handoff_prices=mu)
    return realized


def _run_mdu(
    stream: CausalStream,
    model: TransmissionModel,
    params: OnlineParams,
    budget: float,
    resume: LearnerState,
) -> RunResult:
    price, cum_energy, step = resume.price, resume.cum_energy, resume.step
    prev_end = -math.inf
    decisions: list[CrossLayerDecision] = []
    energies: list[float] = []
    drops: list[bool] = []
    price_at: list[float] = []
    vnorm_at: list[float] = []
    inst = stream.instance

    for c in range(1, stream.num_cycles + 1):
        units = stream.take_cycle(c)
        lo = (c - 1) * stream.cycle_len + 1
        block = _block_graph(stream.graph, lo, lo + len(units) - 1)
        cycle_dec = _solve_cycle_fixed_price(units, block, price, model, prev_end, params)
        for local_i, dec in enumerate(cycle_dec):
            unit = units[local_i]
            w = model.cost(unit, dec.start, dec.end, dec.payload)
            step += 1
            cum_energy += w
            kap = params.kappa(step)
            if kap > 0.0:
                price = online_price_update(price, kap, cum_energy / step, budget)
            decisions.append(dec)
            energies.append(w)
            drops.append(dec.window == 0.0 and dec.payload == 0.0 and unit.lifetime > 0.0)
            price_at.append(price)
            vnorm_at.append(0.0)
        if cycle_dec:
            prev_end = cycle_dec[-1].end

    rows = _cycle_rows(stream, "mdu", decisions, energies, drops, price_at, vnorm_at, model)
    state = LearnerState(
        price=price, coeffs=resume.coeffs, step=step, backlog=0.0,
        cum_energy=cum_energy, avg_cost=resume.avg_cost,
    )
    return RunResult(rows=rows, state=state, decisions=tuple(decisions))
