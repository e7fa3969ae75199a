"""Online scheduling: per-unit decisions from backlog state plus learned values.

Each arriving unit is decided immediately from (its attributes, the backlog
caused by the previous unit's window, the current resource price, the next
arrival time), on a grid of window ends valued by the model's ``window_vec``;
a transmitted unit's realized loss is the error it propagates to later ones.
The cost-to-go of leaving backlog behind is approximated with a polynomial
in the backlog whose coefficients are learned on a fast timescale, while the
resource price tracks the budget on a slow timescale from the running
average of realized energy.

Three policies book their realized units with one price ledger, which owns
the slow price step and the run's records:

* ``proposed``: full objective with the learned value term;
* ``myopic``: the same per-unit solve with the value term pinned to zero;
* ``mdu``: buffers one cycle at a time, assumes the cycle's attributes are
  known, and solves it at the frozen global price by a dynamic program over
  each unit's window ends (explicitly exempt from the causal interface).
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import CrossLayerDecision, DataUnit, DependencyGraph, Instance
from .models import TransmissionModel, check_model
from .offline import _dag_coeffs, _graph_coeffs, _require_valid, _ScheduleValues
# unused here: perfbench/spans.py wraps these module attributes
from .offline import _solve_unit_dag, handoff_update, recover_primal, upper_optimization  # noqa: F401

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
IMPACT_ESTIMATES = ("known", "mean")
# the floor under the squared feature norm in value_update's step
_VALUE_FLOOR = 1e-4


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
    # the scalar starts broadcast like np.zeros_like and np.ones_like would
    out, term = 0.0, 1.0
    for k, r in enumerate(coeffs, start=1):
        term = term * s / k
        out = out + r * term
    return out


def state_transition(end: float, t_next: float) -> float:
    """Backlog handed to the next unit by a window ending at ``end``."""
    return max(end - t_next, 0.0)


def value_update(vm: ValueModel, gamma: float, s: float, target: float) -> ValueModel:
    """One normalized temporal-difference step of the value coefficients at
    visited backlog ``s``: ``r <- r + gamma * (target - V(s)) * v(s) / (floor
    + |v(s)|^2)``.

    With backlogs measured in seconds the features v(s) are tiny, so the plain
    step's per-visit contraction gamma*|v(s)|^2 is ~1e-4, far too slow to reach
    the target scale inside a run. Dividing by the squared feature norm
    restores the per-state averaging speed of a tabular update while staying
    inside the feature class; the floor ``_VALUE_FLOOR`` bounds the 1/s gain
    for visits with near-zero backlog, whose noisy targets would otherwise
    whipsaw the linear coefficient. At s = 0 the features vanish and the
    coefficients are returned unchanged, as they are for ``gamma == 0``.
    ``run_online`` feeds it average-cost-centered targets.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return vm
    feats = vm.features(s)
    norm_sq = sum(v * v for v in feats)
    if norm_sq == 0.0:
        return vm
    delta = target - vm.value(s)
    step = gamma * delta / (_VALUE_FLOOR + norm_sq)
    return ValueModel(coeffs=tuple(r + step * v for r, v in zip(vm.coeffs, feats)))


def online_price_update(price: float, kappa: float, running_avg: float, budget: float) -> float:
    """Slow-timescale projected step tracking the energy budget."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if price < 0.0:
        raise ValueError(f"price must be nonnegative, got {price}")
    return max(price + kappa * (running_avg - budget), 0.0)


@dataclass(frozen=True)
class OnlineParams:
    """Knobs of the online loop (defaults match the experiment configs).

    The value step of unit i is ``gamma0 / i**gamma_power`` in
    :func:`value_update`'s normalized rule, the only one; the price step is
    ``kappa0 / i``.
    """

    feature_order: int = 3
    gamma0: float = 0.5
    gamma_power: float = 0.6
    kappa0: float = 1.0
    price_init: float = 1.0
    end_grid: int = 200
    refine_points: int = 60
    impact_estimate: str = "known"
    impact_mean: float = 100.0

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
    dropped: bool = False


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


def _decide(
    unit: DataUnit,
    backlog: float,
    price: float,
    vm: ValueModel,
    t_next: float,
    model: TransmissionModel,
    a_surv: float,
    s_weight: float,
    end_grid: int,
    refine_points: int,
) -> UnitOutcome:
    """The one online decision: grid-plus-refinement search over the window
    end, payload nested inside.

    The unit's loss weighs ``impact * a_surv + s_weight``: its own impact at
    the survival A of its ancestors plus the weight S of the error it
    propagates to its descendants. The start is pinned at ready + backlog; a
    unit whose start falls past its deadline is dropped (empty window at the
    deadline, full loss, zero energy), and the link stays busy until that
    start, which sets the backlog of its value term. Otherwise the payload
    and energy at each end come from the model's array closed form
    ``window_vec``, and the outcome's loss, which later units read as the
    error it propagates, is the scalar ``loss`` of the chosen decision. The end grid always contains both
    interval endpoints and the kink of the backlog term at the next arrival
    time. All-zero value coefficients (``myopic``) add no value term. An
    ``end_grid`` below 2 is refused: it would search no end but the start.
    """
    if backlog < 0:
        raise ValueError(f"backlog must be nonnegative, got {backlog}")
    if end_grid < 2:
        raise ValueError(f"end_grid must be at least 2, got {end_grid!r}")
    start, d = unit.ready + backlog, unit.deadline
    merged = unit.impact * a_surv + s_weight
    if start > d:
        objective = merged + vm.value(state_transition(start, t_next))
        return UnitOutcome(CrossLayerDecision(d, d, 0.0), objective, energy=0.0, loss=1.0, dropped=True)
    coeffs = vm.coeffs if any(vm.coeffs) else None

    def best_on(ys: np.ndarray) -> tuple[int, tuple[float, ...]]:
        """The argmin over the ends ``ys`` and its (objective, end, payload, energy)."""
        pls, p, w = model.window_vec(unit, ys - start, merged, price)
        obj = merged * p + price * w
        if coeffs is not None:
            obj += _value_vec(coeffs, np.maximum(ys - t_next, 0.0))
        j = int(obj.argmin())
        return j, (float(obj[j]), float(ys[j]), float(pls[j]), float(w[j]))

    if d <= start:
        ys = np.array([start])
    else:
        ys = _grid(start, d, end_grid)
        if start < t_next < d:
            k = int(ys.searchsorted(t_next))
            ys = np.concatenate((ys[:k], (t_next,), ys[k:]))
    j, best = best_on(ys)

    if len(ys) > 1 and refine_points > 1:
        lo = ys[max(j - 1, 0)]
        hi = ys[min(j + 1, len(ys) - 1)]
        if hi > lo:
            _, fine = best_on(_grid(lo, hi, refine_points))
            if fine[0] < best[0]:
                best = fine

    objective, end, payload, energy = best
    return UnitOutcome(
        decision=CrossLayerDecision(start=start, end=end, payload=payload),
        objective=objective,
        energy=energy,
        loss=model.loss(unit, start, end, payload),
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
    """Decide a unit with no dependents: window end and payload from backlog
    (:func:`_decide` at ancestor survival 1 and descendant weight 0)."""
    return _decide(unit, backlog, price, vm, t_next, model, 1.0, 0.0, end_grid, refine_points)


@dataclass(frozen=True)
class DagKnowledge:
    """What a dependency-aware online decision may rely on, in the slot
    layout of the offline value cache: lists indexed by unit, slot 0 unused.

    ``loss[k]`` is the realized loss of transmitted unit k, which is the
    error it propagates; an untransmitted unit holds 0.0, "received intact".
    ``kept[j]`` is the impact of unit j in the current cycle (true values
    when the cycle's attributes are observable, a configured mean otherwise)
    and 0.0 outside it. ``run_online`` keeps both up to date.
    """

    graph: DependencyGraph
    loss: list[float]
    kept: list[float]


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
    read as zero from ``knowledge.loss``). The objective is anchored so a
    perfect transmission scores zero: the anchor is invisible to the argmin
    but keeps the realized objectives that feed the value learner free of
    per-unit graph-position offsets.
    """
    a_surv, s_weight = _graph_coeffs(unit.index, knowledge.graph, knowledge.loss, knowledge.kept)
    return _decide(unit, backlog, price, vm, t_next, model, a_surv, s_weight, end_grid, refine_points)


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
        """First and last unit index of the cycle that holds unit ``index``."""
        lo = index - (index - 1) % self._cycle_len
        return lo, min(lo + self._cycle_len - 1, self.num_units)

    def take_cycle(self, cycle: int) -> tuple[DataUnit, ...]:
        if cycle != self._cycle_pos + 1:
            raise LookaheadError(
                f"take_cycle({cycle}) out of order; next cycle is {self._cycle_pos + 1}"
            )
        self._cycle_pos = cycle
        lo, hi = self.cycle_bounds((cycle - 1) * self._cycle_len + 1)
        return self._inst.units[lo - 1 : hi]


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
        """The state ``to_json`` wrote. Raises ``ValueError`` on text that is
        not a JSON object with these keys, each holding a number (``coeffs``
        a list of numbers)."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"learner state must be a JSON object, got {type(d).__name__}")
        try:
            return cls(
                price=float(d["price"]),
                coeffs=tuple(float(c) for c in d["coeffs"]),
                step=int(d["step"]),
                backlog=float(d["backlog"]),
                cum_energy=float(d["cum_energy"]),
                avg_cost=float(d.get("avg_cost", 0.0)),
            )
        except KeyError as exc:
            raise ValueError(f"learner state has no {exc.args[0]!r} key") from exc
        except TypeError as exc:
            raise ValueError(f"learner state holds a value of the wrong type: {exc}") from exc


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


class _PriceLedger:
    """The slow-timescale price master of one run, shared by every policy.

    It starts from ``resume``, by default the price ``price_init`` and zeros.
    ``book`` takes the realized units in index order: each moves the price by
    ``online_price_update`` against the running average of all realized
    energies, and the ledger records the unit's decision, energy and drop, the
    price after it and the value coefficients (none under ``mdu``). ``result``
    turns the records into the per-cycle rows and the learner state; a row's
    value norm is that of the coefficients after its cycle's last unit.
    """

    def __init__(self, stream: CausalStream, model: TransmissionModel, params: OnlineParams,
                 budget: float, resume: Optional[LearnerState]):
        if resume is None:
            resume = LearnerState(params.price_init, ValueModel.zero(params.feature_order).coeffs, 0, 0.0, 0.0)
        self.stream, self.model, self.params, self.budget, self.resume = stream, model, params, budget, resume
        self.price, self.step, self.cum_energy = resume.price, resume.step, resume.cum_energy
        self.decisions, self.energies, self.drops, self.price_at, self.coeffs_at = [], [], [], [], []

    def book(self, decision: CrossLayerDecision, energy: float, dropped: bool,
             coeffs: tuple[float, ...]) -> None:
        self.step += 1
        self.cum_energy += energy
        kap = self.params.kappa(self.step)
        if kap > 0.0:
            self.price = online_price_update(self.price, kap, self.cum_energy / self.step, self.budget)
        self.decisions.append(decision)
        self.energies.append(energy)
        self.drops.append(dropped)
        self.price_at.append(self.price)
        self.coeffs_at.append(coeffs)

    def result(self, policy: str, coeffs: tuple[float, ...], backlog: float, avg_cost: float) -> RunResult:
        state = LearnerState(price=self.price, coeffs=coeffs, step=self.step, backlog=backlog,
                             cum_energy=self.cum_energy, avg_cost=avg_cost)
        return RunResult(rows=_cycle_rows(self, policy), state=state, decisions=tuple(self.decisions))


def _cycle_rows(ledger: _PriceLedger, policy: str) -> tuple[CycleRow, ...]:
    stream, inst = ledger.stream, ledger.stream.instance
    values = _ScheduleValues(inst.units, inst.graph, ledger.decisions, ledger.model, priced=False)
    rows = []
    for c, first in enumerate(range(1, stream.num_units + 1, stream.cycle_len), start=1):
        lo, hi = stream.cycle_bounds(first)
        reduction = 0.0
        for i in range(lo, hi + 1):
            reduction += inst.units[i - 1].impact - values.unit_distortion(i)
        e_avg = float(np.mean(ledger.energies[lo - 1 : hi]))
        rows.append(
            CycleRow(
                cycle=c,
                policy=policy,
                distortion_reduction=reduction,
                energy_avg=e_avg,
                price=ledger.price_at[hi - 1],
                value_norm=float(np.linalg.norm(ledger.coeffs_at[hi - 1])),
                dropped=sum(ledger.drops[lo - 1 : hi]),
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

    Each unit is decided, hands its backlog on and, under ``proposed``, makes
    its value update (:func:`value_update` at the backlog it was decided
    from); then it is booked with the run's price ledger, whose
    step moves the price against the running average of all realized
    energies (``mdu`` books each cycle it solves with the same ledger). The
    value update reads no price, so it may precede the price step it shares
    a step index with. The value target is the realized minimized objective
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

    Under ``proposed`` on a stream with a graph, the run keeps one
    :class:`DagKnowledge`: each realized loss goes into its unit's slot, and
    at each cycle start the previous cycle's impact slots are zeroed and the
    new cycle's are filled from ``impact_hint`` (``known``) or
    ``impact_mean`` (``mean``).

    Raises ``ValueError`` on an invalid instance (see ``validate_instance``),
    an unknown policy or ``impact_estimate``, a ``kappa0``, ``price_init``,
    ``impact_mean`` or ``gamma_power`` that is not non-negative and finite, a
    ``gamma0`` outside (0, 1] or an ``end_grid`` below 2 (under every policy),
    a ``budget`` override that is not positive and finite, or a ``resume``
    state with a non-finite ``avg_cost`` or coefficient, other than
    ``feature_order`` coefficients, or a ``price``, ``cum_energy``,
    ``backlog`` or ``step`` that is not non-negative and finite. All are
    checked before any unit is decided.
    """
    check_model(model)
    _require_valid(stream.instance)
    if params is None:
        params = OnlineParams()
    for what, name, names in (("policy", policy, POLICIES),
                              ("impact_estimate", params.impact_estimate, IMPACT_ESTIMATES)):
        if name not in names:
            raise ValueError(f"unknown {what} {name!r}; expected one of {names}")
    # a negative gamma_power would take the value step past gamma0, and past 1
    for name, value in (("kappa0", params.kappa0), ("price_init", params.price_init),
                        ("impact_mean", params.impact_mean), ("gamma_power", params.gamma_power)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    if not 0.0 < params.gamma0 <= 1.0:
        raise ValueError(f"gamma0 must lie in (0, 1], got {params.gamma0!r}")
    if params.end_grid < 2:
        raise ValueError(f"end_grid must be at least 2, got {params.end_grid!r}")
    if budget is None:
        budget = stream.budget
    elif not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    if resume is not None:
        for name in ("price", "cum_energy", "backlog", "step"):
            if not 0 <= (value := getattr(resume, name)) < math.inf:
                raise ValueError(f"resume {name} must be non-negative and finite, got {value!r}")
        if not all(map(math.isfinite, (resume.avg_cost, *resume.coeffs))):
            raise ValueError(f"resume avg_cost and coeffs must be finite, got {resume!r}")
        # another length runs, but not the configured learner: () learns nothing
        if len(resume.coeffs) != params.feature_order:
            raise ValueError(f"resume coeffs must hold feature_order = {params.feature_order} values, "
                             f"got {len(resume.coeffs)}")
    ledger = _PriceLedger(stream, model, params, budget, resume)
    if policy == "mdu":
        return _run_mdu(ledger)

    resume = ledger.resume
    vm, backlog, avg_cost = ValueModel(coeffs=resume.coeffs), resume.backlog, resume.avg_cost
    zero = ValueModel.zero(params.feature_order)

    # the greedy baseline is the independent-unit optimizer even on coupled
    # streams: it transmits without considering impact on other units, while
    # realized distortion is still scored through the graph for both policies
    use_graph = stream.graph is not None and policy == "proposed"
    if use_graph:
        slots = stream.num_units + 1
        knowledge = DagKnowledge(stream.graph, [0.0] * slots, [0.0] * slots)
    lo, hi = 1, 0

    for i in range(1, stream.num_units + 1):
        unit, t_next = stream.observe(i)
        vm_used = vm if policy == "proposed" else zero
        if use_graph:
            if i > hi:
                knowledge.kept[lo : hi + 1] = [0.0] * (hi + 1 - lo)
                lo, hi = stream.cycle_bounds(i)
                known = params.impact_estimate == "known"
                knowledge.kept[lo : hi + 1] = [
                    stream.impact_hint(j) if known else params.impact_mean for j in range(lo, hi + 1)
                ]
            outcome = solve_online_unit_dag(
                unit, backlog, ledger.price, vm_used, t_next, knowledge, model,
                params.end_grid, params.refine_points,
            )
            knowledge.loss[i] = outcome.loss
        else:
            outcome = solve_online_unit(
                unit, backlog, ledger.price, vm_used, t_next, model,
                params.end_grid, params.refine_points,
            )

        s_visited = backlog
        # a drop's empty window sits at its deadline; the link is busy until its start
        backlog = state_transition(unit.ready + backlog if outcome.dropped else outcome.decision.end, t_next)
        if policy == "proposed":
            gam = params.gamma(ledger.step + 1)
            # stage cost is what the unit itself paid; the bootstrap part of
            # the objective must not leak into the average-cost estimate
            stage = outcome.objective - vm.value(backlog)
            avg_cost = (1.0 - gam) * avg_cost + gam * stage
            vm = value_update(vm, gam, s_visited, outcome.objective - avg_cost)
        ledger.book(outcome.decision, outcome.energy, outcome.dropped, vm.coeffs)

    return ledger.result(policy, vm.coeffs, backlog, avg_cost)


# -- clairvoyant per-cycle baseline ---------------------------------------------

# window ends per unit in the cycle DP, and its fixed-coefficient passes on a graph
_CYCLE_ENDS = 51
_DAG_PASSES = 3


def _block_graph(graph: Optional[DependencyGraph], lo: int, hi: int) -> Optional[DependencyGraph]:
    """The edges of ``graph`` among units ``lo..hi``, renumbered from 1; None if there are none."""
    edges = () if graph is None else tuple(
        (i - lo + 1, j - lo + 1) for i, j in graph.edges if lo <= i <= hi and lo <= j <= hi)
    return DependencyGraph(num_nodes=hi - lo + 1, edges=edges) if edges else None


def _cycle_dp(units: Sequence[DataUnit], weights: Sequence[float], price: float, model: TransmissionModel,
              floor: float, points: int = _CYCLE_ENDS) -> tuple[tuple[CrossLayerDecision, ...], float]:
    """The cheapest FIFO schedule of one cycle at fixed loss weights and price.

    Minimizes the sum of ``weights[i] * loss + price * energy``. Each unit
    sends nothing, or ends on one of ``points`` evenly spaced times from
    ``max(ready, floor)`` to its deadline, starts at ``max(ready, link-free
    time)`` and sends ``window_vec``'s payload. The state is the time the link
    becomes free: one ``window_vec`` call per unit values every (state, end)
    pair, sending nothing keeps the state (with an empty window there, or at
    the deadline if that has passed), and a state free no earlier than another
    at no lower cost is pruned, so the last state kept is the optimum. Returns
    the decisions and the time the link becomes free after them.
    """
    times, costs, steps = np.array([floor]), np.array([0.0]), []
    for unit, w in zip(units, weights):
        # ready times do not decrease, so of the states free by this ready
        # time the last, cheapest one stands for all, for every later unit too
        live = np.arange(max(int(times.searchsorted(unit.ready, "right")) - 1, 0), len(times))
        starts, base = np.maximum(times[live], unit.ready), costs[live]
        idle = np.minimum(starts, unit.deadline)
        parts = [(starts, base + w, live, idle, idle, np.zeros(len(live)))]
        lo = max(unit.ready, floor)
        if lo < unit.deadline:
            ends = _grid(lo, unit.deadline, points)
            taus = ends - starts[:, None]
            payloads, loss, energy = model.window_vec(unit, taus, w, price)
            vals = base[:, None] + (w * loss + price * energy)
            vals[taus <= 0.0] = math.inf
            best, cols = vals.argmin(axis=0), np.arange(len(ends))
            parts.append((ends, vals[best, cols], live[best], starts[best], ends, payloads[best, cols]))
        t, c, parent, start, end, payload = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((c, t))
        keep = order[c[order] < np.minimum.accumulate(np.concatenate(([math.inf], c[order][:-1])))]
        times, costs = t[keep], c[keep]
        steps.append((parent[keep], start[keep], end[keep], payload[keep]))
    decisions, state = [], len(times) - 1
    for parent, start, end, payload in reversed(steps):
        decisions.append(CrossLayerDecision(float(start[state]), float(end[state]), float(payload[state])))
        state = parent[state]
    return tuple(reversed(decisions)), float(times[-1])


def _solve_cycle_fixed_price(units: Sequence[DataUnit], graph: Optional[DependencyGraph], price: float,
                             model: TransmissionModel, start_floor: float):
    """Clairvoyant solve of one cycle at the frozen budget price, starting no
    earlier than ``start_floor``: one :func:`_cycle_dp` at the units' impacts.
    With a graph that schedule seeds up to ``_DAG_PASSES`` passes, each at the
    weights ``impact * A + S`` that ``_dag_coeffs`` reads from the previous
    schedule, and the schedule with the lowest cycle Lagrangian (distortion
    through the graph plus the priced energy) is kept. Returns the decisions
    and the time the link becomes free after them."""
    best = solved = _cycle_dp(units, [u.impact for u in units], price, model, start_floor)
    if graph is None:
        return best
    values = _ScheduleValues(units, graph, solved[0], model)
    best_value = values.lagrangian(price, (), 0.0)
    for _ in range(_DAG_PASSES):
        coeffs = [_dag_coeffs(i, values) for i in range(1, len(units) + 1)]
        again = _cycle_dp(units, [u.impact * a + s for u, (a, s) in zip(units, coeffs)], price, model, start_floor)
        if again[0] == solved[0]:
            break
        solved, values = again, _ScheduleValues(units, graph, again[0], model)
        if (value := values.lagrangian(price, (), 0.0)) < best_value:
            best, best_value = solved, value
    return best


def _run_mdu(ledger: _PriceLedger) -> RunResult:
    """Solve each cycle at the ledger's price, then book its units; the next
    cycle starts no earlier than the time this one leaves the link free."""
    stream, model = ledger.stream, ledger.model
    free = -math.inf
    for c in range(1, stream.num_cycles + 1):
        units = stream.take_cycle(c)
        block = _block_graph(stream.graph, *stream.cycle_bounds(units[0].index))
        cycle_dec, free = _solve_cycle_fixed_price(units, block, ledger.price, model, free)
        for unit, dec in zip(units, cycle_dec):
            dropped = dec.window == 0.0 and dec.payload == 0.0 and unit.lifetime > 0.0
            ledger.book(dec, model.cost(unit, dec.start, dec.end, dec.payload), dropped, ())
    return ledger.result("mdu", ledger.resume.coeffs, 0.0, ledger.resume.avg_cost)
