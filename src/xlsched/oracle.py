"""Exhaustive grid search over schedules: the reference optimum for small cases.

Every unit's window endpoints are restricted to a uniform time grid anchored
at its ready time and its payload to a uniform action grid; all FIFO-ordered,
budget-feasible combinations are enumerated. Units 1..M-2 are walked depth
first in index order, each level scored as one numpy expression over the
unit's options; the last two units are scored together as 2-D blocks (rows:
options of unit M-1, columns: options of unit M) of at most ``_BLOCK``
elements each.

The search makes two passes. The first finds the exact minimum, pruning any
prefix whose distortion already exceeds the running bar (distortion only
grows downstream). The second walks again with the final bar fixed and emits
the tied assignments in index order until ``_MAX_TIES``, so memory is one
block plus the ties whatever the number of near-optimal assignments.

Cost still grows as (window pairs x actions)^(M-2) blocks, so the solver
refuses instances above ``max_units`` (default 4). With the default 10 ms /
21-point grids on a 2-vCPU Xeon VM, M = 3 takes 0.03-0.13 s (the acceptance
gate's cells, trace seeds 1-5) and M = 4 0.4-2.4 s (trace seeds 1-3,
budgets 2 and 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CrossLayerDecision, Instance
from .models import TransmissionModel
from .offline import DecisionGrid, _require_valid

__all__ = ["OracleResult", "brute_force"]

_MAX_TIES = 200
# elements of one (options of unit M-1) x (options of unit M) block
_BLOCK = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    """Grid optimum: average distortion, one argmin, and all tied argmins."""

    value: float
    decisions: tuple[CrossLayerDecision, ...]
    ties: tuple[tuple[CrossLayerDecision, ...], ...]
    time_step: float
    action_step: float


def brute_force(
    inst: Instance,
    model: TransmissionModel,
    time_step: float = 0.01,
    action_points: int = 21,
    max_units: int = 4,
    tie_tol: float = 1e-9,
) -> OracleResult:
    """Exact optimum of the grid-restricted instance.

    Returns the optimal value (average distortion, graph aware when the
    instance has one) and the grid assignments whose value ties the optimum
    within ``tie_tol`` (relative): the lexicographically first ``_MAX_TIES``
    of them by option index, in that order. ``decisions`` is the first tie.
    Raises ``ValueError`` on an invalid instance or ``tie_tol`` and
    ``RuntimeError`` when no grid assignment meets the budget.
    """
    _require_valid(inst)
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    m = inst.num_units
    if m > max_units:
        raise ValueError(
            f"brute force refuses {m} units (> {max_units}); cost is exponential in units"
        )
    if m == 0:
        return OracleResult(0.0, (), ((),), time_step, 0.0)

    grid = DecisionGrid(time_step, action_points)
    opts = [grid.options(u, model) for u in inst.units]
    impacts = [u.impact for u in inst.units]
    graph = inst.graph
    ancestors = [() if graph is None else tuple(graph.ancestors(p)) for p in range(1, m + 1)]
    budget_total = inst.budget * m + 1e-9
    chosen: list[int] = []

    def survival(pos: int, last=None):
        """Product of ancestor survival fractions ``1 - loss`` of unit ``pos``
        (1-based) under ``chosen``, in ancestor order; an ancestor past ``chosen``
        (unit M-1 under the last block) takes its factor at each of its
        options ``last``."""
        surv = 1.0
        for k in ancestors[pos - 1]:
            surv = surv * (1.0 - opts[k - 1][3][chosen[k - 1] if k <= len(chosen) else last])
        return surv

    def level(pos: int, prev_end, energy, dist, bar: float):
        """The options of unit ``pos`` that follow the prefix ``chosen`` within
        the budget and ``bar``: their indices, ends, energies and distortions."""
        starts, ends, _, loss, cost = opts[pos - 1]
        e2 = energy + cost
        d2 = dist + impacts[pos - 1] * (1.0 - (1.0 - loss) * survival(pos))
        keep = np.flatnonzero((starts >= prev_end - 1e-12) & (e2 <= budget_total) & (d2 <= bar))
        return keep, ends[keep], e2[keep], d2[keep]

    def last_blocks(rows, row_end, row_energy, row_dist):
        """Yield ``(first row, feasible, totals)`` blocks of unit M's options
        after each row (an option of unit M-1, or the empty prefix if M = 1)."""
        starts, _, _, loss, cost = opts[m - 1]
        surv = np.broadcast_to(survival(m, rows), row_end.shape)
        step = max(1, _BLOCK // max(1, len(starts)))
        for r0 in range(0, len(row_end), step):
            r = slice(r0, r0 + step)
            feasible = (starts >= row_end[r, None] - 1e-12) & (
                row_energy[r, None] + cost <= budget_total
            )
            totals = row_dist[r, None] + impacts[m - 1] * (1.0 - (1.0 - loss) * surv[r, None])
            yield r0, feasible, totals

    def walk(bar, visit) -> bool:
        """Depth-first over the prefixes of units 1..M-2 in index order, pruned
        at ``bar()``; ``visit(rows, blocks)`` scores the last two units after
        each prefix and returns True to stop the walk."""

        def descend(pos: int, prev_end, energy, dist) -> bool:
            if m == 1:
                return visit(None, last_blocks(None, np.array([prev_end]),
                                               np.array([energy]), np.array([dist])))
            keep, ends, e2, d2 = level(pos, prev_end, energy, dist, bar())
            if pos == m - 1:
                return visit(keep, last_blocks(keep, ends, e2, d2))
            for n, j in enumerate(keep):
                if d2[n] > bar():
                    continue
                chosen.append(int(j))
                stop = descend(pos + 1, ends[n], e2[n], d2[n])
                chosen.pop()
                if stop:
                    return True
            return False

        return descend(1, -math.inf, 0.0, 0.0)

    def tie_bar(value: float) -> float:
        # no bar before the first total (0 * inf would make it NaN)
        return value + tie_tol * max(1.0, abs(value)) if value < math.inf else math.inf

    # pass 1: the exact minimum
    best = math.inf

    def improve(rows, blocks) -> bool:
        nonlocal best
        for _, feasible, totals in blocks:
            if feasible.any():
                best = min(best, float(np.where(feasible, totals, math.inf).min()))
        return False

    walk(lambda: tie_bar(best), improve)
    if not math.isfinite(best):
        raise RuntimeError("no feasible grid assignment found")

    # pass 2: the ties within the final bar, in index order
    final_bar = tie_bar(best)
    ties: list[tuple[CrossLayerDecision, ...]] = []

    def collect(rows, blocks) -> bool:
        for r0, feasible, totals in blocks:
            for h in np.flatnonzero(feasible & (totals <= final_bar)):
                r, b = divmod(int(h), totals.shape[1])
                combo = chosen + ([] if rows is None else [int(rows[r0 + r])]) + [b]
                ties.append(
                    tuple(
                        CrossLayerDecision(
                            float(opts[p][0][j]), float(opts[p][1][j]), float(opts[p][2][j])
                        )
                        for p, j in enumerate(combo)
                    )
                )
                if len(ties) >= _MAX_TIES:
                    return True
        return False

    walk(lambda: final_bar, collect)

    return OracleResult(
        value=best / m,
        decisions=ties[0],
        ties=tuple(ties),
        time_step=time_step,
        action_step=inst.units[0].size / max(action_points - 1, 1),
    )
