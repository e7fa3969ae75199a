"""Exhaustive grid search over schedules: the reference optimum for small cases.

Every unit's window endpoints are restricted to a uniform time grid anchored
at its ready time and its payload to a uniform action grid; all FIFO-ordered,
budget-feasible combinations are enumerated. Units 1..M-3 are walked depth
first in index order, each level scored as one numpy expression over the
unit's options. Units M-2 and M-1 are scored together as one block, the
surviving options of unit M-2 times all options of unit M-1, whose kept pairs
come out in row-major order, the order of the walk. Unit M is answered from a
staircase, the least loss among its options up to a cost that start at or
after a given point, so one pair needs two lookups instead of a pass over
unit M's options. (M = 2 scores unit 1 as one level and M = 1 unit 1 alone.)

The search makes two passes, each pruning any prefix whose distortion
already exceeds its bar (distortion only grows downstream). The first finds
the exact minimum. A minimum does not depend on the order in which totals
are met, so this pass goes best first, with the running minimum as the
incumbent bound of branch and bound (Land and Doig, Econometrica 28(3),
1960): each level's options in order of their prefix distortion, the rows
of unit M-2 (unit 1 at M = 2) from a first chunk of ``_FIRST_ROWS`` rows,
and every later chunk cut at the first row above the running bar before its
pairs are built. It also marks the rows of unit M-2 that reach a total
within the bar of the moment. The second pass walks again in index order
with the final bar fixed, which is never above those bars, so it expands
only the marked rows, and of their pairs only those whose least total is
within the bar, and emits the tied assignments in index order until
``_MAX_TIES``. Blocks are cut by rows of unit M-2 to about ``_BLOCK_PAIRS``
pairs, so memory is the staircase plus one block, one mark per option of
unit M-2 and prefix, and the ties, whatever the grid or the number of
near-optimal assignments.

Cost still grows as (window pairs x actions)^(M-1), so the solver refuses
instances above ``_MAX_UNITS`` (4). With the default 10 ms / 21-point grids
on a 2-vCPU Xeon VM, M = 3 takes 0.002-0.004 s (the acceptance gate's cells,
trace seeds 1-5, independent and chain) and M = 4 0.03-0.09 s (trace seeds
1-3, budgets 2 and 10, independent and chain).
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
_BLOCK_PAIRS = 16_384
_MAX_UNITS = 4
# the rows of the first chunk that the first pass scores, to set its bar
_FIRST_ROWS = 4


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
    tie_tol: float = 1e-9,
) -> OracleResult:
    """Exact optimum of the grid-restricted instance.

    Returns the optimal value (average distortion, graph aware when the
    instance has one) and the grid assignments whose value ties the optimum
    within ``tie_tol`` (relative): the lexicographically first ``_MAX_TIES``
    of them by option index, in that order. ``decisions`` is the first tie.

    Units 1..M-3 are walked depth first, units M-2 and M-1 are scored as one
    pair block and unit M is read from a staircase, in two passes: best
    first to the minimum, then in index order to the ties. Memory is the
    staircase, one block of about ``_BLOCK_PAIRS`` pairs, the first pass's
    row marks and the ties. With the default grids on a 2-vCPU Xeon VM,
    M = 3 takes 0.002-0.004 s and M = 4 0.03-0.09 s (the cells of the module
    docstring).

    Raises ``ValueError`` on an invalid instance, grid or ``tie_tol`` and
    ``RuntimeError`` when no grid assignment meets the budget.
    """
    _require_valid(inst)
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    grid = DecisionGrid(time_step, action_points)
    m = inst.num_units
    if m > _MAX_UNITS:
        raise ValueError(
            f"brute force refuses {m} units (> {_MAX_UNITS}); cost is exponential in units"
        )
    if m == 0:
        return OracleResult(0.0, (), ((),), time_step, 0.0)

    opts = [grid.options(u, model) for u in inst.units]
    impacts = [u.impact for u in inst.units]
    ancestors = [()] * m if inst.graph is None else inst.graph.relatives[0][1:]
    budget_total = inst.budget * m + 1e-9
    chosen: list[int] = []

    # unit M's staircase: table[g, k] is the least loss among its options that
    # cost at most its k-th distinct cost and start at or after its g-th
    # distinct start (inf where there is none)
    starts, _, _, loss, cost = opts[m - 1]
    by_cost, firsts = np.unique(cost), np.unique(starts)
    padded = np.concatenate(([-math.inf], by_cost, [math.inf]))
    table = np.full((len(firsts) + 1, len(by_cost) + 1), math.inf)
    np.minimum.at(table, (firsts.searchsorted(starts), by_cost.searchsorted(cost) + 1), loss)
    table = np.minimum.accumulate(np.minimum.accumulate(table[::-1])[::-1], axis=1)

    def survival(pos: int, picks=()):
        """Product of ancestor survival fractions ``1 - loss`` of unit ``pos``
        (1-based) under ``chosen``, in ancestor order; an ancestor past
        ``chosen`` takes its factor at per-row option picks, ``picks[0]`` for
        the first unit past ``chosen`` and ``picks[1]`` for the next."""
        surv = 1.0
        depth = len(chosen)
        for k in ancestors[pos - 1]:
            surv = surv * (1.0 - opts[k - 1][3][chosen[k - 1] if k <= depth else picks[k - depth - 1]])
        return surv

    def level(pos: int, prev_end, energy, dist, bar: float):
        """The options of unit ``pos`` that follow the prefix ``chosen`` within
        the budget and ``bar``: their indices, ends, energies and distortions."""
        starts, ends, _, loss, cost = opts[pos - 1]
        e2 = energy + cost
        d2 = dist + impacts[pos - 1] * (1.0 - (1.0 - loss) * survival(pos))
        keep = np.flatnonzero((starts >= prev_end - 1e-12) & (e2 <= budget_total) & (d2 <= bar))
        return keep, ends[keep], e2[keep], d2[keep]

    def affordable(row_energy):
        """Per row, how many of unit M's distinct costs pass the budget test
        ``row_energy + cost <= budget_total``: a prefix, because adding a
        larger cost never rounds to a smaller sum. The guess from the
        difference can be off where rounding moves a sum across the bound;
        ``padded[k]`` is the k-th distinct cost and ``padded[k + 1]`` the next."""
        k = by_cost.searchsorted(budget_total - row_energy, "right")
        while True:
            over = row_energy + padded[k] > budget_total
            under = row_energy + padded[k + 1] <= budget_total
            if not (over.any() or under.any()):
                return k
            k = k - over + under

    def last_unit(picks, row_end, row_energy, row_dist):
        """Per row (the options ``picks`` of the units past ``chosen``, none if
        M = 1): the least total over unit M's options that follow it within the
        budget (inf if none does), from the staircase, and unit M's survival.
        The total is monotone in the loss, so the least loss gives the least
        total bit for bit."""
        surv = survival(m, picks)
        least = table[firsts.searchsorted(row_end - 1e-12, "left"), affordable(row_energy)]
        found = least < math.inf
        totals = row_dist + impacts[m - 1] * (1.0 - (1.0 - np.where(found, least, 0.0)) * surv)
        return np.where(found, totals, math.inf), surv

    def block(rows, row_end, row_energy, row_dist, bar, visit, chunks) -> bool:
        """Units M-2 and M-1 as one broadcast: the options ``rows`` of unit M-2
        times all options of unit M-1, kept by the FIFO, budget and ``bar()``
        tests of ``level`` and passed to ``visit`` in row-major order, at most
        about ``_BLOCK_PAIRS`` pairs at a time (the ``chunks`` of the rows)."""
        starts, ends, _, loss, cost = opts[m - 2]
        step = max(1, _BLOCK_PAIRS // max(len(starts), 1))
        for part in chunks(row_dist, step):
            e2 = row_energy[part, None] + cost
            surv = survival(m - 1, (rows[part, None],))
            d2 = row_dist[part, None] + impacts[m - 2] * (1.0 - (1.0 - loss) * surv)
            fifo = starts >= row_end[part, None] - 1e-12
            r, b = np.nonzero(fifo & (e2 <= budget_total) & (d2 <= bar()))
            if visit((rows[part][r], b), ends[b], e2[r, b], d2[r, b]):
                return True
        return False

    def walk(bar, visit, first: bool) -> bool:
        """Depth-first over the prefixes of units 1..M-3, pruned at ``bar()``;
        ``visit(picks, ends, energies, distortions)`` scores unit M after the
        per-row options ``picks`` of the units past the prefix (units M-2 and
        M-1, unit 1 if M = 2, none if M = 1) and returns True to stop the
        walk. The ``first`` pass visits options best first, in order of their
        prefix distortion: the rows of unit M-2 (unit 1 at M = 2) from a
        first chunk of ``_FIRST_ROWS`` rows, each later chunk cut at the first
        row above the bar, and a walked level up to that row. The second pass
        visits them in index order, and of the rows of unit M-2 (unit 1 at
        M = 2) only those that the first pass marked in ``reached``."""

        def chunks(dist, step):
            """Slices of rows ``step`` at a time, in the visiting order."""
            if not first:
                yield from (slice(lo, lo + step) for lo in range(0, len(dist), step))
                return
            lo, hi = 0, _FIRST_ROWS
            while (hi := min(hi, int(dist.searchsorted(bar(), "right")))) > lo:
                yield slice(lo, hi)
                lo, hi = hi, hi + step

        def descend(pos: int, prev_end, energy, dist) -> bool:
            if m == 1:
                return visit((), np.array([prev_end]), np.array([energy]), np.array([dist]))
            keep, ends, e2, d2 = level(pos, prev_end, energy, dist, bar())
            if first:
                sel = d2.argsort(kind="stable")
            elif pos >= m - 2:
                if (marked := reached.get(tuple(chosen))) is None:
                    return False
                sel = marked[keep]
            else:
                sel = slice(None)
            keep, ends, e2, d2 = keep[sel], ends[sel], e2[sel], d2[sel]
            if pos == m - 1:
                return any(visit((keep[part],), ends[part], e2[part], d2[part]) for part in chunks(d2, len(d2) or 1))
            if pos == m - 2:
                return block(keep, ends, e2, d2, bar, visit, chunks)
            for n, j in enumerate(keep):
                if d2[n] > bar():
                    if first:
                        break
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

    # pass 1: the exact minimum, and per prefix the rows of unit M-2 (unit 1
    # at M = 2) with a total within the bar at the time. The final bar is
    # never above it, so these hold every row that pass 2 can expand
    best = math.inf
    reached: dict[tuple[int, ...], np.ndarray] = {}

    def improve(picks, row_end, row_energy, row_dist) -> bool:
        nonlocal best
        totals = last_unit(picks, row_end, row_energy, row_dist)[0]
        best = min(best, float(totals.min(initial=math.inf)))
        if picks:
            rows = reached.setdefault(tuple(chosen), np.zeros(len(opts[len(chosen)][0]), dtype=bool))
            rows[picks[0][totals <= tie_bar(best)]] = True
        return False

    walk(lambda: tie_bar(best), improve, first=True)
    if not math.isfinite(best):
        raise RuntimeError("no feasible grid assignment found")

    # pass 2: the ties within the final bar, in index order; of the marked
    # rows only those whose least total is within the bar are expanded
    final_bar = tie_bar(best)
    ties: list[tuple[CrossLayerDecision, ...]] = []

    def collect(picks, row_end, row_energy, row_dist) -> bool:
        totals, surv = last_unit(picks, row_end, row_energy, row_dist)
        for r in np.flatnonzero(totals <= final_bar):
            feasible = (starts >= row_end[r] - 1e-12) & (row_energy[r] + cost <= budget_total)
            row_surv = surv[r] if isinstance(surv, np.ndarray) else surv
            row = row_dist[r] + impacts[m - 1] * (1.0 - (1.0 - loss) * row_surv)
            for b in np.flatnonzero(feasible & (row <= final_bar)):
                combo = chosen + [int(p[r]) for p in picks] + [int(b)]
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

    walk(lambda: final_bar, collect, first=False)

    return OracleResult(
        value=best / m,
        decisions=ties[0],
        ties=tuple(ties),
        time_step=time_step,
        action_step=grid.action_step(inst.units[0]),
    )
