"""Exhaustive grid search: corner cases, the scalar reference and
cross-checks with the solvers."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from xlsched import (
    CrossLayerDecision,
    DataUnit,
    DecisionGrid,
    DependencyGraph,
    Instance,
    OracleResult,
    ShannonEnergyParams,
    ShannonExpModel,
    TraceParams,
    average_energy,
    brute_force,
    generate_dag,
    generate_trace,
    instance_distortion,
    solve_independent,
    solve_interdependent,
)
from xlsched import oracle
from xlsched.oracle import _MAX_TIES

MODEL = ShannonExpModel()
CAPPED = ShannonExpModel(params=ShannonEnergyParams(energy_cap=50.0))


def reference_brute_force(inst, model, time_step=0.01, action_points=21, tie_tol=1e-9):
    """The scalar depth-first enumeration ``brute_force`` replaced: one numpy
    call per option of unit M-1, every near-tie kept until the end."""
    m = inst.num_units
    grid = DecisionGrid(time_step, action_points)
    opts = [grid.options(u, model) for u in inst.units]
    graph = inst.graph
    budget_total = inst.budget * m + 1e-9

    best = {"value": math.inf}
    candidates: list[tuple[float, tuple[int, ...]]] = []

    def anc_survival(pos: int, chosen: list[int]) -> float:
        """Product of ancestor survival fractions for unit ``pos`` (1-based)."""
        if graph is None:
            return 1.0
        surv = 1.0
        for k in graph.ancestors(pos):
            surv *= 1.0 - opts[k - 1][3][chosen[k - 1]]
        return surv

    def assign(pos: int, prev_end: float, energy: float, dist: float, chosen: list[int]) -> None:
        starts, ends, payloads, loss, cost = opts[pos - 1]
        unit = inst.units[pos - 1]
        if pos == m:
            mask = (starts >= prev_end - 1e-12) & (energy + cost <= budget_total)
            if not mask.any():
                return
            surv = anc_survival(pos, chosen)
            totals = dist + unit.impact * (1.0 - (1.0 - loss) * surv)
            totals = np.where(mask, totals, math.inf)
            idx = int(np.argmin(totals))
            val = float(totals[idx])
            if val < best["value"]:
                best["value"] = val
            bar = best["value"] + tie_tol * max(1.0, abs(best["value"]))
            for j in np.flatnonzero(totals <= bar):
                candidates.append((float(totals[j]), tuple(chosen + [int(j)])))
            return
        surv = anc_survival(pos, chosen)
        bar = best["value"] + tie_tol * max(1.0, abs(best["value"]))
        for j in range(len(starts)):
            if starts[j] < prev_end - 1e-12:
                continue
            e2 = energy + cost[j]
            if e2 > budget_total:
                continue
            d2 = dist + unit.impact * (1.0 - (1.0 - loss[j]) * surv)
            if d2 > bar:  # distortion only grows downstream
                continue
            chosen.append(j)
            assign(pos + 1, ends[j], e2, d2, chosen)
            chosen.pop()
            bar = best["value"] + tie_tol * max(1.0, abs(best["value"]))

    assign(1, -math.inf, 0.0, 0.0, [])

    if not math.isfinite(best["value"]):
        raise RuntimeError("no feasible grid assignment found")

    bar = best["value"] + tie_tol * max(1.0, abs(best["value"]))
    tied: list[tuple[CrossLayerDecision, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for val, combo in candidates:
        if val <= bar and combo not in seen:
            seen.add(combo)
            tied.append(
                tuple(
                    CrossLayerDecision(
                        float(opts[p][0][j]), float(opts[p][1][j]), float(opts[p][2][j])
                    )
                    for p, j in enumerate(combo)
                )
            )
            if len(tied) >= _MAX_TIES:
                break

    action_step = inst.units[0].size / max(action_points - 1, 1)
    return OracleResult(
        value=best["value"] / m,
        decisions=tied[0],
        ties=tuple(tied),
        time_step=time_step,
        action_step=action_step,
    )


def _single_unit_instance(budget=1e6):
    unit = DataUnit(index=1, impact=100.0, size=10.0, ready=0.0, deadline=0.05,
                    decay=0.5, channel=1.0)
    return Instance(units=(unit,), budget=budget)


class TestBruteForce:
    def test_single_unit_slack_budget_hits_the_corner(self):
        inst = _single_unit_instance()
        result = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        # full payload costs 100 * 2**-5; energy plays no role under a slack budget
        assert result.value == pytest.approx(3.125)
        assert result.decisions[0].payload == 10.0
        corner = (CrossLayerDecision(0.0, 0.05, 10.0),)
        assert corner in result.ties

    def test_refuses_large_instances(self):
        inst = generate_trace(TraceParams(seed=0, num_dus=5))
        with pytest.raises(ValueError, match="refuses"):
            brute_force(inst, MODEL)

    def test_empty_instance(self):
        result = brute_force(Instance(units=(), budget=1.0), MODEL)
        assert result.value == 0.0
        assert result.decisions == ()

    def test_returned_schedule_is_feasible_and_scores_its_value(self):
        inst = generate_trace(TraceParams(seed=4, num_dus=3, budget=2.0))
        result = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        decs = result.decisions
        for a, b in zip(decs, decs[1:]):
            assert b.start >= a.end - 1e-9
        assert average_energy(inst, decs, MODEL) <= inst.budget + 1e-6
        assert instance_distortion(inst, decs, MODEL) == pytest.approx(result.value)

    def test_every_tie_scores_within_tolerance(self):
        inst = generate_trace(TraceParams(seed=4, num_dus=2, budget=2.0))
        result = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        for combo in result.ties:
            v = instance_distortion(inst, combo, MODEL)
            assert v <= result.value * (1.0 + 1e-9) + 1e-12

    def test_tighter_budget_cannot_improve_the_optimum(self):
        loose = generate_trace(TraceParams(seed=4, num_dus=2, budget=4.0))
        tight = Instance(units=loose.units, budget=1.0)
        v_loose = brute_force(loose, MODEL).value
        v_tight = brute_force(tight, MODEL).value
        assert v_tight >= v_loose - 1e-12


def _trace(seed, n, budget=10.0):
    return generate_trace(TraceParams(seed=seed, num_dus=n, budget=budget))


def _chain(inst):
    m = inst.num_units
    graph = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1)))
    return Instance(units=inst.units, budget=inst.budget, graph=graph)


def _random_dag(inst, seed):
    graph = generate_dag("random", inst.num_units, 10, seed=seed, edge_prob=0.5)
    return Instance(units=inst.units, budget=inst.budget, graph=graph)


def _near_zero_impact(inst):
    """Impacts of 1e-12: every assignment ties within the default tolerance."""
    units = tuple(dataclasses.replace(u, impact=1e-12) for u in inst.units)
    return Instance(units=units, budget=inst.budget, graph=inst.graph)


def _back_to_back(m, budget, first_deadline=0.3):
    """Units 2 and 3 ready at 0.3 and 0.8, on a 0.1 s grid. With the
    default ``first_deadline`` each unit is ready at the previous unit's
    deadline, which is also that unit's last grid point (points are clamped
    to the deadline). With 0.35, unit 1's point 0.1 * 3 = 0.30000000000000004
    lies inside its window but past unit 2's ready time 0.3, so windows
    ending there meet unit 2 only through the 1e-12 FIFO slack."""
    units = tuple(
        DataUnit(index=i, impact=100.0, size=10.0, ready=r, deadline=d, decay=0.5, channel=1.0)
        for i, r, d in ((1, 0.0, first_deadline), (2, 0.3, 0.8), (3, 0.8, 1.3))
    )
    return Instance(units=units[:m], budget=budget)


def _three_ancestors():
    """A 4-unit chain whose last unit carries the distortion; at full
    payloads the survival factors of units 1-3 round differently when
    multiplied in another order."""
    base = _trace(1, 4)
    units = tuple(
        dataclasses.replace(u, decay=decay, impact=100.0 if u.index == 4 else 1e-3)
        for u, decay in zip(base.units, (0.4, 0.55, 0.75, 0.5))
    )
    return _chain(Instance(units=units, budget=10.0))


@dataclasses.dataclass(frozen=True)
class FixedCostModel(ShannonExpModel):
    """Every transmission, even an empty one, costs one extra unit of energy."""

    def cost(self, unit, start, end, payload):
        return super().cost(unit, start, end, payload) + 1.0


@dataclasses.dataclass(frozen=True)
class ListeningModel(ShannonExpModel):
    """The radio also spends energy while its window is open, so the longest
    window is no longer the cheapest for a payload."""

    def cost(self, unit, start, end, payload):
        return super().cost(unit, start, end, payload) + 40.0 * (end - start)


def _reference_cases():
    # the lattice-oracle benchmark cells of workload seeds 3, 7 and 11: the
    # acceptance gate's criterion-2 cells, then one of each kind per seed
    kinds = ((2, False), (2, True), (3, False), (3, True))
    cells = [(m, chained, s) for m, chained in kinds for s in (1, 2, 3, 4, 5)]
    cells += [(*kinds[k % 4], seed * 1000 + k) for seed in (3, 7, 11) for k in range(4)]
    for m, chained, s in cells:
        inst = _trace(s, m)
        yield f"cell-m{m}-{'chain' if chained else 'ind'}-{s}", _chain(inst) if chained else inst, {}
    for m in (1, 2, 3):
        for budget in (0.5, 2.0, 10.0):
            inst = _trace(20 + m, m, budget)
            yield f"ind-m{m}-b{budget}", inst, {}
            yield f"dag-m{m}-b{budget}", _random_dag(inst, m), {}
    coarse = {"time_step": 0.025, "action_points": 5}
    for s in (1, 2):
        yield f"m4-ind-{s}", _trace(s, 4, 2.0), coarse
        yield f"m4-chain-{s}", _chain(_trace(s, 4, 2.0)), coarse
    yield "near-zero-m1", _near_zero_impact(_trace(201, 1)), {}
    yield "near-zero-m2", _near_zero_impact(_trace(201, 2)), {}
    yield "near-zero-m2-chain", _chain(_near_zero_impact(_trace(202, 2))), {}
    yield "back-to-back-m2", _back_to_back(2, 10.0), {"time_step": 0.1}
    yield "back-to-back-m3", _back_to_back(3, 2.0), {"time_step": 0.1}
    yield "past-ready-m2", _back_to_back(2, 10.0, 0.35), {"time_step": 0.1}
    yield "past-ready-m3", _back_to_back(3, 2.0, 0.35), {"time_step": 0.1}
    yield "three-ancestors", _three_ancestors(), coarse
    yield "tie-tol-1e-3", _trace(5, 3, 2.0), {"tie_tol": 1e-3}
    yield "tie-tol-1e-3-chain", _chain(_trace(5, 3, 2.0)), {"tie_tol": 1e-3}
    yield "tie-tol-0", _trace(5, 2, 2.0), {"tie_tol": 0.0}
    # the first pass visits rows best first, the second in index order
    yield "tie-tol-0-m1", _trace(5, 1, 2.0), {"tie_tol": 0.0}
    yield "tie-tol-0-m3", _trace(5, 3, 2.0), {"tie_tol": 0.0}
    yield "tie-tol-0-m3-chain", _chain(_trace(5, 3, 2.0)), {"tie_tol": 0.0}
    yield "tie-tol-0-m4", _trace(3, 4, 2.0), {"tie_tol": 0.0, **coarse}
    yield "tie-tol-0-m4-chain", _chain(_trace(3, 4, 2.0)), {"tie_tol": 0.0, **coarse}
    yield "tie-tol-1e-2-m4", _trace(5, 4, 2.0), {"tie_tol": 1e-2, **coarse}
    yield "tie-tol-1e-2-m4-chain", _chain(_trace(5, 4, 2.0)), {"tie_tol": 1e-2, **coarse}
    for name, inst, kwargs in UNSORTED_TIES:
        yield name, inst, kwargs


# cells whose ties, listed in index order, do not list unit 1's options in
# the order of their distortion, the first pass's visiting order
UNSORTED_TIES = [
    ("unsorted-ties-m2", _trace(1, 2, 2.0), {"tie_tol": 1e-2}),
    ("unsorted-ties-m3", _trace(2, 3, 2.0), {"tie_tol": 1e-2}),
    ("unsorted-ties-m3-chain", _chain(_trace(1, 3, 2.0)), {"tie_tol": 1e-3}),
    ("unsorted-ties-m3-many", _trace(4, 3, 2.0), {"tie_tol": 1e-2}),
]

REFERENCE_CASES = list(_reference_cases())


class TestMatchesScalarReference:
    @pytest.mark.parametrize("inst,kwargs", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_bit_identical(self, inst, kwargs):
        assert repr(brute_force(inst, MODEL, **kwargs)) == repr(
            reference_brute_force(inst, MODEL, **kwargs)
        )

    @pytest.mark.parametrize("inst,kwargs", [c[1:] for c in UNSORTED_TIES], ids=[c[0] for c in UNSORTED_TIES])
    def test_ties_are_not_in_the_first_pass_order(self, inst, kwargs):
        # several ties, with unit 1's distortion out of order along them
        result = brute_force(inst, MODEL, **kwargs)
        unit = inst.units[0]
        first = [unit.impact * MODEL.loss(unit, t[0].start, t[0].end, t[0].payload) for t in result.ties]
        assert first != sorted(first)

    def test_grid_infeasible_budget_raises_the_same_error(self):
        inst = _trace(5, 2, 1e-9)
        with pytest.raises(RuntimeError, match="no feasible grid assignment found"):
            reference_brute_force(inst, FixedCostModel())
        with pytest.raises(RuntimeError, match="no feasible grid assignment found"):
            brute_force(inst, FixedCostModel())

    def test_tiny_budget_is_met_by_empty_payloads(self):
        # an empty payload is free, so the default model is never grid-infeasible
        result = brute_force(_trace(5, 2, 1e-9), MODEL)
        assert all(d.payload == 0.0 for d in result.decisions)


def _random_cells(count=36):
    """M = 1-3, budgets log-uniform in [1e-6, 1e3], the default model with and
    without an energy cap or with listening energy, and no graph, a chain or
    a random DAG in turn; then M = 4 on the coarse grid, where units 2 and 3
    are scored as one pair block, with no graph, a chain, a random DAG and a
    DAG in which unit 4 depends directly on both block units."""
    rng = np.random.default_rng(16)
    for n in range(count):
        m = int(rng.integers(1, 4))
        budget = float(10.0 ** rng.uniform(-6.0, 3.0))
        inst = _trace(int(rng.integers(1, 10_000)), m, budget)
        kind = ("none", "chain", "dag")[n % 3]
        if kind == "chain":
            inst = _chain(inst)
        elif kind == "dag":
            inst = _random_dag(inst, n)
        name, model = (("uncapped", MODEL), ("capped", CAPPED), ("listening", ListeningModel()))[n // 3 % 3]
        kwargs = {"time_step": float(rng.choice([0.01, 0.02])), "action_points": int(rng.choice([6, 11, 21]))}
        yield f"{n}-m{m}-{kind}-{name}", inst, model, kwargs
    coarse = {"time_step": 0.025, "action_points": 5}
    both = DependencyGraph(4, ((3, 1), (4, 2), (4, 3)))
    for n, kind in enumerate(("none", "chain", "dag", "both")):
        budget = float(10.0 ** rng.uniform(-6.0, 3.0))
        inst = _trace(int(rng.integers(1, 10_000)), 4, budget)
        if kind == "chain":
            inst = _chain(inst)
        elif kind == "dag":
            inst = _random_dag(inst, n)
        elif kind == "both":
            inst = Instance(units=inst.units, budget=inst.budget, graph=both)
        name, model = (("uncapped", MODEL), ("capped", CAPPED), ("listening", ListeningModel()))[n % 3]
        yield f"m4-{n}-{kind}-{name}", inst, model, coarse


def _at_the_budget_boundary(seed):
    """A 2-unit cell whose optimum spends the budget total ``2*budget + 1e-9``
    exactly: the total is ``t = e + c``, the energies of the optimum's two
    options at a looser budget, and the difference ``t - e`` that a search on
    unit 2's costs would use is below c, so only the exact test
    ``e + c <= t`` keeps the optimum."""
    base = _trace(seed, 2)
    for loose in np.geomspace(1e-3, 1e2, 60):
        first, second = reference_brute_force(Instance(base.units, float(loose)), MODEL).decisions
        e = MODEL.cost(base.units[0], first.start, first.end, first.payload)
        c = MODEL.cost(base.units[1], second.start, second.end, second.payload)
        total = e + c
        if not (e > 0.0 and total - e < c):
            continue
        budget = (total - 1e-9) / 2.0
        for _ in range(8):
            if 2.0 * budget + 1e-9 == total:
                return Instance(base.units, budget)
            budget = math.nextafter(budget, math.inf if 2.0 * budget + 1e-9 < total else -math.inf)
    raise AssertionError(f"no boundary cell on trace seed {seed}")


def _past_ready_short(budget):
    """Unit 1's windows ending at 0.30000000000000004 reach unit 2's start 0.3
    only through the FIFO slack, and unit 2 can send nothing from its only
    other start, its deadline 0.4."""
    first, second = _back_to_back(2, budget, 0.35).units
    return Instance((first, dataclasses.replace(second, deadline=0.4)), budget)


PROPERTY_CASES = list(_random_cells())
PROPERTY_CASES += [(f"boundary-{seed}", _at_the_budget_boundary(seed), MODEL, {}) for seed in (1, 2, 3)]
PROPERTY_CASES += [
    (f"past-ready-short-b{budget}", _past_ready_short(budget), MODEL, {"time_step": 0.1})
    for budget in (2.0, 10.0)
]


class TestMatchesScalarReferenceOnRandomCells:
    @pytest.mark.parametrize("inst,model,kwargs", [c[1:] for c in PROPERTY_CASES],
                             ids=[c[0] for c in PROPERTY_CASES])
    def test_bit_identical(self, inst, model, kwargs):
        assert repr(brute_force(inst, model, **kwargs)) == repr(
            reference_brute_force(inst, model, **kwargs)
        )


class TestTieMemory:
    def test_ties_are_capped_in_index_order_with_bounded_memory(self):
        inst = _near_zero_impact(_trace(201, 3))
        tracemalloc.start()
        try:
            result = brute_force(inst, MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert len(result.ties) == _MAX_TIES
        assert result.decisions == result.ties[0]

        grid = DecisionGrid(0.01, 21)
        opts = [grid.options(u, MODEL) for u in inst.units]

        def option_index(p, d):
            starts, ends, payloads = opts[p][:3]
            (hit,) = np.flatnonzero((starts == d.start) & (ends == d.end) & (payloads == d.payload))
            return int(hit)

        combos = [tuple(option_index(p, d) for p, d in enumerate(tie)) for tie in result.ties]
        assert all(a < b for a, b in zip(combos, combos[1:]))
        total = result.value * inst.num_units
        bar = total + 1e-9 * max(1.0, total)
        for tie in result.ties:
            assert instance_distortion(inst, tie, MODEL) * inst.num_units <= bar
            assert average_energy(inst, tie, MODEL) <= inst.budget + 1e-9
            for a, b in zip(tie, tie[1:]):
                assert b.start >= a.end - 1e-9


class TestPairBlock:
    """Units M-2 and M-1 are scored as one block, chunked by rows of unit M-2."""

    CASES = {name: (inst, kwargs) for name, inst, kwargs in REFERENCE_CASES}
    CASES.update({name: (inst, kwargs) for name, inst, model, kwargs in PROPERTY_CASES
                  if name.startswith("m4-") and model is MODEL})
    CASES["near-zero-m3-coarse"] = (_near_zero_impact(_trace(201, 3)), {"time_step": 0.025, "action_points": 5})
    SPLIT = ("cell-m3-ind-1", "cell-m3-chain-2", "dag-m3-b2.0", "back-to-back-m3", "past-ready-m3",
             "three-ancestors", "tie-tol-1e-3-chain", "m4-chain-1", "m4-0-none-uncapped",
             "m4-3-both-uncapped", "near-zero-m3-coarse")

    @pytest.mark.parametrize("first_rows", [1, 4, 100_000])
    @pytest.mark.parametrize("pairs", [1, 40])
    @pytest.mark.parametrize("name", SPLIT)
    def test_rows_split_across_blocks_match_the_reference(self, name, pairs, first_rows, monkeypatch):
        # a block of one row (or a few) of unit M-2, so the bar, the ties and
        # the tie cap all cross block boundaries; the first pass scores its
        # first chunk of one row, a few or all of them before cutting at the bar
        inst, kwargs = self.CASES[name]
        monkeypatch.setattr(oracle, "_BLOCK_PAIRS", pairs)
        monkeypatch.setattr(oracle, "_FIRST_ROWS", first_rows)
        assert repr(brute_force(inst, MODEL, **kwargs)) == repr(reference_brute_force(inst, MODEL, **kwargs))

    def test_default_grid_m4_memory_is_one_block(self):
        # 321 options per unit: one unchunked block of units 2 and 3 would
        # hold 103 041 pairs and peak at about 9 MB
        inst = _trace(1, 4, 10.0)
        tracemalloc.start()
        try:
            brute_force(inst, MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestOracleInputValidation:
    @pytest.mark.parametrize("field", ["impact", "deadline"])
    def test_nan_unit_field_is_rejected(self, field):
        inst = _trace(4, 2, 2.0)
        units = (dataclasses.replace(inst.units[0], **{field: math.nan}), inst.units[1])
        with pytest.raises(ValueError, match="invalid instance"):
            brute_force(Instance(units=units, budget=inst.budget), MODEL)

    @pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_budget_is_rejected(self, budget):
        inst = _trace(4, 2, 2.0)
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            brute_force(Instance(units=inst.units, budget=budget), MODEL)

    @pytest.mark.parametrize("tie_tol", [math.nan, math.inf, -1e-9])
    def test_bad_tie_tol_is_rejected(self, tie_tol):
        with pytest.raises(ValueError, match="tie_tol"):
            brute_force(_trace(4, 2, 2.0), MODEL, tie_tol=tie_tol)


class TestOracleVsSolvers:
    def test_independent_two_units(self):
        inst = generate_trace(TraceParams(seed=1, num_dus=2, budget=2.0))
        grid = DecisionGrid(time_step=0.01, action_points=21)
        oracle = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        rep = solve_independent(inst, MODEL, grid=grid)
        assert oracle.value <= rep.primal_value + 1e-9
        assert rep.primal_value <= oracle.value * 1.02 + 1e-12

    def test_chain_two_units(self):
        base = generate_trace(TraceParams(seed=1, num_dus=2, budget=2.0))
        inst = Instance(units=base.units, budget=base.budget,
                        graph=DependencyGraph(2, ((2, 1),)))
        grid = DecisionGrid(time_step=0.01, action_points=21)
        oracle = brute_force(inst, MODEL, time_step=0.01, action_points=21)
        rep = solve_interdependent(inst, MODEL, grid=grid)
        assert oracle.value <= rep.primal_value + 1e-9
        assert rep.primal_value <= oracle.value * 1.02 + 1e-12
