"""The workloads: inputs from a seed, and one round of closed-loop calls.

A round is a fixed amount of work over inputs derived only from the workload
seed, so every round of a run repeats the same calls and must return the same
schedules. The caller is a single closed-loop client: it makes its next call
as soon as the previous one returns. Calls go through module attributes
(``online.run_online``, ``offline.solve_independent`` and so on) so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from xlsched import offline, online, oracle, tracegen
from xlsched.core import DependencyGraph, Instance
from xlsched.online import CausalStream

import check

BUDGET = 10.0
# offline-dual runs OFFLINE_OUTER outer iterations per solve, with at most
# OFFLINE_MAX_INNER block sweeps per outer iteration (as mdu does), so that the
# seed changes the inputs and not the amount of work: stopping at a 1 % gap
# instead made the outer iterations of a round range from 422 to 599 over
# eight seeds, and its time with them; left at its default of 50, the sweep
# count varies eightfold between traces. Convergence shows in the gap.
OFFLINE_OUTER = 60
OFFLINE_MAX_INNER = 3
LATTICE = offline.DecisionGrid(0.01, 21)
# most lattice solves run to this cap; their time goes mostly to the lattice
# options, recovery and polish, not to the outer iterations
LATTICE_MAX_OUTER = 100


# The host's speed is sampled between requests with a fixed kernel, and a
# round's request times are scaled to a host on which the kernel takes
# REF_NOMINAL_S (about its fastest time on a shared 2-vCPU Xeon VM). A round
# samples it at least every CAL_EVERY requests. The kernel is an integer
# loop plus small numpy calls: on that VM, over 23 rounds per workload, the
# log of a round's time moved with the log of the round's mean kernel time
# with a slope of 1.15-1.35, and dividing by it cut the spread of round
# times from 0.135-0.151 to 0.058-0.066 (standard deviation of the log);
# either half alone did worse on some workload.
REF_LOOP = 20_000
REF_ARRAY = np.linspace(0.0, 1.0, 300)
REF_NOMINAL_S = 2.0e-3
CAL_EVERY = {"observe": 400, "take_cycle": 1}


def reference_s() -> float:
    """One timing of the reference kernel, in seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    for _ in range(170):
        int(np.argmin(np.exp(-REF_ARRAY * 0.3) * REF_ARRAY))
    return perf_counter() - t0


class TimedStream(CausalStream):
    """A causal stream that times each request the policy makes for input.

    A request runs from one call for input to the next; the reference
    kernel runs between the two timed spans, never inside one.
    """

    def __init__(self, *args, rnd: "Round", kind: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.rnd, self.kind = rnd, kind
        self.start = None
        self.calls = 0

    def _stamp(self, every: int) -> None:
        now = perf_counter()
        if self.start is not None:
            self.rnd.add_request(self.kind, now - self.start)
        if self.calls % every == 0:
            self.rnd.calibrate()
        self.calls += 1
        self.start = perf_counter()

    def observe(self, index):
        self._stamp(CAL_EVERY["observe"])
        return super().observe(index)

    def take_cycle(self, cycle):
        self._stamp(CAL_EVERY["take_cycle"])
        return super().take_cycle(cycle)


@dataclass
class Round:
    """What one round did, as seen from the client."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0  # reported values the benchmark's evaluation disagrees with
    requests: dict = field(default_factory=dict)  # request kind -> [seconds]
    ref: list = field(default_factory=list)  # reference kernel samples, seconds
    distortion: float = 0.0
    energy_ratio: float = 0.0  # summed per schedule
    excess: float = 0.0  # summed per schedule
    schedules: int = 0
    drops: int = 0
    gaps: list = field(default_factory=list)
    oracle_excess: list = field(default_factory=list)
    outer_iters: int = 0
    inner_sweeps: int = 0
    wall_s: float = 0.0
    bookkeeping_s: float = 0.0  # the benchmark's own checks and samples inside wall_s
    digest: object = field(default_factory=check.new_digest)

    def calibrate(self) -> None:
        """Sample the host's speed with the reference kernel."""
        t0 = perf_counter()
        self.ref.append(reference_s())
        self.bookkeeping_s += perf_counter() - t0

    def add_request(self, kind: str, seconds: float) -> None:
        self.requests.setdefault(kind, []).append(seconds)

    def service_s(self, scaled: bool) -> dict:
        """Request kind -> service time of each request, in order.

        Scaled times are multiplied by REF_NOMINAL_S over the round's mean
        kernel time. A kernel sample next to one request tracks the host
        worse than the round's mean: the host changes within a request.
        """
        factor = REF_NOMINAL_S / (sum(self.ref) / len(self.ref)) if scaled else 1.0
        return {kind: [sec * factor for sec in reqs] for kind, reqs in self.requests.items()}

    def schedule(self, inst, decisions, model, offline_rules: bool, score: bool = True) -> float:
        """Check one returned schedule, count it failed if infeasible, and
        (with ``score``) add it to the round's outcomes; returns its mean
        distortion."""
        t0 = perf_counter()
        errs = check.feasibility_errors(inst, decisions, model, offline_rules)
        for e in errs[:5]:
            print(f"infeasible schedule: {e}", file=sys.stderr)
        self.failed += bool(errs)
        dist, energy, drops = check.schedule_totals(inst, decisions, model)
        m = inst.num_units
        if score:
            self.distortion += dist
            ratio = energy / m / inst.budget
            self.energy_ratio += ratio
            self.excess += max(0.0, ratio - 1.0)
            self.schedules += 1
            self.drops += drops
        check.digest(self.digest, decisions)
        self.bookkeeping_s += perf_counter() - t0
        return dist / m

    def report(self, what: str, inst, rep, model) -> None:
        """Score an offline solve and cross-check the value it reports."""
        mean_dist = self.schedule(inst, rep.decisions, model, offline_rules=True)
        if not check.close(mean_dist, rep.primal_value):
            self.mismatched += 1
            print(f"{what}: reported primal {rep.primal_value!r}, evaluated {mean_dist!r}", file=sys.stderr)
        self.gaps.append(float(rep.gap))
        self.outer_iters += rep.outer_iterations
        self.inner_sweeps += rep.inner_iterations

    @property
    def busy_s(self) -> float:
        """Round time spent in the program, without the benchmark's checks."""
        return self.wall_s - self.bookkeeping_s

    def quality(self) -> dict:
        """Deterministic outcomes of the round, identical on every repeat."""
        n = max(self.units, 1)
        s = max(self.schedules, 1)
        return {
            "avg_distortion": self.distortion / n,
            "energy_per_budget": self.energy_ratio / s,
            "budget_excess": self.excess / s,
            "drop_rate": self.drops / n,
            "gap": sum(self.gaps) / len(self.gaps) if self.gaps else 0.0,
            "oracle_excess": sum(self.oracle_excess) / len(self.oracle_excess) if self.oracle_excess else 0.0,
            "fail_rate": self.failed / max(self.attempted, 1),
            "mismatched": self.mismatched,
            "attempted": self.attempted,
            "outer_iters": self.outer_iters,
            "inner_sweeps": self.inner_sweeps,
            "digest": self.digest.hexdigest(),
        }


def _attempt(rnd: Round, what: str, fn, *args, **kwargs):
    """One timed call into the program; returns (result or None, seconds).

    A call that raises is a failed operation.
    """
    rnd.attempted += 1
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs), perf_counter() - t0
    except Exception:  # noqa: BLE001 - count, report and keep the run going
        elapsed = perf_counter() - t0
        rnd.failed += 1
        print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None, elapsed


# -- inputs -------------------------------------------------------------------


def _trace(seed: int, n: int) -> Instance:
    return tracegen.generate_trace(tracegen.TraceParams(seed=seed, num_dus=n, budget=BUDGET))


def _with_dag(inst: Instance, kind: str, cycle_len: int, seed: int) -> Instance:
    graph = tracegen.generate_dag(kind, inst.num_units, cycle_len, seed=seed, edge_prob=0.5)
    return Instance(units=inst.units, budget=inst.budget, graph=graph)


def _sub_seed(seed: int, k: int) -> int:
    # distinct, reproducible trace seeds per workload seed
    return seed * 1000 + k


# Sizes per workload; ``tiny`` is the self-test scale.
# A full round takes 3-11 s on a 2-vCPU Xeon VM, so that a 25 s run repeats
# every request at least twice and a traced run ends within 25 s.
SIZES = {
    "online-dag": {"full": {"units": 4000}, "tiny": {"units": 40}},
    "mdu-dag": {"full": {"cycles": 30}, "tiny": {"cycles": 3}},
    "offline-dual": {"full": {"pairs": 6, "units": 10}, "tiny": {"pairs": 1, "units": 4}},
    "lattice-oracle": {"full": {"gate_seeds": (1, 2, 3, 4, 5), "cells": 4},
                       "tiny": {"gate_seeds": (1,), "cells": 4}},
}

# the criterion-2 cell kinds: units, and whether the units form a chain
CELL_KINDS = ((2, False), (2, True), (3, False), (3, True))


def make_inputs(name: str, seed: int, scale: str) -> dict:
    size = SIZES[name][scale]
    if name == "online-dag":
        n = size["units"]
        return {"inst": _with_dag(_trace(seed, n), "random", 10, seed), "sizes": {"units": n, "cycle_len": 10}}
    if name == "mdu-dag":
        n = 5 * size["cycles"]
        return {"inst": _with_dag(_trace(seed, n), "ibpbp", 5, seed), "sizes": {"units": n, "cycle_len": 5}}
    if name == "offline-dual":
        m = size["units"]
        pairs = []
        for k in range(size["pairs"]):
            indep = _trace(_sub_seed(seed, k), m)
            pairs.append((indep, _with_dag(indep, "random", 10, _sub_seed(seed, k))))
        return {"pairs": pairs, "sizes": {"solves": 2 * size["pairs"], "units_per_solve": m}}
    if name == "lattice-oracle":
        # the acceptance gate's criterion-2 cells (trace seeds 1-5), then one
        # cell of each kind on a trace of the workload seed. The cost of a
        # 3-unit cell varies up to fivefold with its trace; with only seeded
        # cells, the time of a round of 28 moved by 15-22 % (first to third
        # quartile over the median) from seed to seed.
        kinds = [(m, chained, s) for m, chained in CELL_KINDS for s in size["gate_seeds"]]
        kinds += [(*CELL_KINDS[k % len(CELL_KINDS)], _sub_seed(seed, k)) for k in range(size["cells"])]
        cells = []
        for m, chained, trace_seed in kinds:
            inst = _trace(trace_seed, m)
            if chained:
                chain = DependencyGraph(m, tuple((i, i - 1) for i in range(2, m + 1)))
                inst = Instance(units=inst.units, budget=inst.budget, graph=chain)
            cells.append(inst)
        return {"cells": cells, "sizes": {"cells": len(cells), "units": sum(c.num_units for c in cells)}}
    raise ValueError(f"unknown workload {name!r}")


# -- rounds -------------------------------------------------------------------


def _online_round(rnd: Round, inp: dict, model, eval_model, timed: bool, params, policies, cycle_len):
    inst = inp["inst"]
    for policy in policies:
        kwargs = {"cycle_len": cycle_len, "expose_cycle_impacts": inst.graph is not None}
        # the interval between two requests is the service time of the first;
        # the last decision is followed by per-cycle bookkeeping, not a request
        stream = TimedStream(inst, rnd=rnd, kind=policy, **kwargs) if timed else CausalStream(inst, **kwargs)
        res, _ = _attempt(rnd, f"run_online({policy})", online.run_online, stream, model, policy, params)
        rnd.calibrate()
        rnd.units += inst.num_units
        if res is not None:
            rnd.schedule(inst, res.decisions, eval_model, offline_rules=False)


def _solve(rnd: Round, what: str, fn, inst, model, eval_model, **kwargs) -> tuple[object, float]:
    rnd.units += inst.num_units
    rep, elapsed = _attempt(rnd, what, fn, inst, model, **kwargs)
    if rep is not None:
        rnd.report(what, inst, rep, eval_model)
    return rep, elapsed


def _offline_round(rnd: Round, inp: dict, model, eval_model):
    # one request schedules a trace twice, as independent units and with its
    # DAG, so that request times are not a mix of two different solvers
    for indep, dag in inp["pairs"]:
        rnd.calibrate()
        _, t_indep = _solve(rnd, "solve_independent", offline.solve_independent, indep, model, eval_model,
                            max_outer=OFFLINE_OUTER)
        _, t_dag = _solve(rnd, "solve_interdependent", offline.solve_interdependent, dag, model, eval_model,
                          max_outer=OFFLINE_OUTER, max_inner=OFFLINE_MAX_INNER)
        rnd.add_request("trace", t_indep + t_dag)
    rnd.calibrate()


def _lattice_round(rnd: Round, inp: dict, model, eval_model):
    # one request certifies one cell: a lattice solve and the oracle on it
    for inst in inp["cells"]:
        fn = offline.solve_independent if inst.graph is None else offline.solve_interdependent
        rnd.calibrate()
        rep, t_solve = _solve(rnd, "lattice solve", fn, inst, model, eval_model,
                              max_outer=LATTICE_MAX_OUTER, grid=LATTICE)
        orc, t_oracle = _attempt(rnd, "brute_force", oracle.brute_force, inst, model,
                                 time_step=LATTICE.time_step, action_points=LATTICE.action_points)
        rnd.add_request("cell", t_solve + t_oracle)
        if orc is None:
            continue
        o_val = rnd.schedule(inst, orc.decisions, eval_model, offline_rules=True, score=False)
        if not check.close(o_val, orc.value):
            rnd.mismatched += 1
            print(f"brute_force: reported {orc.value!r}, evaluated {o_val!r}", file=sys.stderr)
        if rep is None:
            continue
        excess = (rep.primal_value - orc.value) / max(abs(orc.value), 1e-12)
        rnd.oracle_excess.append(excess)
        if excess < -check.REL_TOL:
            # the oracle is the exact lattice optimum: beating it means one is wrong
            rnd.mismatched += 1
            print(f"lattice solve beats the oracle by {-excess!r}", file=sys.stderr)
    rnd.calibrate()


def run_round(name: str, inp: dict, model, eval_model, timed: bool, params) -> Round:
    """One round; ``timed`` streams time each request of the online policies."""
    rnd = Round()
    t0 = perf_counter()
    if name == "online-dag":
        _online_round(rnd, inp, model, eval_model, timed, params, ("proposed", "myopic"), 10)
    elif name == "mdu-dag":
        _online_round(rnd, inp, model, eval_model, timed, params, ("mdu",), 5)
    elif name == "offline-dual":
        _offline_round(rnd, inp, model, eval_model)
    elif name == "lattice-oracle":
        _lattice_round(rnd, inp, model, eval_model)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rnd.wall_s = perf_counter() - t0
    return rnd
