"""Span tracing for the traced run, installed from outside the package.

Every wrapped call opens a span (name, start, end, parent). Model calls and
golden-section evaluations run millions of times per workload, so spans are
folded into per-name and per-layer totals as they close instead of being
stored one by one: self time is the span's duration minus the time covered
by its direct children, which is exactly what a stored span tree would give.
Durations are kept only for the names whose percentiles are reported.

The wrappers replace module attributes (and ``DecisionGrid.options``) only
between ``install`` and ``uninstall``; ``src/xlsched`` itself is untouched.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from xlsched import offline, online, oracle, tracegen
from xlsched.models import ShannonExpModel

# (module, attribute, layer, group). Names are patched in every module that
# imported them, because the callers look them up in their own globals.
_WRAPPED = (
    (tracegen, "generate_trace", "tracegen", None),
    (tracegen, "generate_dag", "tracegen", None),
    (offline, "golden_section", "search", "golden"),
    (offline, "upper_optimization", "offline", "unit_solve"),
    (online, "upper_optimization", "offline", "unit_solve"),
    (offline, "_solve_unit_dag", "offline", "unit_solve"),
    (online, "_solve_unit_dag", "offline", "unit_solve"),
    (offline, "_dag_coeffs", "offline", "dag_coeffs"),
    (online, "_dag_coeffs", "offline", "dag_coeffs"),
    (offline, "recover_primal", "offline", "recover"),
    (online, "recover_primal", "offline", "recover"),
    (offline, "instance_distortion", "offline", "eval"),
    (offline, "average_energy", "offline", "eval"),
    (offline, "_lagrangian_value", "offline", "eval"),
    (offline, "solve_independent", "offline", "solve"),
    (offline, "solve_interdependent", "offline", "solve"),
    (offline, "_recover_primal_grid", "offline", "grid_recover"),
    (offline, "_polish_grid_pairs", "offline", "polish"),
    (online, "run_online", "online", "learner"),
    (online, "_run_mdu", "online", "learner"),
    (online, "solve_online_unit", "online", "decide"),
    (online, "solve_online_unit_dag", "online", "decide"),
    (online, "_cycle_rows", "online", "rows"),
    (online, "_solve_cycle_fixed_price", "online", "mdu_cycle"),
    (online, "handoff_update", "offline", "mdu_handoff"),
    (oracle, "brute_force", "oracle", None),
)
_SAMPLED_GROUPS = ("unit_solve", "decide")


class Tracer:
    """Open-span stack plus running totals per name, layer and group."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._group_depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)  # by name
        self.incl_s: dict[str, float] = defaultdict(float)  # by name; no name recurses
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.group_self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, layer: str, group, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        if group is not None:
            self._group_depth[group] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            own = dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            else:
                self.top_level_s += dt
            self.calls[name] += 1
            self.self_s[name] += own
            self.incl_s[name] += dt
            self.layer_self_s[layer] += own
            if group is not None:
                self.group_calls[group] += 1
                self.group_self_s[group] += own
                self._group_depth[group] -= 1
                if self._group_depth[group] == 0:
                    self.group_s[group] += dt
                if group in _SAMPLED_GROUPS:
                    self.samples[group].append(dt)

    def _wrap(self, name: str, layer: str, group, fn):
        call = self.call
        if group == "golden":
            counts = self.counts

            def traced_golden(f, *args, **kwargs):
                # the objective closures stay inside the search span: they are
                # the window search's own evaluation, replaced with it by a
                # vectorized search; model calls below them still get spans
                def traced_eval(x):
                    counts["golden_evals"] += 1
                    return f(x)

                return call(name, layer, group, fn, traced_eval, *args, **kwargs)

            return traced_golden

        def traced(*args, **kwargs):
            return call(name, layer, group, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, layer, group in _WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", layer, group, fn))
        options = offline.DecisionGrid.options
        self._saved.append((offline.DecisionGrid, "options", options))
        offline.DecisionGrid.options = self._wrap(
            "offline.DecisionGrid.options", "offline", "grid_options", options
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


@dataclass(frozen=True)
class CountingModel(ShannonExpModel):
    """The default model with every solver-facing method traced as ``models``."""

    tracer: Tracer = field(default=None, compare=False, repr=False)

    def loss(self, unit, start, end, payload):
        return self.tracer.call("models.loss", "models", "scalar", super().loss, unit, start, end, payload)

    def errprop(self, unit, start, end, payload):
        return self.tracer.call("models.errprop", "models", "scalar", super().errprop, unit, start, end, payload)

    def cost(self, unit, start, end, payload):
        return self.tracer.call("models.cost", "models", "scalar", super().cost, unit, start, end, payload)

    def best_payload(self, unit, tau, loss_weight, energy_weight):
        return self.tracer.call(
            "models.best_payload", "models", "payload", super().best_payload,
            unit, tau, loss_weight, energy_weight,
        )

    def best_payload_vec(self, unit, taus, loss_weight, energy_weight):
        self.tracer.counts["vec_points"] += len(taus)
        return self.tracer.call(
            "models.best_payload_vec", "models", "vec", super().best_payload_vec,
            unit, taus, loss_weight, energy_weight,
        )

    def loss_vec(self, unit, payloads):
        self.tracer.counts["vec_points"] += len(payloads)
        return self.tracer.call("models.loss_vec", "models", "vec", super().loss_vec, unit, payloads)

    def cost_vec(self, unit, taus, payloads):
        self.tracer.counts["vec_points"] += max(len(taus), len(payloads))
        return self.tracer.call("models.cost_vec", "models", "vec", super().cost_vec, unit, taus, payloads)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, reports: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``reports`` carries what the benchmark read from the program's results:
    summed ``outer_iterations`` and ``inner_iterations`` of its solves.
    Names ending in ``.s`` are a layer's self time; other ``*_s`` names are
    inclusive wall time of the outermost calls in their group.
    """
    g, gs, gc = tr.group_calls, tr.group_s, tr.group_self_s
    outer = reports.get("outer_iters", 0)
    cycles = g["mdu_cycle"]
    handoff = g["mdu_handoff"]
    return {
        "tracegen.s": tr.layer_self_s["tracegen"],
        "models.scalar_calls": g["scalar"],
        "models.payload_calls": g["payload"],
        "models.vec_points": tr.counts["vec_points"],
        "models.s": tr.layer_self_s["models"],
        "search.golden_calls": g["golden"],
        "search.golden_evals": tr.counts["golden_evals"],
        "search.evals_per_call": tr.counts["golden_evals"] / g["golden"] if g["golden"] else 0.0,
        "search.s": tr.layer_self_s["search"],
        "offline.unit_solves": g["unit_solve"],
        "offline.unit_solve_us_p50": 1e6 * _median(tr.samples["unit_solve"]),
        "offline.unit_solve_s": gs["unit_solve"],
        "offline.dag_coeffs_calls": g["dag_coeffs"],
        "offline.dag_coeffs_s": gs["dag_coeffs"],
        "offline.recover_calls": g["recover"],
        "offline.recover_s": gs["recover"],
        "offline.eval_s": gs["eval"],
        "offline.outer_iters": outer,
        "offline.inner_sweeps": reports.get("inner_sweeps", 0),
        "offline.inner_per_outer": reports.get("inner_sweeps", 0) / outer if outer else 0.0,
        "offline.self_s": gc["solve"],
        "offline.grid_options_calls": g["grid_options"],
        "offline.grid_options_s": gs["grid_options"],
        "offline.grid_recover_s": gs["grid_recover"],
        "offline.polish_s": gs["polish"],
        "offline.s": tr.layer_self_s["offline"],
        "online.decide_calls": g["decide"],
        "online.decide_us_p50": 1e6 * _median(tr.samples["decide"]),
        "online.decide_s": gs["decide"],
        "online.learner_s": gc["learner"],
        "online.rows_s": gs["rows"],
        "online.mdu_cycle_s": gs["mdu_cycle"],
        "online.mdu_handoff_steps": handoff,
        "online.mdu_steps_per_cycle": handoff / cycles if cycles else 0.0,
        "online.s": tr.layer_self_s["online"],
        "oracle.calls": tr.calls["oracle.brute_force"],
        "oracle.s": tr.layer_self_s["oracle"],
    }


def per_name_table(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, self seconds, inclusive seconds) per traced name, busiest first."""
    rows = [(n, c, tr.self_s[n], tr.incl_s[n]) for n, c in tr.calls.items() if c]
    return sorted(rows, key=lambda r: -r[2])
