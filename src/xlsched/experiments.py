"""Named experiment protocols producing plot-ready CSV bundles.

* ``fig5``: dual/primal trajectory of the independent solver on a small
  instance (one unit block);
* ``fig6``: the same with an in-cycle random dependency graph, including
  inner-sweep counts;
* ``fig7``: online policy sweep over the budget grid, independent units;
* ``fig8``: the budget sweep with per-cycle dependency graphs;
* ``fig9``: per-cycle learning curves of all policies at the configured
  budget.

Every CSV carries a header row plus a comment line with the config hash and
seed, and is written atomically, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .config import ExperimentConfig, SolverParams, config_hash
from .core import Instance, SolveReport, write_text_atomic
from .models import ShannonExpModel, TransmissionModel
from .offline import solve_independent, solve_interdependent
from .online import CausalStream, RunResult, run_online
from .tracegen import generate_dag, generate_trace

__all__ = [
    "EXPERIMENTS",
    "build_instance",
    "build_model",
    "solve_offline",
    "run_online_cell",
    "steady_mean",
    "run_online_sweep",
    "run_experiment",
]

EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "fig9")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(
    path: Path, header: Sequence[str], rows: Sequence[Sequence], note: str
) -> Path:
    lines = [f"# {note}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


def build_model(cfg: ExperimentConfig) -> ShannonExpModel:
    return ShannonExpModel(params=cfg.model)


def solve_offline(inst: Instance, model: TransmissionModel, params: SolverParams, dag: bool) -> SolveReport:
    """``solve_interdependent`` (``dag``) or ``solve_independent``, with the
    config's solver knobs as keyword arguments."""
    kwargs = asdict(params)
    if dag:
        return solve_interdependent(inst, model, **kwargs)
    del kwargs["max_inner"], kwargs["inner_epsilon"]
    return solve_independent(inst, model, **kwargs)


def build_instance(
    cfg: ExperimentConfig,
    *,
    num_dus: int,
    seed: int,
    budget: float,
    dag_kind: str = "none",
) -> Instance:
    """Instance for one experiment cell: seeded trace plus optional graph."""
    params = replace(cfg.trace, seed=seed, num_dus=num_dus, budget=budget)
    inst = generate_trace(params)
    if dag_kind == "none":
        return inst
    graph = generate_dag(
        dag_kind,
        num_dus,
        cfg.plan.cycle_len,
        seed=seed,
        edge_prob=cfg.plan.edge_prob,
    )
    return Instance(units=inst.units, budget=inst.budget, graph=graph)


def run_online_cell(
    cfg: ExperimentConfig,
    policy: str,
    budget: float,
    seed: int,
    dag_kind: str = "none",
) -> RunResult:
    """One (policy, budget, seed) online run over the configured horizon."""
    plan = cfg.plan
    n = plan.cycles * plan.cycle_len
    inst = build_instance(cfg, num_dus=n, seed=seed, budget=budget, dag_kind=dag_kind)
    expose = inst.graph is not None and cfg.learner.impact_estimate == "known"
    stream = CausalStream(inst, cycle_len=plan.cycle_len, expose_cycle_impacts=expose)
    return run_online(stream, build_model(cfg), policy, cfg.learner)


def steady_mean(result: RunResult, steady_start: int) -> float:
    """Mean per-cycle distortion reduction over the post-transient cycles."""
    vals = [r.distortion_reduction for r in result.rows if r.cycle >= steady_start]
    if not vals:
        raise ValueError(f"no cycles at or after {steady_start}")
    return float(np.mean(vals))


_CYCLE_HEADER = (
    "cycle",
    "policy",
    "distortion_reduction",
    "energy",
    "price",
    "value_norm",
    "dropped",
)


def _cycle_csv_rows(result: RunResult):
    return [
        (r.cycle, r.policy, r.distortion_reduction, r.energy_avg, r.price, r.value_norm, r.dropped)
        for r in result.rows
    ]


def _trajectory_rows(report: SolveReport, with_inner: bool):
    rows = []
    for r in report.trajectory:
        row = [r.k, r.dual_value, r.primal_value, r.gap]
        if with_inner:
            row.append(r.inner_iterations)
        rows.append(row)
    return rows


def run_online_sweep(
    cfg: ExperimentConfig,
    name: str,
    dag_kind: str,
    out: Path,
) -> list[Path]:
    """Policy x budget x seed grid over the plan's seeds: per-cell cycle CSVs
    plus a summary.

    The summary holds the per-(budget, policy) mean over seeds of the
    steady-state distortion reduction. A ``steady_start`` past the last
    cycle raises ``ValueError`` before any cell runs.
    """
    plan = cfg.plan
    if plan.steady_start > plan.cycles:
        raise ValueError(f"no cycles at or after {plan.steady_start} (the plan runs {plan.cycles})")
    tag = config_hash(cfg)
    written = []
    summary = []
    for w in plan.w_sweep:
        for policy in plan.policies:
            per_seed = []
            for seed in plan.seeds:
                result = run_online_cell(cfg, policy, w, seed, dag_kind)
                cell = out / "cells" / f"{name}_{policy}_W{w:g}_seed{seed}.csv"
                written.append(
                    _write_csv(
                        cell,
                        _CYCLE_HEADER,
                        _cycle_csv_rows(result),
                        f"config={tag} seed={seed}",
                    )
                )
                per_seed.append(steady_mean(result, plan.steady_start))
            summary.append((w, policy, float(np.mean(per_seed))))
    written.append(
        _write_csv(
            out / f"{name}_summary.csv",
            ("W", "policy", "mean_distortion_reduction"),
            summary,
            f"config={tag} seeds={','.join(str(s) for s in plan.seeds)}",
        )
    )
    return written


def run_experiment(
    name: str,
    cfg: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    seed: Optional[int] = None,
) -> list[Path]:
    """Run one named protocol; returns the paths written."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    plan = cfg.plan
    out = Path(out_dir) if out_dir is not None else Path(plan.out_dir)
    tag = config_hash(cfg)
    model = build_model(cfg)
    base_seed = seed if seed is not None else plan.seeds[0]
    dag_kind = plan.dag if plan.dag != "none" else "random"

    if name in ("fig5", "fig6"):
        dag = name == "fig6"
        inst = build_instance(
            cfg,
            num_dus=plan.cycle_len,
            seed=base_seed,
            budget=cfg.trace.budget,
            dag_kind=dag_kind if dag else "none",
        )
        if dag and inst.graph is None:
            raise ValueError(
                "fig6 needs a dependency graph; raise edge_prob or pick another seed"
            )
        report = solve_offline(inst, model, cfg.solver, dag)
        return [
            _write_csv(
                out / f"{name}_gap.csv",
                ("iteration", "dual", "primal", "gap") + (("inner_iterations",) if dag else ()),
                _trajectory_rows(report, with_inner=dag),
                f"config={tag} seed={base_seed}",
            )
        ]

    if name == "fig7":
        return run_online_sweep(cfg, "fig7", "none", out)

    if name == "fig8":
        return run_online_sweep(cfg, "fig8", dag_kind, out)

    # fig9: per-cycle curves for every policy at the configured budget, on
    # dependency-coupled cycles like fig8
    rows = []
    for policy in plan.policies:
        result = run_online_cell(cfg, policy, cfg.trace.budget, base_seed, dag_kind)
        rows.extend(
            (r.cycle, r.policy, r.distortion_reduction, r.energy_avg) for r in result.rows
        )
    return [
        _write_csv(
            out / "fig9_cycles.csv",
            ("cycle", "policy", "distortion_reduction", "energy"),
            rows,
            f"config={tag} seed={base_seed}",
        )
    ]
