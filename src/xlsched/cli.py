"""Command-line front end.

Subcommands: gen-trace, solve, online, oracle, experiment. Shared flags:
``--config`` (INI path, defaults apply when omitted), ``--seed`` (override),
``--out`` (output directory). Exit code 0 on success, 2 with a diagnostic on
stderr for any expected failure (bad config, bad instance, refused oracle).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .config import ConfigError, config_hash, load_config
from .core import load_instance, save_instance, validate_instance, write_text_atomic
from .experiments import (
    EXPERIMENTS,
    build_model,
    run_experiment,
    run_online_sweep,
    solve_offline,
)
from .offline import average_energy, report_to_csv
from .oracle import brute_force
from .tracegen import generate_trace

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xlsched",
        description="Cross-layer schedule solvers, online learner and experiment harness.",
    )
    ap.add_argument("--config", type=Path, default=None, help="INI config path")
    ap.add_argument("--seed", type=int, default=None, help="seed override")
    ap.add_argument("--out", type=Path, default=None, help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-trace", help="draw a trace and write the instance file")

    solve = sub.add_parser("solve", help="run an offline solver on an instance file")
    solve.add_argument("instance", type=Path)
    solve.add_argument(
        "--mode",
        choices=("independent", "dag"),
        default="independent",
        help="which solver to run",
    )

    sub.add_parser("online", help="run the online policy sweep from the config")

    oracle = sub.add_parser("oracle", help="exhaustive grid search (small instances)")
    oracle.add_argument("instance", type=Path)
    oracle.add_argument("--time-step", type=float, default=0.01)
    oracle.add_argument("--action-points", type=int, default=21)

    exp = sub.add_parser("experiment", help="run a named protocol")
    exp.add_argument("name", choices=EXPERIMENTS)
    return ap


def _cmd_gen_trace(cfg, out: Path, seed: Optional[int]) -> int:
    params = cfg.trace if seed is None else replace(cfg.trace, seed=seed)
    inst = generate_trace(params)
    path = out / f"trace_seed{params.seed}.txt"
    out.mkdir(parents=True, exist_ok=True)
    save_instance(inst, path)
    span = inst.units[-1].deadline - inst.units[0].ready if inst.units else 0.0
    print(
        f"wrote {path}: {inst.num_units} units, budget {inst.budget:g}, "
        f"span {span:.3f} s"
    )
    return 0


def _load_valid_instance(path: Path):
    """The instance at ``path``, or None after printing why it is invalid."""
    inst = load_instance(path)
    check = validate_instance(inst)
    if not check.ok:
        for issue in check.issues:
            print(f"invalid instance: {issue}", file=sys.stderr)
        return None
    return inst


def _cmd_solve(cfg, out: Path, path: Path, mode: str) -> int:
    inst = _load_valid_instance(path)
    if inst is None:
        return 2
    if mode == "dag" and inst.graph is None:
        print("mode 'dag' needs an instance with a dependency section", file=sys.stderr)
        return 2
    model = build_model(cfg)
    report = solve_offline(inst, model, cfg.solver, dag=mode == "dag")
    out.mkdir(parents=True, exist_ok=True)
    tag = config_hash(cfg)
    report_to_csv(report, out / f"solve_{mode}.csv", note=f"config={tag}")
    dec_lines = ["# index,start,end,payload"]
    for i, d in enumerate(report.decisions, start=1):
        dec_lines.append(f"{i},{d.start!r},{d.end!r},{d.payload!r}")
    write_text_atomic(out / f"decisions_{mode}.csv", "\n".join(dec_lines) + "\n")
    print(
        f"{mode}: {report.outer_iterations} outer iterations, "
        f"gap {report.gap:.3e}, primal {report.primal_value!r}, "
        f"avg energy {average_energy(inst, report.decisions, model)!r}"
    )
    return 0


def _cmd_online(cfg, out: Path) -> int:
    paths = run_online_sweep(cfg, "online", cfg.plan.dag, out)
    print(f"wrote {len(paths)} files under {out}")
    return 0


def _cmd_oracle(cfg, path: Path, time_step: float, action_points: int) -> int:
    inst = _load_valid_instance(path)
    if inst is None:
        return 2
    model = build_model(cfg)
    result = brute_force(
        inst, model, time_step=time_step, action_points=action_points
    )
    print(f"optimal average distortion: {result.value!r}")
    for i, d in enumerate(result.decisions, start=1):
        print(f"  unit {i}: start={d.start!r} end={d.end!r} payload={d.payload!r}")
    if len(result.ties) > 1:
        print(f"  ({len(result.ties)} grid assignments tie within tolerance)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out if args.out is not None else Path(cfg.plan.out_dir)
        if args.command == "gen-trace":
            return _cmd_gen_trace(cfg, out, args.seed)
        if args.command == "solve":
            return _cmd_solve(cfg, out, args.instance, args.mode)
        if args.command == "online":
            if args.seed is not None:
                cfg = replace(cfg, plan=replace(cfg.plan, seeds=(args.seed,)))
            return _cmd_online(cfg, out)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args.instance, args.time_step, args.action_points)
        paths = run_experiment(args.name, cfg, out_dir=out, seed=args.seed)
        print(f"{args.name}: wrote {len(paths)} files under {out}")
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
