"""Experiment configuration: INI files with defaults, fail-fast on unknown keys.

Every key has a default, so an empty (or missing) file is a valid
configuration. Unknown sections or keys raise immediately; silently ignored
typos in sweep definitions are much worse than a hard error. The canonical
text rendering feeds a short hash that output CSVs embed, which is what makes
"same config, byte-identical outputs" checkable.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .models import ShannonEnergyParams
from .online import POLICIES, OnlineParams
from .tracegen import DAG_KINDS, TraceParams

__all__ = [
    "ConfigError",
    "SolverParams",
    "ExperimentPlan",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "config_to_text",
    "config_hash",
]


class ConfigError(ValueError):
    """Bad configuration file: unknown key, unparsable or out-of-range value."""


# section -> key -> default (as the string a file would contain)
_DEFAULTS: dict[str, dict[str, str]] = {
    "trace": {
        "seed": "0",
        "num_dus": "10000",
        "impact_low": "50",
        "impact_high": "150",
        "size": "10",
        "interarrival_ms": "50",
        "lifetime_ms": "50",
        "theta": "0.5",
        "channel": "uniform:0.5,1.5",
        "budget": "10",
    },
    "model": {
        "n0": "200",
        "bandwidth_hz": "200000",
        "bit_unit": "1000",
        # per-transmission bound; equilibrium spends stay an order of
        # magnitude below it, but it flattens the zero-price spend cliff that
        # would otherwise poison the online running-average price loop
        "energy_cap": "50",
    },
    "solver": {
        "epsilon": "0.001",
        "max_outer": "2000",
        "max_inner": "50",
        "inner_epsilon": "1e-06",
        "alpha0": "0.5",
        "beta0": "1000.0",
    },
    "learner": {
        "features": "3",
        "gamma0": "0.5",
        "gamma_power": "0.6",
        "kappa0": "1.0",
        "update_mode": "normalized",
        "lambda_init": "1.0",
        "y_points": "200",
        "refine_points": "60",
        "dag_impact": "known",
        "mdu_outer": "40",
        "mdu_epsilon": "0.0001",
    },
    "experiment": {
        "policies": "proposed,myopic,mdu",
        "w_sweep": "5,10,15,20",
        "seeds": "1,2,3,4,5",
        "cycles": "100",
        "cycle_len": "10",
        "dag": "none",
        "edge_prob": "0.5",
        "steady_start": "31",
        "out_dir": "out",
    },
}


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the offline dual loops."""

    epsilon: float = 1e-3
    max_outer: int = 2000
    max_inner: int = 50
    inner_epsilon: float = 1e-6
    alpha0: float = 0.5
    beta0: float = 1000.0


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep and where to write."""

    policies: tuple[str, ...] = ("proposed", "myopic", "mdu")
    w_sweep: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    cycles: int = 100
    cycle_len: int = 10
    dag: str = "none"
    edge_prob: float = 0.5
    steady_start: int = 31
    out_dir: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    trace: TraceParams
    model: ShannonEnergyParams
    solver: SolverParams
    learner: OnlineParams
    plan: ExperimentPlan


def _merge(path: Optional[Union[str, Path]]) -> dict[str, dict[str, str]]:
    raw = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    if path is None:
        return raw
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in raw:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(raw)}"
            )
        for key, value in parser.items(section):
            if key not in raw[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(raw[section])}"
                )
            raw[section][key] = value.strip()
    return raw


def _as_int(raw, section, key) -> int:
    v = raw[section][key]
    try:
        return int(v)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {v!r}: not an integer") from exc


def _as_float(raw, section, key) -> float:
    v = raw[section][key]
    try:
        return float(v)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {v!r}: not a number") from exc


def _as_floats(raw, section, key) -> tuple[float, ...]:
    v = raw[section][key]
    try:
        return tuple(float(p) for p in v.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {v!r}: not a number list") from exc


def _as_ints(raw, section, key) -> tuple[int, ...]:
    v = raw[section][key]
    try:
        return tuple(int(p) for p in v.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {v!r}: not an integer list") from exc


def _build(raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    try:
        trace = TraceParams(
            seed=_as_int(raw, "trace", "seed"),
            num_dus=_as_int(raw, "trace", "num_dus"),
            impact_low=_as_float(raw, "trace", "impact_low"),
            impact_high=_as_float(raw, "trace", "impact_high"),
            size=_as_float(raw, "trace", "size"),
            mean_interarrival=_as_float(raw, "trace", "interarrival_ms") / 1000.0,
            lifetime=_as_float(raw, "trace", "lifetime_ms") / 1000.0,
            decay=_as_float(raw, "trace", "theta"),
            channel=raw["trace"]["channel"],
            budget=_as_float(raw, "trace", "budget"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[trace]: {exc}") from exc

    cap = _as_float(raw, "model", "energy_cap")
    try:
        model = ShannonEnergyParams(
            noise=_as_float(raw, "model", "n0"),
            bandwidth_hz=_as_float(raw, "model", "bandwidth_hz"),
            bit_unit=_as_float(raw, "model", "bit_unit"),
            energy_cap=cap if cap > 0.0 else None,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[model]: {exc}") from exc

    solver = SolverParams(
        epsilon=_as_float(raw, "solver", "epsilon"),
        max_outer=_as_int(raw, "solver", "max_outer"),
        max_inner=_as_int(raw, "solver", "max_inner"),
        inner_epsilon=_as_float(raw, "solver", "inner_epsilon"),
        alpha0=_as_float(raw, "solver", "alpha0"),
        beta0=_as_float(raw, "solver", "beta0"),
    )
    # written as "not ... > 0" so that NaN fails too
    if not (solver.epsilon > 0 and solver.inner_epsilon >= 0) or min(solver.max_outer, solver.max_inner) < 1:
        raise ConfigError("[solver]: epsilon must be > 0, inner_epsilon >= 0 and iteration caps >= 1")
    if not (0 < solver.alpha0 < math.inf and 0 < solver.beta0 < math.inf):
        raise ConfigError("[solver]: step constants must be positive and finite")

    update_mode = raw["learner"]["update_mode"]
    if update_mode not in ("verbatim", "semi_gradient", "normalized"):
        raise ConfigError(
            f"[learner] update_mode = {update_mode!r}: "
            "expected 'verbatim', 'semi_gradient' or 'normalized'"
        )
    dag_impact = raw["learner"]["dag_impact"]
    if dag_impact not in ("known", "mean"):
        raise ConfigError(
            f"[learner] dag_impact = {dag_impact!r}: expected 'known' or 'mean'"
        )
    learner = OnlineParams(
        feature_order=_as_int(raw, "learner", "features"),
        gamma0=_as_float(raw, "learner", "gamma0"),
        gamma_power=_as_float(raw, "learner", "gamma_power"),
        kappa0=_as_float(raw, "learner", "kappa0"),
        update_mode=update_mode,
        price_init=_as_float(raw, "learner", "lambda_init"),
        end_grid=_as_int(raw, "learner", "y_points"),
        refine_points=_as_int(raw, "learner", "refine_points"),
        impact_estimate=dag_impact,
        impact_mean=0.5 * (trace.impact_low + trace.impact_high),
        mdu_outer=_as_int(raw, "learner", "mdu_outer"),
        mdu_epsilon=_as_float(raw, "learner", "mdu_epsilon"),
        beta0=solver.beta0,
    )
    if learner.feature_order < 1:
        raise ConfigError("[learner]: features must be >= 1")
    if not 0.0 < learner.gamma0 <= 1.0:
        raise ConfigError("[learner]: gamma0 must lie in (0, 1]")
    if learner.kappa0 < 0.0 or learner.price_init < 0.0:
        raise ConfigError("[learner]: kappa0 and lambda_init must be nonnegative")
    if learner.end_grid < 2:
        raise ConfigError("[learner]: y_points must be >= 2")
    if learner.mdu_outer < 1:
        raise ConfigError("[learner]: mdu_outer must be >= 1")

    policies = tuple(
        p.strip() for p in raw["experiment"]["policies"].split(",") if p.strip()
    )
    for p in policies:
        if p not in POLICIES:
            raise ConfigError(
                f"[experiment] policies: unknown policy {p!r}; "
                f"expected from {POLICIES}"
            )
    dag = raw["experiment"]["dag"]
    if dag != "none" and dag not in DAG_KINDS:
        raise ConfigError(
            f"[experiment] dag = {dag!r}: expected 'none' or one of {DAG_KINDS}"
        )
    plan = ExperimentPlan(
        policies=policies,
        w_sweep=_as_floats(raw, "experiment", "w_sweep"),
        seeds=_as_ints(raw, "experiment", "seeds"),
        cycles=_as_int(raw, "experiment", "cycles"),
        cycle_len=_as_int(raw, "experiment", "cycle_len"),
        dag=dag,
        edge_prob=_as_float(raw, "experiment", "edge_prob"),
        steady_start=_as_int(raw, "experiment", "steady_start"),
        out_dir=raw["experiment"]["out_dir"],
    )
    if not plan.policies or not plan.seeds or not plan.w_sweep:
        raise ConfigError("[experiment]: policies, seeds and w_sweep must be non-empty")
    if plan.cycles < 1 or plan.cycle_len < 1:
        raise ConfigError("[experiment]: cycles and cycle_len must be >= 1")
    if not 0.0 <= plan.edge_prob <= 1.0:
        raise ConfigError("[experiment]: edge_prob must lie in [0, 1]")
    if plan.steady_start < 1:
        raise ConfigError("[experiment]: steady_start must be >= 1")

    return ExperimentConfig(
        trace=trace, model=model, solver=solver, learner=learner, plan=plan
    )


def default_config() -> ExperimentConfig:
    return _build({s: dict(kv) for s, kv in _DEFAULTS.items()})


def load_config(path: Optional[Union[str, Path]] = None) -> ExperimentConfig:
    """Read an INI file (None: pure defaults) into a validated config."""
    return _build(_merge(path))


def _format_value(section: str, key: str, cfg: ExperimentConfig) -> str:
    t, m, s, l, p = cfg.trace, cfg.model, cfg.solver, cfg.learner, cfg.plan
    values = {
        ("trace", "seed"): t.seed,
        ("trace", "num_dus"): t.num_dus,
        ("trace", "impact_low"): t.impact_low,
        ("trace", "impact_high"): t.impact_high,
        ("trace", "size"): t.size,
        ("trace", "interarrival_ms"): t.mean_interarrival * 1000.0,
        ("trace", "lifetime_ms"): t.lifetime * 1000.0,
        ("trace", "theta"): t.decay,
        ("trace", "channel"): t.channel,
        ("trace", "budget"): t.budget,
        ("model", "n0"): m.noise,
        ("model", "bandwidth_hz"): m.bandwidth_hz,
        ("model", "bit_unit"): m.bit_unit,
        ("model", "energy_cap"): m.energy_cap if m.energy_cap is not None else 0.0,
        ("solver", "epsilon"): s.epsilon,
        ("solver", "max_outer"): s.max_outer,
        ("solver", "max_inner"): s.max_inner,
        ("solver", "inner_epsilon"): s.inner_epsilon,
        ("solver", "alpha0"): s.alpha0,
        ("solver", "beta0"): s.beta0,
        ("learner", "features"): l.feature_order,
        ("learner", "gamma0"): l.gamma0,
        ("learner", "gamma_power"): l.gamma_power,
        ("learner", "kappa0"): l.kappa0,
        ("learner", "update_mode"): l.update_mode,
        ("learner", "lambda_init"): l.price_init,
        ("learner", "y_points"): l.end_grid,
        ("learner", "refine_points"): l.refine_points,
        ("learner", "dag_impact"): l.impact_estimate,
        ("learner", "mdu_outer"): l.mdu_outer,
        ("learner", "mdu_epsilon"): l.mdu_epsilon,
        ("experiment", "policies"): ",".join(p.policies),
        ("experiment", "w_sweep"): ",".join(repr(w) for w in p.w_sweep),
        ("experiment", "seeds"): ",".join(str(x) for x in p.seeds),
        ("experiment", "cycles"): p.cycles,
        ("experiment", "cycle_len"): p.cycle_len,
        ("experiment", "dag"): p.dag,
        ("experiment", "edge_prob"): p.edge_prob,
        ("experiment", "steady_start"): p.steady_start,
        ("experiment", "out_dir"): p.out_dir,
    }
    v = values[(section, key)]
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering (fixed section and key order)."""
    buf = io.StringIO()
    for section, keys in _DEFAULTS.items():
        buf.write(f"[{section}]\n")
        for key in keys:
            buf.write(f"{key} = {_format_value(section, key, cfg)}\n")
        buf.write("\n")
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """12-hex-digit digest of the canonical rendering."""
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:12]
