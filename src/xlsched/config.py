"""Experiment configuration: INI files with defaults, fail-fast on unknown keys.

Every key has a default, so an empty (or missing) file is a valid
configuration. Unknown sections or keys raise immediately; silently ignored
typos in sweep definitions are much worse than a hard error. A section takes
the values that the dataclass it builds takes, by that dataclass's rules. The
canonical text rendering feeds a short hash that output CSVs embed, which is
what makes "same config, byte-identical outputs" checkable.

Each key is one row of ``_FIELDS``: its default text, the dataclass field it
sets and its kind. The kind parses the text, names what it expected when
parsing fails, and renders the field back into canonical text.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from .core import _require_count
from .models import ShannonEnergyParams
from .offline import _require_settings
from .online import POLICIES, OnlineParams
from .tracegen import TraceParams, _require_dag_args

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
    """Bad configuration file: unknown key, unparsable or refused value."""


class _Kind(NamedTuple):
    parse: Callable[[str], object]
    render: Callable[[object], str]
    expected: str  # what a value that fails to parse is not


def _split(text: str) -> list[str]:
    return [p for p in text.split(",") if p.strip()]


_INT = _Kind(int, str, "an integer")
_NUM = _Kind(float, repr, "a number")
_MS = _Kind(lambda v: float(v) / 1000.0, lambda v: repr(v * 1000.0), "a number")  # stored in seconds
_CAP = _Kind(lambda v: float(v) or None, lambda v: repr(v or 0.0), "a number")  # 0 means no cap
_TEXT = _Kind(str, str, "text")
_NUMS = _Kind(lambda v: tuple(float(p) for p in _split(v)), lambda v: ",".join(map(repr, v)), "a number list")
_INTS = _Kind(lambda v: tuple(int(p) for p in _split(v)), lambda v: ",".join(map(str, v)), "an integer list")
_NAMES = _Kind(lambda v: tuple(p.strip() for p in _split(v)), ",".join, "a name list")

# section -> (key, default as a file would write it, dataclass field, kind)
_FIELDS: dict[str, tuple[tuple[str, str, str, _Kind], ...]] = {
    "trace": (
        ("seed", "0", "seed", _INT),
        ("num_dus", "10000", "num_dus", _INT),
        ("impact_low", "50", "impact_low", _NUM),
        ("impact_high", "150", "impact_high", _NUM),
        ("size", "10", "size", _NUM),
        ("interarrival_ms", "50", "mean_interarrival", _MS),
        ("lifetime_ms", "50", "lifetime", _MS),
        ("theta", "0.5", "decay", _NUM),
        ("channel", "uniform:0.5,1.5", "channel", _TEXT),
        ("budget", "10", "budget", _NUM),
    ),
    "model": (
        ("n0", "200", "noise", _NUM),
        ("bandwidth_hz", "200000", "bandwidth_hz", _NUM),
        ("bit_unit", "1000", "bit_unit", _NUM),
        # per-transmission bound; equilibrium spends stay an order of
        # magnitude below it, but it flattens the zero-price spend cliff that
        # would otherwise poison the online running-average price loop
        ("energy_cap", "50", "energy_cap", _CAP),
    ),
    "solver": (
        ("epsilon", "0.001", "epsilon", _NUM),
        ("max_outer", "2000", "max_outer", _INT),
        ("max_inner", "50", "max_inner", _INT),
        ("inner_epsilon", "1e-06", "inner_epsilon", _NUM),
        ("alpha0", "0.5", "alpha0", _NUM),
        ("beta0", "1000.0", "beta0", _NUM),
    ),
    "learner": (
        ("features", "3", "feature_order", _INT),
        ("gamma0", "0.5", "gamma0", _NUM),
        ("gamma_power", "0.6", "gamma_power", _NUM),
        ("kappa0", "1.0", "kappa0", _NUM),
        ("lambda_init", "1.0", "price_init", _NUM),
        ("dag_impact", "known", "impact_estimate", _TEXT),
    ),
    "experiment": (
        ("policies", "proposed,myopic,mdu", "policies", _NAMES),
        ("w_sweep", "5,10,15,20", "w_sweep", _NUMS),
        ("seeds", "1,2,3,4,5", "seeds", _INTS),
        ("cycles", "100", "cycles", _INT),
        ("cycle_len", "10", "cycle_len", _INT),
        ("dag", "none", "dag", _TEXT),
        ("edge_prob", "0.5", "edge_prob", _NUM),
        ("steady_start", "31", "steady_start", _INT),
        ("out_dir", "out", "out_dir", _TEXT),
    ),
}
# section -> the ExperimentConfig attribute that holds it
_OWNER = {"trace": "trace", "model": "model", "solver": "solver", "learner": "learner", "experiment": "plan"}


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the offline dual loops (keyword arguments of both solvers)."""

    epsilon: float
    max_outer: int
    max_inner: int
    inner_epsilon: float
    alpha0: float
    beta0: float

    def __post_init__(self) -> None:
        _require_settings(self.max_outer, self.alpha0, self.beta0, self.epsilon, None, self.max_inner, self.inner_epsilon)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep and where to write."""

    policies: tuple[str, ...]
    w_sweep: tuple[float, ...]
    seeds: tuple[int, ...]
    cycles: int
    cycle_len: int
    dag: str
    edge_prob: float
    steady_start: int
    out_dir: str

    def __post_init__(self) -> None:
        if not self.policies or not self.seeds or not self.w_sweep:
            raise ValueError("policies, seeds and w_sweep must be non-empty")
        for p in self.policies:
            if p not in POLICIES:
                raise ValueError(f"unknown policy {p!r} in policies; expected one of {POLICIES}")
        for seed in self.seeds:
            _require_count("seeds", seed, 0)
        if not all(0.0 < w < math.inf for w in self.w_sweep):
            raise ValueError(f"w_sweep entries must be positive and finite, got {self.w_sweep}")
        _require_count("cycles", self.cycles, 1)
        _require_count("steady_start", self.steady_start, 1)
        # the graph settings are generate_dag's; the experiments build a random graph when dag is none
        _require_dag_args("random" if self.dag == "none" else self.dag, self.cycle_len, self.edge_prob)


@dataclass(frozen=True)
class ExperimentConfig:
    trace: TraceParams
    model: ShannonEnergyParams
    solver: SolverParams
    learner: OnlineParams
    plan: ExperimentPlan


def _merge(path: Optional[Union[str, Path]]) -> dict[str, dict[str, str]]:
    raw = {s: {key: default for key, default, _, _ in rows} for s, rows in _FIELDS.items()}
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


def _row_named(section: str, message: str) -> Optional[tuple[str, str, str, _Kind]]:
    """The row of the first field of ``section`` named in ``message`` as a
    whole word (``_`` may read as a space) under another INI key, else None."""
    for row in _FIELDS[section]:
        key, _, name, _ = row
        if key != name and re.search(rf"\b{name.replace('_', '[_ ]')}\b", message):
            return row
    return None


def _build(raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    fields: dict[str, dict[str, object]] = {}
    for section, rows in _FIELDS.items():
        fields[section] = {}
        for key, _, name, kind in rows:
            v = raw[section][key]
            try:
                fields[section][name] = kind.parse(v)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {v!r}: not {kind.expected}") from exc

    def build(section: str, cls: type, **extra: object):
        try:
            return cls(**fields[section], **extra)
        except ValueError as exc:
            message, row = str(exc), _row_named(section, str(exc))
            if row is None:
                raise ConfigError(f"[{section}]: {message}") from exc
            key, _, name, kind = row
            if kind is _MS:
                # the dataclass holds seconds: quote the file's milliseconds
                message = message.replace(f"got {fields[section][name]}", f"got {raw[section][key]} ms")
            raise ConfigError(f"[{section}] {key}: {message}") from exc

    trace = build("trace", TraceParams)
    return ExperimentConfig(
        trace=trace,
        model=build("model", ShannonEnergyParams),
        solver=build("solver", SolverParams),
        learner=build("learner", OnlineParams, impact_mean=0.5 * (trace.impact_low + trace.impact_high)),
        plan=build("experiment", ExperimentPlan),
    )


def default_config() -> ExperimentConfig:
    return _build(_merge(None))


def load_config(path: Optional[Union[str, Path]] = None) -> ExperimentConfig:
    """Read an INI file (None: pure defaults) into a config. A section's values
    obey the rules of the dataclass it builds, else ``ConfigError`` names the key."""
    return _build(_merge(path))


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical INI rendering (fixed section and key order)."""
    buf = io.StringIO()
    for section, rows in _FIELDS.items():
        values = getattr(cfg, _OWNER[section])
        buf.write(f"[{section}]\n")
        for key, _, name, kind in rows:
            buf.write(f"{key} = {kind.render(getattr(values, name))}\n")
        buf.write("\n")
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """12-hex-digit digest of the canonical rendering."""
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:12]
