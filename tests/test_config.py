"""Configuration loading, validation, canonical rendering and hashing."""

import dataclasses
import hashlib
import inspect
import math
import re
from pathlib import Path

import pytest

from xlsched import (
    DAG_KINDS,
    ConfigError,
    OnlineParams,
    config_hash,
    config_to_text,
    default_config,
    generate_dag,
    load_config,
    solve_independent,
    solve_interdependent,
)
from xlsched.config import _FIELDS


# the learner rules that OnlineParams checks, as (field, INI key, a refused
# value): the config and run_online both refuse these values through it
LEARNER_REFUSALS = [
    (field, key, value)
    for field, key, values in (
        ("kappa0", "kappa0", (-1.0, math.nan, math.inf, -math.inf)),
        ("price_init", "lambda_init", (-1.0, math.nan, math.inf, -math.inf)),
        ("gamma0", "gamma0", (0.0, -0.5, 1.5, math.nan, math.inf, -math.inf)),
        ("gamma_power", "gamma_power", (-0.5, math.nan, math.inf, -math.inf)),
    )
    for value in values
]


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDefaults:
    def test_no_file_means_defaults(self):
        assert load_config(None) == default_config()

    def test_empty_file_means_defaults(self, tmp_path):
        assert load_config(_write(tmp_path, "")) == default_config()

    def test_default_values(self):
        cfg = default_config()
        assert cfg.trace.num_dus == 10_000
        assert cfg.trace.mean_interarrival == 0.05  # stored in seconds
        assert cfg.trace.lifetime == 0.05
        assert cfg.trace.decay == 0.5
        assert cfg.trace.budget == 10.0
        assert cfg.model.energy_cap == 50.0
        assert cfg.solver.alpha0 == 0.5
        assert cfg.solver.beta0 == 1000.0
        assert cfg.learner.feature_order == 3
        assert cfg.learner.impact_mean == 100.0  # midpoint of the impact range
        assert cfg.plan.w_sweep == (5.0, 10.0, 15.0, 20.0)
        assert cfg.plan.policies == ("proposed", "myopic", "mdu")

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(_write(tmp_path, """
[trace]
num_dus = 12
interarrival_ms = 20
[experiment]
policies = myopic
seeds = 7
"""))
        assert cfg.trace.num_dus == 12
        assert cfg.trace.mean_interarrival == pytest.approx(0.02)
        assert cfg.plan.policies == ("myopic",)
        assert cfg.plan.seeds == (7,)
        # untouched sections keep their defaults
        assert cfg.solver == default_config().solver

    def test_energy_cap_zero_disables_the_cap(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[model]\nenergy_cap = 0\n"))
        assert cfg.model.energy_cap is None


class TestRejection:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(_write(tmp_path, "[radio]\nn0 = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, "[trace]\nnum_units = 5\n"))

    def test_unparsable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(_write(tmp_path, "num_dus = 5\n"))  # key before section

    @pytest.mark.parametrize("text,fragment", [
        ("[trace]\nnum_dus = many\n", "not an integer"),
        ("[trace]\nbudget = free\n", "not a number"),
        ("[trace]\nbudget = -1\n", "budget"),
        ("[trace]\ntheta = 0\n", "decay"),
        ("[model]\nn0 = -5\n", "model"),
        ("[solver]\nepsilon = -1\n", "epsilon"),
        ("[solver]\nalpha0 = -0.5\n", "alpha0"),
        ("[solver]\nalpha0 = nan\n", "alpha0"),
        ("[solver]\nalpha0 = inf\n", "alpha0"),
        ("[solver]\nbeta0 = nan\n", "beta0"),
        ("[solver]\nbeta0 = inf\n", "beta0"),
        ("[solver]\nepsilon = nan\n", "epsilon"),
        ("[solver]\ninner_epsilon = nan\n", "inner_epsilon"),
        ("[solver]\ninner_epsilon = -1e-6\n", "inner_epsilon"),
        ("[learner]\ndag_impact = oracle\n", "dag_impact"),
        # the online decision's grid sizes are fixed since nothing set them
        ("[learner]\ny_points = 200\n", "unknown key 'y_points'"),
        ("[learner]\nrefine_points = 60\n", "unknown key 'refine_points'"),
        # the mdu cycle solve has no iterations to set since it became a DP
        ("[learner]\nmdu_outer = 40\n", "unknown key 'mdu_outer'"),
        ("[learner]\nmdu_epsilon = 0.0001\n", "unknown key 'mdu_epsilon'"),
        # one value-update rule is left, so there is no rule to select
        ("[learner]\nupdate_mode = normalized\n", "unknown key 'update_mode'"),
        ("[learner]\nupdate_mode = tabular\n", "unknown key 'update_mode'"),
        ("[experiment]\npolicies = proposed,greedy\n", "unknown policy"),
        ("[experiment]\npolicies =\n", "non-empty"),
        ("[experiment]\nw_sweep = 5,ten\n", "not a number list"),
        ("[experiment]\ndag = tree\n", "dag"),
        ("[experiment]\nedge_prob = 1.2\n", "edge_prob"),
        ("[experiment]\ncycles = 0\n", "cycles"),
        ("[experiment]\nsteady_start = 0\n", "steady_start"),
        # accepted once, and each broke a run
        ("[model]\nenergy_cap = -5\n", "energy cap"),
        ("[model]\nenergy_cap = nan\n", "energy cap"),
        ("[trace]\nbudget = nan\n", "budget"),
        ("[trace]\nbudget = inf\n", "budget"),
        ("[experiment]\nw_sweep = 5,0\n", "w_sweep"),
        ("[experiment]\nw_sweep = -5\n", "w_sweep"),
        ("[experiment]\nw_sweep = 5,inf\n", "w_sweep"),
        ("[experiment]\nw_sweep = nan\n", "w_sweep"),
        # accepted once, and refused later by generate_trace
        ("[trace]\nseed = -1\n", "seed"),
        ("[experiment]\nseeds = -3\n", "seeds"),
        ("[trace]\nchannel = bogus\n", "channel"),
        # refused, but without naming the spec
        ("[trace]\nchannel = uniform:a,b\n", "channel spec 'uniform:a,b': 'a' is not a number"),
        ("[trace]\nchannel = fixed:x\n", "channel spec 'fixed:x': 'x' is not a number"),
    ])
    def test_bad_values(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("key,value", [(key, value) for _, key, value in LEARNER_REFUSALS])
    def test_bad_learner_values(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, f"[learner]\n{key} = {value}\n"))

    @pytest.mark.parametrize("key,text", [
        ("interarrival_ms", "-1"), ("interarrival_ms", "0"), ("interarrival_ms", "inf"),
        ("lifetime_ms", "-1"), ("lifetime_ms", "-2.5e3"), ("lifetime_ms", "nan"),
    ])
    def test_a_refused_millisecond_value_reads_as_written(self, tmp_path, key, text):
        # the trace holds seconds, and the error once quoted them: -1 read -0.001
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, f"[trace]\n{key} = {text}\n"))
        assert str(err.value).startswith(f"[trace] {key}: ")
        assert str(err.value).endswith(f"must be positive and finite, got {text} ms")

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestRulesOfTheDataclasses:
    """Each section's values are those that its dataclass takes."""

    @pytest.mark.parametrize("section,key,name,kind", [
        (section, key, name, kind) for section in ("solver", "learner") for key, _, name, kind in _FIELDS[section]
    ], ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("text", ["0", "-0.0", "-1", "nan", "inf", "-inf"])
    def test_the_config_refuses_what_the_api_refuses(self, tmp_path, section, key, name, kind, text):
        # the API is passed what the key parses to, or the float it reads as
        # where the key's kind refuses the text (an integer key and "nan")
        try:
            value = kind.parse(text)
        except ValueError:
            value = float(text)
        path = _write(tmp_path, f"[{section}]\n{key} = {text}\n")
        try:
            dataclasses.replace(getattr(default_config(), section), **{name: value})
        except ValueError:
            with pytest.raises(ConfigError, match=rf"\b{key}\b"):
                load_config(path)
        else:
            assert getattr(getattr(load_config(path), section), name) == value

    @pytest.mark.parametrize("section,change,field", [
        ("learner", {"gamma0": 2.0}, "gamma0"),
        ("learner", {"feature_order": True}, "feature order"),
        ("solver", {"max_outer": 2.5}, "max_outer"),
        ("solver", {"epsilon": -1.0}, "epsilon"),
        ("plan", {"seeds": (-1,)}, "seeds"),
        ("plan", {"cycles": 2.5}, "cycles"),
        ("plan", {"cycles": True}, "cycles"),
        ("plan", {"steady_start": 0}, "steady_start"),
    ])
    def test_replace_checks_again(self, section, change, field):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(getattr(default_config(), section), **change)

    def test_zero_epsilon_loads(self, tmp_path):
        # the solvers take it, and the config once refused it
        assert load_config(_write(tmp_path, "[solver]\nepsilon = 0\n")).solver.epsilon == 0.0

    @pytest.mark.parametrize("dag,cycle_len", [("ibpbp", 10), ("gop8", 5), ("ibpbp", 8)])
    def test_a_pattern_dag_needs_its_cycle_len(self, tmp_path, dag, cycle_len):
        # ibpbp with cycle_len 10 once loaded, and fig8 failed on it
        with pytest.raises(ConfigError, match="needs cycle_len"):
            load_config(_write(tmp_path, f"[experiment]\ndag = {dag}\ncycle_len = {cycle_len}\n"))

    @pytest.mark.parametrize("dag", ["none", *DAG_KINDS, "tree"])
    @pytest.mark.parametrize("cycle_len", [0, 1, 5, 8, 2.5])
    @pytest.mark.parametrize("edge_prob", [0.0, 0.5, 1.5, math.nan])
    def test_the_plan_takes_what_generate_dag_takes(self, dag, cycle_len, edge_prob):
        # the experiments build a random graph when dag is none
        kind = "random" if dag == "none" else dag
        try:
            generate_dag(kind, 20, cycle_len, edge_prob=edge_prob)
        except ValueError:
            with pytest.raises(ValueError):
                dataclasses.replace(default_config().plan, dag=dag, cycle_len=cycle_len, edge_prob=edge_prob)
        else:
            dataclasses.replace(default_config().plan, dag=dag, cycle_len=cycle_len, edge_prob=edge_prob)


def test_sections_match_the_parameters_they_set():
    # a knob removed on one side only fails here, not in a user's config
    def names(section):
        return {name for _, _, name, _ in _FIELDS[section]}

    def keywords(fn):
        return {p.name for p in inspect.signature(fn).parameters.values() if p.kind is p.KEYWORD_ONLY}

    assert names("learner") == {f.name for f in dataclasses.fields(OnlineParams)} - {"impact_mean"}
    assert names("solver") <= keywords(solve_interdependent)
    assert names("solver") - {"max_inner", "inner_epsilon"} <= keywords(solve_independent)


class TestCanonicalText:
    def test_round_trip_preserves_the_hash(self, tmp_path):
        cfg = default_config()
        path = _write(tmp_path, config_to_text(cfg))
        again = load_config(path)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_round_trip_of_modified_config(self, tmp_path):
        first = load_config(_write(tmp_path, """
[trace]
budget = 17.5
channel = fixed:1.25
[model]
energy_cap = 0
[experiment]
dag = gop8
cycle_len = 8
"""))
        second = load_config(_write(tmp_path, config_to_text(first), name="b.ini"))
        assert second == first

    def test_hash_is_stable_and_value_sensitive(self, tmp_path):
        base = config_hash(default_config())
        assert base == config_hash(default_config())
        assert len(base) == 12
        int(base, 16)  # hex digest prefix
        bumped = load_config(_write(tmp_path, "[trace]\nseed = 1\n"))
        assert config_hash(bumped) != base

    def test_text_lists_every_default_key(self):
        text = config_to_text(default_config())
        for key in ("seed", "num_dus", "interarrival_ms", "theta", "n0",
                    "energy_cap", "epsilon", "alpha0", "beta0", "gamma0",
                    "dag_impact", "policies", "w_sweep", "out_dir"):
            assert f"\n{key} = " in text or text.startswith(f"{key} = ")


# every key set to a value other than its default
_EVERY_KEY_CHANGED = """
[trace]
seed = 3
num_dus = 250
impact_low = 20
impact_high = 180.5
size = 12
interarrival_ms = 40
lifetime_ms = 70
theta = 0.25
channel = fixed:1.25
budget = 17.5
[model]
n0 = 150
bandwidth_hz = 100000
bit_unit = 500
energy_cap = 0
[solver]
epsilon = 0.002
max_outer = 300
max_inner = 20
inner_epsilon = 1e-07
alpha0 = 0.25
beta0 = 500
[learner]
features = 2
gamma0 = 0.75
gamma_power = 0.7
kappa0 = 2
lambda_init = 0.5
dag_impact = mean
[experiment]
policies = mdu,proposed
w_sweep = 7.5, 12
seeds = 4,9
cycles = 40
cycle_len = 5
dag = ibpbp
edge_prob = 0.25
steady_start = 11
out_dir = results/run1
"""


class TestGoldenText:
    """The canonical text, and so every CSV's ``# config=`` tag, is pinned."""

    def test_default_config(self):
        text = config_to_text(default_config())
        assert config_hash(default_config()) == "497ac631eabc"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "497ac631eabc067f7f8b75d2b53a66b3b313a0f470cc84ad0e4e342e3edb0738"
        )

    def test_every_key_changed(self, tmp_path):
        cfg = load_config(_write(tmp_path, _EVERY_KEY_CHANGED))
        assert config_hash(cfg) == "b86ec05906cf"
        assert config_to_text(cfg) == (
            "[trace]\nseed = 3\nnum_dus = 250\nimpact_low = 20.0\nimpact_high = 180.5\n"
            "size = 12.0\ninterarrival_ms = 40.0\nlifetime_ms = 70.0\ntheta = 0.25\n"
            "channel = fixed:1.25\nbudget = 17.5\n\n"
            "[model]\nn0 = 150.0\nbandwidth_hz = 100000.0\nbit_unit = 500.0\n"
            "energy_cap = 0.0\n\n"
            "[solver]\nepsilon = 0.002\nmax_outer = 300\nmax_inner = 20\n"
            "inner_epsilon = 1e-07\nalpha0 = 0.25\nbeta0 = 500.0\n\n"
            "[learner]\nfeatures = 2\ngamma0 = 0.75\ngamma_power = 0.7\nkappa0 = 2.0\n"
            "lambda_init = 0.5\ndag_impact = mean\n\n"
            "[experiment]\npolicies = mdu,proposed\nw_sweep = 7.5,12.0\nseeds = 4,9\n"
            "cycles = 40\ncycle_len = 5\ndag = ibpbp\nedge_prob = 0.25\n"
            "steady_start = 11\nout_dir = results/run1\n\n"
        )
        changed = config_to_text(cfg).splitlines()
        for line in config_to_text(default_config()).splitlines():
            assert line.startswith("[") or not line or line not in changed

    def test_readme_block_loads_to_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert load_config(_write(tmp_path, block)) == default_config()
