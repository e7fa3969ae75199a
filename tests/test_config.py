"""Configuration loading, validation, canonical rendering and hashing."""

import hashlib
import re
from pathlib import Path

import pytest

from xlsched import (
    ConfigError,
    config_hash,
    config_to_text,
    default_config,
    load_config,
)


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
        assert cfg.learner.update_mode == "normalized"
        assert cfg.learner.feature_order == 3
        assert cfg.learner.impact_mean == 100.0  # midpoint of the impact range
        assert cfg.learner.beta0 == cfg.solver.beta0
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
        ("[solver]\nepsilon = 0\n", "epsilon"),
        ("[solver]\nalpha0 = -0.5\n", "step constants"),
        ("[solver]\nalpha0 = nan\n", "step constants"),
        ("[solver]\nalpha0 = inf\n", "step constants"),
        ("[solver]\nbeta0 = nan\n", "step constants"),
        ("[solver]\nbeta0 = inf\n", "step constants"),
        ("[solver]\nepsilon = nan\n", "epsilon"),
        ("[solver]\ninner_epsilon = nan\n", "inner_epsilon"),
        ("[solver]\ninner_epsilon = -1e-6\n", "inner_epsilon"),
        ("[learner]\ngamma0 = 1.5\n", "gamma0"),
        ("[learner]\ngamma0 = 0\n", "gamma0"),
        ("[learner]\nupdate_mode = tabular\n", "update_mode"),
        ("[learner]\ndag_impact = oracle\n", "dag_impact"),
        ("[learner]\ny_points = 1\n", "y_points"),
        ("[learner]\nmdu_outer = 0\n", "mdu_outer"),
        ("[experiment]\npolicies = proposed,greedy\n", "unknown policy"),
        ("[experiment]\npolicies =\n", "non-empty"),
        ("[experiment]\nw_sweep = 5,ten\n", "not a number list"),
        ("[experiment]\ndag = tree\n", "dag"),
        ("[experiment]\nedge_prob = 1.2\n", "edge_prob"),
        ("[experiment]\ncycles = 0\n", "cycles"),
        ("[experiment]\nsteady_start = 0\n", "steady_start"),
        # accepted once, and each broke a run
        ("[learner]\nkappa0 = nan\n", "kappa0"),
        ("[learner]\nlambda_init = nan\n", "lambda_init"),
        ("[learner]\ngamma_power = -0.5\n", "gamma_power"),
        ("[learner]\ngamma_power = nan\n", "gamma_power"),
        ("[learner]\nmdu_epsilon = nan\n", "mdu_epsilon"),
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

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


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
                    "update_mode", "policies", "w_sweep", "out_dir"):
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
update_mode = semi_gradient
lambda_init = 0.5
y_points = 100
refine_points = 30
dag_impact = mean
mdu_outer = 20
mdu_epsilon = 0.001
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
        assert config_hash(default_config()) == "038536acd99c"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "038536acd99c0675f6ad3f37f68da6bbf6dbd15d8b3bf1afd439dad441e42379"
        )

    def test_every_key_changed(self, tmp_path):
        cfg = load_config(_write(tmp_path, _EVERY_KEY_CHANGED))
        assert config_hash(cfg) == "9bf2e5cc874b"
        assert config_to_text(cfg) == (
            "[trace]\nseed = 3\nnum_dus = 250\nimpact_low = 20.0\nimpact_high = 180.5\n"
            "size = 12.0\ninterarrival_ms = 40.0\nlifetime_ms = 70.0\ntheta = 0.25\n"
            "channel = fixed:1.25\nbudget = 17.5\n\n"
            "[model]\nn0 = 150.0\nbandwidth_hz = 100000.0\nbit_unit = 500.0\n"
            "energy_cap = 0.0\n\n"
            "[solver]\nepsilon = 0.002\nmax_outer = 300\nmax_inner = 20\n"
            "inner_epsilon = 1e-07\nalpha0 = 0.25\nbeta0 = 500.0\n\n"
            "[learner]\nfeatures = 2\ngamma0 = 0.75\ngamma_power = 0.7\nkappa0 = 2.0\n"
            "update_mode = semi_gradient\nlambda_init = 0.5\ny_points = 100\n"
            "refine_points = 30\ndag_impact = mean\nmdu_outer = 20\nmdu_epsilon = 0.001\n\n"
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
