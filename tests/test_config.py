"""Configuration loading, validation, canonical rendering and hashing."""

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
