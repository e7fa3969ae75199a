"""Command-line interface, driven in process through main(argv)."""

import dataclasses

import pytest

from xlsched import (
    DataUnit,
    DependencyGraph,
    Instance,
    TraceParams,
    generate_dag,
    generate_trace,
    load_instance,
    save_instance,
)
from xlsched.cli import main


def _config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _small_instance_file(tmp_path, n=4, budget=10.0, graph=None, name="inst.txt"):
    inst = generate_trace(TraceParams(seed=1, num_dus=n, budget=budget))
    if graph is not None:
        inst = Instance(units=inst.units, budget=inst.budget, graph=graph)
    path = tmp_path / name
    save_instance(inst, path)
    return str(path)


class TestGenTrace:
    def test_writes_a_loadable_instance(self, tmp_path, capsys):
        cfg = _config(tmp_path, "[trace]\nnum_dus = 50\nbudget = 7.5\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "gen-trace"])
        assert rc == 0
        msg = capsys.readouterr().out
        assert "wrote" in msg and "50 units" in msg and "budget 7.5" in msg
        inst = load_instance(tmp_path / "o" / "trace_seed0.txt")
        assert inst.num_units == 50
        assert inst.budget == 7.5

    def test_seed_override_names_the_file(self, tmp_path):
        cfg = _config(tmp_path, "[trace]\nnum_dus = 5\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "--seed", "3", "gen-trace"])
        assert rc == 0
        a = load_instance(tmp_path / "o" / "trace_seed3.txt")
        b = generate_trace(TraceParams(seed=3, num_dus=5))
        assert a == b

    def test_empty_trace_round_trips(self, tmp_path):
        cfg = _config(tmp_path, "[trace]\nnum_dus = 0\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "gen-trace"])
        assert rc == 0
        assert load_instance(tmp_path / "o" / "trace_seed0.txt").units == ()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _config(tmp_path, "[trace]\nnum_dus = 25\n")
        out = tmp_path / "o"
        main(["--config", cfg, "--out", str(out), "gen-trace"])
        first = (out / "trace_seed0.txt").read_bytes()
        main(["--config", cfg, "--out", str(out), "gen-trace"])
        assert (out / "trace_seed0.txt").read_bytes() == first


_FAST_SOLVER = "[solver]\nmax_outer = 200\n"


class TestSolve:
    def test_independent_outputs(self, tmp_path, capsys):
        inst = _small_instance_file(tmp_path, n=5)
        cfg = _config(tmp_path, _FAST_SOLVER)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "solve", inst])
        assert rc == 0
        assert "independent:" in capsys.readouterr().out

        lines = (out / "solve_independent.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "k,dual_value,primal_value,gap,price,handoff_norm,inner_iterations"
        assert len(lines) > 2

        dec = (out / "decisions_independent.csv").read_text().splitlines()
        assert dec[0] == "# index,start,end,payload"
        assert len(dec) == 1 + 5

    def test_dag_outputs(self, tmp_path):
        graph = generate_dag("random", 6, 3, seed=1, edge_prob=0.9)
        inst = _small_instance_file(tmp_path, n=6, graph=graph)
        cfg = _config(tmp_path, _FAST_SOLVER)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "solve", inst,
                   "--mode", "dag"])
        assert rc == 0
        assert (out / "solve_dag.csv").exists()
        dec = (out / "decisions_dag.csv").read_text().splitlines()
        assert len(dec) == 1 + 6

    def test_dag_mode_needs_a_graph(self, tmp_path, capsys):
        inst = _small_instance_file(tmp_path, n=4)
        rc = main(["--out", str(tmp_path / "o"), "solve", inst, "--mode", "dag"])
        assert rc == 2
        assert "dependency" in capsys.readouterr().err

    def test_missing_instance_file(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "o"), "solve",
                   str(tmp_path / "nowhere.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_instance_is_rejected(self, tmp_path, capsys):
        bad = Instance(
            units=(DataUnit(index=1, impact=10.0, size=5.0, ready=0.5,
                            deadline=0.1, decay=0.5, channel=1.0),),
            budget=10.0,
        )
        path = tmp_path / "bad.txt"
        save_instance(bad, path)
        rc = main(["--out", str(tmp_path / "o"), "solve", str(path)])
        assert rc == 2
        assert "invalid instance" in capsys.readouterr().err

    def test_non_finite_instance_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("budget 10.0\nunits 1\nunit 1 10.0 5.0 nan 0.1 0.5 1.0\n")
        rc = main(["--out", str(tmp_path / "o"), "solve", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid instance" in err and "finite" in err

    def test_bad_config(self, tmp_path, capsys):
        inst = _small_instance_file(tmp_path)
        cfg = _config(tmp_path, "[solver]\nspeed = fast\n")
        rc = main(["--config", cfg, "solve", inst])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestOracle:
    def test_prints_the_optimum(self, tmp_path, capsys):
        inst = _small_instance_file(tmp_path, n=2)
        rc = main(["--out", str(tmp_path / "o"), "oracle", inst,
                   "--time-step", "0.01", "--action-points", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal average distortion:" in out
        assert "unit 1:" in out and "unit 2:" in out

    def test_refuses_large_instances(self, tmp_path, capsys):
        inst = _small_instance_file(tmp_path, n=5)
        rc = main(["--out", str(tmp_path / "o"), "oracle", inst])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "refuses" in err

    def test_refuses_an_oversized_lattice_table(self, tmp_path, capsys, no_table_arrays):
        # 50 001 time points per 50 ms unit; no array may be built before the refusal
        inst = _small_instance_file(tmp_path, n=2)
        rc = main(["--out", str(tmp_path / "o"), "oracle", inst, "--time-step", "1e-6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unit 1:") and "option rows" in err and "limit of" in err

    def test_invalid_instance_is_rejected(self, tmp_path, capsys):
        inst = generate_trace(TraceParams(seed=1, num_dus=2))
        path = tmp_path / "bad.txt"
        save_instance(Instance(units=inst.units, budget=-1.0), path)
        rc = main(["--out", str(tmp_path / "o"), "oracle", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid instance" in err and "budget" in err


class TestInvalidInstanceMessages:
    """Each issue is printed once, naming its unit only when it belongs to one."""

    def _errors(self, tmp_path, capsys, command, inst):
        path = tmp_path / "bad.txt"
        save_instance(inst, path)
        assert main(["--out", str(tmp_path / "o"), command, str(path)]) == 2
        return capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_a_budget_issue_names_no_unit(self, tmp_path, capsys, command):
        inst = generate_trace(TraceParams(seed=1, num_dus=2))
        errors = self._errors(tmp_path, capsys, command, Instance(inst.units, -1.0))
        assert errors == ["invalid instance: budget must be positive and finite, got -1.0"]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_a_graph_issue_names_no_unit(self, tmp_path, capsys, command):
        inst = generate_trace(TraceParams(seed=1, num_dus=2))
        errors = self._errors(tmp_path, capsys, command,
                              Instance(inst.units, inst.budget, DependencyGraph(2, ((2, 5),))))
        assert errors == ["invalid instance: edge (2, 5) out of range"]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_a_unit_issue_names_its_unit(self, tmp_path, capsys, command):
        inst = generate_trace(TraceParams(seed=1, num_dus=2))
        late = dataclasses.replace(inst.units[1], deadline=inst.units[1].ready - 0.01)
        errors = self._errors(tmp_path, capsys, command, Instance((inst.units[0], late), inst.budget))
        assert errors == [f"invalid instance: deadline {late.deadline!r} precedes ready time {late.ready!r} (unit 2)"]


def _tiny_plan(policies="proposed,myopic", extra=""):
    return f"""
[trace]
num_dus = 6
[solver]
max_outer = 150
[experiment]
policies = {policies}
w_sweep = 5,10
seeds = 1,2
cycles = 2
cycle_len = 3
steady_start = 1
{extra}
"""


_TINY_PLAN = _tiny_plan()


class TestExperiments:
    def test_gap_trajectory_protocol(self, tmp_path, capsys):
        cfg = _config(tmp_path, _TINY_PLAN)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "experiment", "fig5"])
        assert rc == 0
        assert "fig5: wrote 1 files" in capsys.readouterr().out
        lines = (out / "fig5_gap.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "iteration,dual,primal,gap"
        assert len(lines) > 2

    def test_coupled_gap_trajectory_protocol(self, tmp_path):
        cfg = _config(tmp_path, _tiny_plan(extra="dag = random\nedge_prob = 0.9"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "experiment", "fig6"])
        assert rc == 0
        lines = (out / "fig6_gap.csv").read_text().splitlines()
        assert lines[1] == "iteration,dual,primal,gap,inner_iterations"

    def test_budget_sweep_protocol(self, tmp_path):
        cfg = _config(tmp_path, _TINY_PLAN)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "experiment", "fig7"])
        assert rc == 0
        cells = sorted(p.name for p in (out / "cells").iterdir())
        assert len(cells) == 2 * 2 * 2  # policies x budgets x seeds
        assert "fig7_proposed_W5_seed1.csv" in cells
        cell_lines = (out / "cells" / cells[0]).read_text().splitlines()
        assert cell_lines[1] == "cycle,policy,distortion_reduction,energy,price,value_norm,dropped"
        assert len(cell_lines) == 2 + 2  # note, header, one row per cycle

        summary = (out / "fig7_summary.csv").read_text().splitlines()
        assert summary[1] == "W,policy,mean_distortion_reduction"
        assert len(summary) == 2 + 4  # (W, policy) pairs

    def test_steady_start_past_the_last_cycle_fails_before_any_cell(self, tmp_path, capsys):
        cfg = _config(tmp_path, _TINY_PLAN.replace("steady_start = 1", "steady_start = 3"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "experiment", "fig7"])
        assert rc == 2
        assert "no cycles at or after 3" in capsys.readouterr().err
        assert not out.exists() or not any(out.rglob("*"))

    def test_per_cycle_curves_protocol(self, tmp_path):
        cfg = _config(tmp_path, _tiny_plan(policies="proposed,myopic,mdu",
                                   extra="dag = random\nedge_prob = 0.9"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "experiment", "fig9"])
        assert rc == 0
        lines = (out / "fig9_cycles.csv").read_text().splitlines()
        assert lines[1] == "cycle,policy,distortion_reduction,energy"
        assert len(lines) == 2 + 3 * 2  # three policies, two cycles each

    def test_myopic_cells_have_zero_value_norm(self, tmp_path):
        cfg = _config(tmp_path, _tiny_plan(policies="myopic"))
        out = tmp_path / "o"
        main(["--config", cfg, "--out", str(out), "experiment", "fig7"])
        for cell in (out / "cells").iterdir():
            for line in cell.read_text().splitlines()[2:]:
                assert line.split(",")[5] == "0.0"

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        cfg = _config(tmp_path, _TINY_PLAN)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out", str(a), "experiment", "fig7"])
        main(["--config", cfg, "--out", str(b), "experiment", "fig7"])
        rel = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
        assert rel == sorted(p.relative_to(b) for p in b.rglob("*.csv"))
        for r in rel:
            assert (a / r).read_bytes() == (b / r).read_bytes()

    def test_online_subcommand_with_seed_override(self, tmp_path, capsys):
        cfg = _config(tmp_path, _TINY_PLAN)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "--seed", "9", "online"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        cells = sorted(p.name for p in (out / "cells").iterdir())
        assert len(cells) == 2 * 2  # seeds collapsed to the override
        assert all("seed9" in name for name in cells)
        assert (out / "online_summary.csv").exists()

    def test_online_seed_override_obeys_the_plan_rules(self, tmp_path, capsys):
        cfg = _config(tmp_path, _TINY_PLAN)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "--seed", "-1", "online"])
        assert rc == 2
        assert "seeds must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_name(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])
