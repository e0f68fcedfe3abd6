"""Configuration loading, validation, hashing, and the command line."""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

import rbdsdep
from rbdsdep.analysis import norm_report, skorokhod_check
from rbdsdep.cli import main, run_pipeline
from rbdsdep.config import PIPELINES, config_from_dict, load_config
from rbdsdep.errors import ConfigError
from rbdsdep.schemes import run_bracketing_sequence, run_inf_envelope_sequence
from rbdsdep.solver import (
    SUP_Y_SQ_WORK,
    TreeModel,
    TreeSolution,
    solution_csv_rows,
    solve_tree_exact,
)


def minimal() -> dict:
    return {
        "grid": {"T": 1.0, "N": 4},
        "problem": {"f": "0", "barrier": "-10", "terminal": "0"},
    }


def merged(**sections) -> dict:
    data = minimal()
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return data


class TestConfigDefaults:
    def test_minimal_resolves_documented_defaults(self):
        cfg = config_from_dict(minimal())
        assert cfg.pipeline == "solve"
        assert cfg.dim_d == 1
        assert cfg.marks.m == 0
        assert cfg.paths == 4096
        assert cfg.seed == 2024
        assert cfg.mode == "two-point"
        assert cfg.solver_kind == "tree"
        assert cfg.scheme.basis == "poly"
        assert cfg.scheme.degree == 2
        assert cfg.tree_model().max_steps == 6
        assert cfg.bracketing_count == 5
        assert cfg.out_dir == "out"
        assert cfg.formats == ["csv", "json"]
        assert cfg.problem.generator.growth_C == 1.0
        assert cfg.problem.generator.contraction_alpha == 0.5
        assert cfg.envelope is None
        assert cfg.ito is None

    def test_one_tree_per_config(self, tmp_path, monkeypatch):
        """A tree pipeline's config holds one tree, checked at load and
        built on first use, and its runs share the built lattice; a
        pipeline that builds no tree has none."""
        builds = []
        real = TreeModel.__dict__["_points"].func

        def counted(tree):
            builds.append(tree)
            return real(tree)

        points = functools.cached_property(counted)
        points.__set_name__(TreeModel, "_points")
        monkeypatch.setattr(TreeModel, "_points", points)
        cfg = config_from_dict(minimal())
        assert cfg.tree_model() is cfg.tree_model()
        assert builds == []
        for run in ("first", "second"):
            ok, _, _ = run_pipeline(cfg, out_dir=str(tmp_path / run))
            assert ok
        assert len(builds) == 1 and builds[0] is cfg.tree_model()
        lsmc = merged(scheme={"solver": "lsmc"})
        ito = merged(pipeline="ito_check", ito={"eta": "1", "expected_terminal_sq": 1.0})
        for data in (lsmc, ito):
            assert config_from_dict(data).tree_model() is None

    def test_pipeline_names(self):
        assert PIPELINES == (
            "solve",
            "inf_sequence",
            "bracketing",
            "sup_sequence",
            "compare",
            "ito_check",
        )


class TestConfigHash:
    def test_hash_is_stable_and_default_insensitive(self):
        base = config_from_dict(minimal()).config_hash
        assert len(base) == 64
        assert base == config_from_dict(minimal()).config_hash
        # spelling out a default does not change the canonical form
        explicit = config_from_dict(
            merged(drivers={"seed": 2024}, dims={"d": 1})
        ).config_hash
        assert explicit == base

    def test_hash_tracks_content(self):
        base = config_from_dict(minimal()).config_hash
        bumped = config_from_dict(merged(drivers={"seed": 7})).config_hash
        assert bumped != base


class TestConfigValidation:
    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="unknown key 'configuration.grids'"):
            config_from_dict(merged(grids={}))
        with pytest.raises(ConfigError, match="unknown key 'scheme.solvers'"):
            config_from_dict(merged(scheme={"solvers": "tree"}))
        with pytest.raises(ConfigError, match="unknown key 'problem.h'"):
            config_from_dict(merged(problem={"h": "0"}))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'grid.T'"):
            config_from_dict({"problem": minimal()["problem"]})
        data = minimal()
        del data["problem"]
        with pytest.raises(
            ConfigError, match="missing required key 'configuration.problem'"
        ):
            config_from_dict(data)
        with pytest.raises(ConfigError, match="missing required key 'problem.f'"):
            config_from_dict(merged(problem={"f": None}))

    def test_type_errors_are_specific(self):
        with pytest.raises(ConfigError, match="'grid.T' must be a number"):
            config_from_dict(merged(grid={"T": True}))
        with pytest.raises(ConfigError, match="'grid.N' must be an integer"):
            config_from_dict(merged(grid={"N": 2.5}))
        with pytest.raises(ConfigError, match="'problem.f' must be a string"):
            config_from_dict(merged(problem={"f": 0}))
        with pytest.raises(ConfigError, match="problem must be a mapping"):
            config_from_dict(merged(problem=3))

    def test_contraction_alpha_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_dict(merged(problem={"alpha": 1.0}))

    def test_two_point_intensity_budget(self):
        data = merged(marks={"values": [1.0], "intensities": [20.0]})
        with pytest.raises(ConfigError, match="total_intensity \\* dt < 1"):
            config_from_dict(data)

    def test_tree_depth_bound_only_when_a_tree_is_built(self):
        deep = merged(grid={"T": 1.0, "N": 8})
        with pytest.raises(ConfigError, match="tree depth N = 8 exceeds"):
            config_from_dict(deep)
        cfg = config_from_dict(merged(grid={"T": 1.0, "N": 8}, scheme={"solver": "lsmc"}))
        assert cfg.grid.N == 8

    def test_drivers_mode_choices(self):
        with pytest.raises(ConfigError, match="'drivers.mode' must be one of"):
            config_from_dict(merged(drivers={"mode": "uniform"}))
        cfg = config_from_dict(merged(drivers={"mode": "enumerate"}))
        assert cfg.mode == "enumerate"

    def test_compare_needs_problem2_and_shares_g(self):
        with pytest.raises(ConfigError, match="needs a 'problem2' section"):
            config_from_dict(merged(pipeline="compare"))
        with pytest.raises(
            ConfigError, match="'problem2' is only meaningful for the compare"
        ):
            config_from_dict(merged(problem2={"f": "1"}))
        with pytest.raises(
            ConfigError, match="'problem2.g' is not allowed: the comparison shares g"
        ):
            config_from_dict(
                merged(pipeline="compare", problem2={"f": "1", "g": "0"})
            )
        cfg = config_from_dict(merged(pipeline="compare", problem2={"f": "1"}))
        assert cfg.problem2.generator.f is not None
        # untouched fields fall back to the first problem
        assert cfg.canonical["problem2"]["terminal"] == "0"

    def test_sequence_pipelines_need_an_envelope(self):
        with pytest.raises(ConfigError, match="pipeline 'inf_sequence' needs an 'envelope'"):
            config_from_dict(merged(pipeline="inf_sequence"))
        with pytest.raises(ConfigError, match="pipeline 'sup_sequence' needs an 'envelope'"):
            config_from_dict(merged(pipeline="sup_sequence"))

    def test_bracketing_needs_pi_and_rate(self):
        with pytest.raises(ConfigError, match="needs 'problem.pi'"):
            config_from_dict(merged(pipeline="bracketing"))
        with pytest.raises(ConfigError, match="needs 'problem.f_t'"):
            config_from_dict(
                merged(pipeline="bracketing", problem={"pi": "0"})
            )

    def test_ito_check_needs_an_ito_section(self):
        with pytest.raises(ConfigError, match="pipeline 'ito_check' needs an 'ito'"):
            config_from_dict(merged(pipeline="ito_check"))
        with pytest.raises(ConfigError, match="'ito.beta' must be a number or expression"):
            config_from_dict(merged(ito={"beta": True}))

    def test_envelope_box_shape(self):
        with pytest.raises(ConfigError, match="'envelope.box.y' must be a \\[lo, hi\\] pair"):
            config_from_dict(merged(envelope={"box": {"y": [1.0]}}))
        with pytest.raises(ConfigError, match="'envelope.ns' entries must be >= 1"):
            config_from_dict(
                merged(envelope={"box": {"y": [-1.0, 1.0]}, "ns": [0.5]})
            )
        with pytest.raises(ConfigError, match="missing required key 'envelope.box'"):
            config_from_dict(merged(envelope={"grid_points": 11}))
        with pytest.raises(ConfigError, match="'envelope.ns' must be a non-empty nondecreasing"):
            config_from_dict(
                merged(envelope={"box": {"y": [-1.0, 1.0]}, "ns": [8, 2, 4]})
            )

    def test_outputs_formats_subset(self):
        with pytest.raises(ConfigError, match="'outputs.formats' must be a subset"):
            config_from_dict(merged(outputs={"formats": ["csv", "parquet"]}))

    def test_marks_lengths_must_agree(self):
        with pytest.raises(ConfigError, match="differ in length"):
            config_from_dict(merged(marks={"values": [1.0], "intensities": []}))


class TestConfigFile:
    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(minimal()))
        cfg = load_config(str(path))
        assert cfg.config_hash == config_from_dict(minimal()).config_hash

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="configuration file not found"):
            load_config(str(tmp_path / "absent.yaml"))
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [1,")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(bad))
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="configuration file is empty"):
            load_config(str(empty))
        nonmap = tmp_path / "list.yaml"
        nonmap.write_text("- 1\n")
        with pytest.raises(ConfigError, match="configuration must be a mapping"):
            load_config(str(nonmap))


def write_config(tmp_path, data, name="config.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


SNELL = {
    "grid": {"T": 1.0, "N": 4},
    "problem": {"f": "0", "barrier": "1 - t", "terminal": "0"},
}


class TestCli:
    def test_grammar_prints_both_grammars(self, capsys):
        assert main(["grammar"]) == 0
        out = capsys.readouterr().out
        assert "expression grammar" in out
        assert "configuration file (YAML mapping)" in out

    def test_validate_config(self, tmp_path, capsys):
        path = write_config(tmp_path, SNELL)
        assert main(["validate-config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("valid: pipeline=solve hash=")

    def test_validate_config_rejects(self, tmp_path, capsys):
        path = write_config(tmp_path, merged(grids={}))
        assert main(["validate-config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]:")

    def test_run_snell_solve(self, tmp_path, capsys):
        path = write_config(tmp_path, SNELL)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS solution_valid" in lines
        assert "PASS skorokhod_ok" in lines
        assert "PASS balance_residual_ok" in lines
        summary = json.loads((out_dir / "summary.json").read_text())
        assert abs(summary["root_value"] - 1.0) <= 1e-10
        assert summary["schema"] == "rbdsdep.summary.v1"
        assert summary["pipeline"] == "solve"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["schema"] == "rbdsdep.manifest.v1"
        assert manifest["config_hash"] == summary["config_hash"]
        assert "lattice.csv" in manifest["outputs"]
        assert set(manifest["versions"]) == {"python", "numpy", "rbdsdep"}

    def test_csv_schema_header_carries_the_config_hash(self, tmp_path):
        path = write_config(tmp_path, SNELL)
        out_dir = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out_dir)])
        cfg = load_config(path)
        first = (out_dir / "lattice.csv").read_text().splitlines()[0]
        assert first == f"# schema=rbdsdep.lattice.v2 config_hash={cfg.config_hash}"

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, SNELL)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--out", str(d1)]) == 0
        assert main(["run", "--config", path, "--out", str(d2)]) == 0
        for name in ("lattice.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("pipeline", ["inf_sequence", "sup_sequence", "bracketing"])
    def test_thread_count_does_not_change_outputs(self, tmp_path, pipeline):
        data = {
            "grid": {"T": 0.5, "N": 3},
            "problem": {"f": "min(abs(y), 2)", "barrier": "-10", "terminal": "w1"},
            "pipeline": pipeline,
            "envelope": {"box": {"y": [-5.0, 5.0]}, "ns": [1, 2, 4]},
        }
        if pipeline == "bracketing":
            data["grid"] = {"T": 0.25, "N": 4}
            data["problem"] = {
                "f": "indicator_pos(y)", "pi": "0", "f_t": "1",
                "barrier": "-4", "terminal": "w1 + 0.2",
            }
            data["bracketing"] = {"count": 3}
        path = write_config(tmp_path, data)
        dirs = []
        for threads in (1, 2, 8):
            out_dir = tmp_path / f"t{threads}"
            code = main(
                ["run", "--config", path, "--out", str(out_dir), "--threads", str(threads)]
            )
            assert code == 0
            dirs.append(out_dir)
        ref_csv = (dirs[0] / "sequence.csv").read_bytes()
        ref_json = (dirs[0] / "sequence.json").read_bytes()
        for d in dirs[1:]:
            assert (d / "sequence.csv").read_bytes() == ref_csv
            assert (d / "sequence.json").read_bytes() == ref_json

    def test_compare_verdict_drives_the_exit_code(self, tmp_path, capsys):
        ordered = merged(pipeline="compare", problem2={"f": "1"})
        path = write_config(tmp_path, ordered, name="ok.yaml")
        assert main(["run", "--config", path, "--out", str(tmp_path / "ok")]) == 0
        assert "PASS comparison_ok" in capsys.readouterr().out

        reversed_ = merged(
            pipeline="compare", problem={"f": "1"}, problem2={"f": "0"}
        )
        path2 = write_config(tmp_path, reversed_, name="bad.yaml")
        assert main(["run", "--config", path2, "--out", str(tmp_path / "bad")]) == 1
        out = capsys.readouterr().out
        assert "FAIL comparison_ok" in out
        report = json.loads((tmp_path / "bad" / "compare.json").read_text())
        assert report["report"]["verdict"] == "premises-not-met"

    def test_ito_pipeline(self, tmp_path, capsys):
        data = {
            "grid": {"T": 1.0, "N": 8},
            "problem": {"f": "0", "barrier": "-10", "terminal": "0"},
            "drivers": {"mode": "gaussian", "paths": 500, "seed": 41},
            "pipeline": "ito_check",
            "ito": {"eta": "1", "expected_terminal_sq": 1.0},
        }
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "ito.json").read_text())
        assert report["validators"]["identity_ok"]
        assert report["validators"]["martingales_ok"]
        assert report["validators"]["terminal_sq_ok"]

    def test_lsmc_solver_from_config(self, tmp_path):
        data = {
            "grid": {"T": 1.0, "N": 8},
            "problem": {"f": "0", "barrier": "-10", "terminal": "w1"},
            "drivers": {"mode": "gaussian", "paths": 200},
            "scheme": {"solver": "lsmc"},
        }
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["solver"] == "lsmc"
        assert summary["diagnostics"]["basis"] == "poly"
        assert abs(summary["root_value"]) < 0.25  # MC noise around 0

    def test_csv_only_formats_skip_json_reports(self, tmp_path):
        data = merged(outputs={"formats": ["csv"]})
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out_dir)])
        assert (out_dir / "lattice.csv").exists()
        assert not (out_dir / "summary.json").exists()
        # the manifest is always written
        assert (out_dir / "manifest.json").exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = write_config(tmp_path, SNELL)
        out_dir = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out_dir)])
        strays = [p.name for p in out_dir.iterdir() if ".tmp." in p.name]
        assert strays == []

    def test_runtime_errors_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.yaml")
        assert main(["run", "--config", missing]) == 2
        assert "error[ConfigError]:" in capsys.readouterr().err
        path = write_config(tmp_path, SNELL)
        assert main(["run", "--config", path, "--threads", "0"]) == 2
        assert "error[RbdsdepError]:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem,problem2,refusal",
        [
            ({"f": "exp(y)", "terminal": "w1 + 2"}, {"f": "exp(y) + 0.05"},
             "the solution of problem 1 has a non-finite Y"),
            ({"f": "0", "terminal": "1e308"}, {"f": "0.0"},
             "a certificate cloud of radius 1.5e[+]308 is too wide to sample"),
        ],
        ids=["overflow", "huge"],
    )
    def test_a_comparison_beyond_float_range_exits_2(
        self, tmp_path, capsys, problem, problem2, refusal
    ):
        """A comparison whose solutions no certificate cloud can cover is
        refused by name, not with the sampler's OverflowError; the config
        itself is valid."""
        data = {
            "pipeline": "compare",
            "grid": {"T": 1.0, "N": 3},
            "problem": {"barrier": "-1", **problem},
            "problem2": problem2,
        }
        path = write_config(tmp_path, data)
        assert main(["validate-config", path]) == 0
        with np.errstate(all="ignore"):
            assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert re.search(f"error\\[SolverError\\]: {refusal}", capsys.readouterr().err)

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("rbdsdep")
        assert exe is not None, "console entry point missing"
        proc = subprocess.run(
            [exe, "grammar"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "expression grammar" in proc.stdout

    def test_module_entry_point(self, tmp_path):
        """``python -m rbdsdep`` runs the command line where the console
        script is not installed."""
        path = write_config(tmp_path, SNELL)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(rbdsdep.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rbdsdep", "validate-config", path],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("valid: pipeline=")

    def test_every_exported_name_resolves(self):
        assert len(set(rbdsdep.__all__)) == len(rbdsdep.__all__)
        missing = [name for name in rbdsdep.__all__ if not hasattr(rbdsdep, name)]
        assert missing == []
        # certificate clouds are EvalContexts: the Cloud type is gone
        assert "Cloud" not in rbdsdep.__all__ and not hasattr(rbdsdep, "Cloud")


class TestRunPipelineApi:
    def test_returns_flag_summary_and_paths(self, tmp_path):
        cfg = config_from_dict(SNELL)
        ok, summary, written = run_pipeline(cfg, out_dir=str(tmp_path / "o"))
        assert ok
        assert summary["config_hash"] == cfg.config_hash
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert names == ["lattice.csv", "manifest.json", "summary.json"]


def lsmc_one_mark(mode="gaussian", barrier="-0.8 + 0.3*t") -> dict:
    """A one-mark LSMC solve at 16000 paths over 10 steps."""
    return {
        "grid": {"T": 1.0, "N": 10},
        "marks": {"values": [1.0], "intensities": [0.4]},
        "drivers": {"paths": 16000, "seed": 7, "mode": mode},
        "problem": {
            "f": "0.2*y - 0.3*z1 + 0.1*u1",
            "g": "0.1*y",
            "barrier": barrier,
            "terminal": "max(w1, -0.5) + 0.2*j1",
        },
        "scheme": {"solver": "lsmc", "basis": "poly", "degree": 2},
        "outputs": {"formats": ["json"]},
    }


class TestLsmcRegressionDesign:
    """Designs whose raw polynomial basis is rank-deficient, which the
    regression must reduce to a full-rank one."""

    def run(self, tmp_path, data):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
        return code, json.loads((out_dir / "summary.json").read_text())

    def test_two_point_jump_counts(self, tmp_path):
        # cumulative two-point jump counts take the values 0 and 1 at step
        # 1, where j and j**2 are the same column
        code, summary = self.run(tmp_path, lsmc_one_mark(mode="two-point"))
        assert code == 0
        assert all(summary["validators"].values())
        assert summary["diagnostics"]["basis_sizes"][1] == 5

    def test_barrier_linear_in_w(self, tmp_path):
        # the barrier column is 1*(-0.5*(1 - t)) + 1*w1, in the span of the
        # intercept and the W column
        code, summary = self.run(tmp_path, lsmc_one_mark(barrier="w1 - 0.5*(1 - t)"))
        assert code == 0
        assert all(summary["validators"].values())
        conditions = summary["diagnostics"]["regression_condition"]
        assert len(conditions) == 10
        assert max(conditions) <= 1e14


ONE_MARK = {"values": [1.0], "intensities": [0.4]}


def sequence_beyond_the_path_budget(pipeline: str) -> dict:
    """d = 1, one mark, well inside the state budget, but with more paths
    than MAX_PATHS: at N = 8 with g = 0.1*y, 2**24 full paths on 2949
    lattice nodes, and at N = 12 with g = 0, 2**24 W and jump histories on
    819 nodes of a collapsed B axis."""
    data = {
        "pipeline": pipeline,
        "grid": {"T": 0.5, "N": 8},
        "dims": {"d": 1},
        "marks": dict(ONE_MARK),
        "scheme": {"tree_max_steps": 12},
        "outputs": {"formats": ["csv", "json"]},
    }
    if pipeline == "bracketing":
        data["grid"]["N"] = 12
        data["problem"] = {
            "f": "indicator_pos(y)", "g": "0", "pi": "0", "f_t": "1",
            "barrier": "-4", "terminal": "w1 + 0.2",
        }
        data["bracketing"] = {"count": 5}
    else:
        data["problem"] = {
            "f": "min(abs(y), 2)", "g": "0.1*y", "growth_c": 1,
            "barrier": "w1 + 0.5*(0.5 - t)", "terminal": "w1 + 0.2*j1",
        }
        data["envelope"] = {"box": {"y": [-5, 5]}, "ns": [1, 2, 4]}
    return data


class TestSequencesBeyondThePathBudget:
    """Sequence runs check and norm on the tree slices, E sup Y^2 included,
    so a tree with more paths than MAX_PATHS finishes with every norm."""

    @pytest.mark.parametrize("pipeline", ["bracketing", "inf_sequence"])
    def test_run_finishes_with_sup_y(self, tmp_path, capsys, pipeline):
        data = sequence_beyond_the_path_budget(pipeline)
        path = write_config(tmp_path, data)
        assert main(["validate-config", path]) == 0
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "sequence.json").read_text())
        assert summary["validators"] and all(summary["validators"].values())
        norms = summary["report"]["norms"]
        assert len(norms) == len(summary["y0_series"]) >= 3
        cfg = config_from_dict(data)
        tree = cfg.tree_model()
        if pipeline == "bracketing":
            run = run_bracketing_sequence(cfg.problem, ns_count=cfg.bracketing_count, tree=tree)
        else:
            run = run_inf_envelope_sequence(cfg.problem, cfg.envelope, ns=cfg.envelope_ns, tree=tree)
        for entry, sol in zip(norms, run.tree_solutions, strict=True):
            # max_i E[Y_i^2] <= E[max_i Y_i^2] <= E[sum_i Y_i^2]
            second = [float((sol.tree.state_probs(i) * y**2).sum()) for i, y in enumerate(sol.Y)]
            assert max(second) <= entry["sup_y_sq"] <= sum(second)
            assert "sup_y_sq_skipped" not in entry
            assert entry["z_norm_sq"] > 0.0
        rows = (out_dir / "sequence.csv").read_text().splitlines()
        assert len(rows) == 2 + len(norms)


def tree_solve(N: int, d: int = 1, m: int = 1, formats=("json",), g="0.1*y") -> dict:
    """A tree solve on d W axes and m marks whose barrier binds."""
    w = " + ".join(f"w{c}" for c in range(1, d + 1))
    j = "".join(f" + 0.2*j{k}" for k in range(1, m + 1))
    u = "".join(f" + 0.1*u{k}" for k in range(1, m + 1))
    return {
        "grid": {"T": 0.5, "N": N},
        "dims": {"d": d},
        "marks": {"values": [1.0, -0.5][:m], "intensities": [0.4, 0.3][:m]},
        "problem": {
            "f": f"0.2*y - 0.3*z1{u}",
            "g": g,
            "barrier": f"{w} - 0.1*(0.5 - t)",
            "terminal": f"{w}{j}",
        },
        "scheme": {"tree_max_steps": max(N, 6)},
        "outputs": {"formats": list(formats)},
    }


def read_lattice_csv(path):
    """The header row and the columns of a lattice.csv, each cell parsed
    back (integers for the slice and coordinates, floats for the rest)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=rbdsdep.lattice.v2 ")
    header = lines[1].split(",")
    cells = list(zip(*(line.split(",") for line in lines[2:])))
    ints = header.index("prob")
    columns = [np.array([int(c) for c in col]) for col in cells[:ints]]
    columns += [np.array([float(c) for c in col]) for col in cells[ints:]]
    return header, columns


class TestTreeSolveOnTheLattice:
    """A tree solve checks, norms and writes its lattice slices; no path
    is built."""

    @pytest.mark.parametrize(
        "N, m, g",
        [
            pytest.param(10, 1, "0.1*y", id="10"),
            pytest.param(16, 1, "0.1*y", id="16"),
            pytest.param(1030, 0, "0", id="1030"),
        ],
    )
    def test_deep_tree_solve_passes(self, tmp_path, capsys, N, m, g):
        """N = 10 carries E sup Y^2 within the work budget (about 1.1e4
        distinct values of Y^2 on 12,117 stored nodes); N = 16 (about
        0.8M nodes) is past it and reports why.  N = 1030 without marks
        and with g = 0 (531,996 nodes) is past the N at which comb(N, k)
        no longer fits a float, and past the k at which 0.5**k is
        subnormal."""
        data = tree_solve(N, m=m, g=g)
        path = write_config(tmp_path, data)
        assert main(["validate-config", path]) == 0
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ("balance_residual_ok", "solution_valid", "skorokhod_ok"):
            assert f"PASS {name}" in lines
        summary = json.loads((out_dir / "summary.json").read_text())
        assert all(summary["validators"].values()) and len(summary["validators"]) == 3
        assert np.isfinite(summary["root_value"])
        cfg = config_from_dict(data)
        tree = cfg.tree_model()
        assert tree.state_probs(N).sum() == pytest.approx(1.0, abs=1e-12)
        if N == 10:
            sol = solve_tree_exact(cfg.problem, tree)
            # max_i E[Y_i^2] <= E[max_i Y_i^2] <= E[sum_i Y_i^2]
            second = [float((sol.tree.state_probs(i) * y**2).sum()) for i, y in enumerate(sol.Y)]
            assert max(second) <= summary["norms"]["sup_y_sq"] <= sum(second)
            assert "sup_y_sq_skipped" not in summary["norms"]
        else:
            assert summary["norms"]["sup_y_sq"] is None
            reason = re.fullmatch(
                r"E sup Y\^2 carries (\d+) distinct values of Y\^2 over (\d+) stored "
                r"nodes: (\d+) node steps \(> 100000000\)",
                summary["norms"]["sup_y_sq_skipped"],
            )
            distinct, nodes, steps = map(int, reason.groups())
            assert nodes == tree.total_states()
            assert steps == distinct * nodes > SUP_Y_SQ_WORK
        assert "root_se" not in summary

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_summary_equals_the_path_forms(self, tmp_path, d, m):
        cfg = config_from_dict(tree_solve(3, d, m))
        ok, summary, _ = run_pipeline(cfg, out_dir=str(tmp_path))
        assert ok
        paths = solve_tree_exact(cfg.problem, cfg.tree_model()).to_solution_grid()
        paths.validate()
        k_t = paths.weights @ paths.K[:, -1]
        assert k_t > 0.0
        # norm_report's k_t_sq is weights @ K[:, -1]**2
        want = {"root_value": paths.root_value(), "k_t_mean": k_t, **norm_report(paths, cfg.marks)}
        got = {key: summary[key] for key in ("root_value", "k_t_mean")} | summary["norms"]
        assert got.keys() == want.keys()
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=0, err_msg=key)
        assert summary["min_y"] == float(paths.Y.min())
        assert summary["skorokhod_max"] == float(skorokhod_check(paths).max())
        assert summary["validators"]["solution_valid"]

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 0), (1, 2)])
    def test_lattice_csv_reads_back_every_slice_and_path(self, tmp_path, d, m):
        cfg = config_from_dict(tree_solve(3, d, m, formats=("csv",)))
        _, _, written = run_pipeline(cfg, out_dir=str(tmp_path))
        assert sorted(os.path.basename(p) for p in written) == ["lattice.csv", "manifest.json"]
        header, columns = read_lattice_csv(tmp_path / "lattice.csv")
        zs, us = [f"z{c}" for c in range(1, d + 1)], [f"u{k}" for k in range(1, m + 1)]
        coords = [f"w{c}_minus" for c in range(1, d + 1)] + [f"j{k}" for k in range(1, m + 1)]
        assert header == ["slice", *coords, "b_column", "prob", "y", *zs, *us, "dk", "s"]
        col = dict(zip(header, columns))
        tree = cfg.tree_model()
        want = solve_tree_exact(cfg.problem, tree)
        N = cfg.grid.N
        assert len(col["slice"]) == tree.total_states()
        slices = {name: [] for name in ("Y", "Z", "U", "dK", "S")}
        for i in range(N + 1):
            at, shape = col["slice"] == i, tree.slice_shape(i)
            node = np.stack([col[name][at] for name in coords + ["b_column"]])
            np.testing.assert_array_equal(node, np.indices(shape).reshape(len(shape), -1))
            assert np.array_equal(col["prob"][at], tree.state_probs(i).ravel())
            slices["Y"].append(col["y"][at].reshape(shape))
            for name, parts in (("Z", zs), ("U", us)):
                values = np.array([col[c][at] for c in parts]).T
                slices[name].append(values.reshape(shape + (len(parts),)))
            slices["S"].append(col["s"][at].reshape(shape))
            if i < N:
                slices["dK"].append(col["dk"][at].reshape(shape))
            else:
                assert not col["dk"][at].any()
        for name, got in slices.items():
            for a, b in zip(got, getattr(want, name), strict=True):
                assert a.shape == b.shape and np.array_equal(a, b), name
        back = TreeSolution(cfg.problem, tree, **slices)
        for a, b in zip(
            solution_csv_rows(back.to_solution_grid()).columns,
            solution_csv_rows(want.to_solution_grid()).columns,
        ):
            assert np.array_equal(a, b)

    def test_run_pipeline_builds_no_path(self, tmp_path, monkeypatch):
        calls = []
        real = TreeSolution.to_solution_grid

        def to_solution_grid(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TreeSolution, "to_solution_grid", to_solution_grid)
        cfg = config_from_dict(tree_solve(4, formats=("csv", "json")))
        ok, _, written = run_pipeline(cfg, out_dir=str(tmp_path))
        assert ok and len(written) == 3
        assert calls == []

    @pytest.mark.parametrize("g, b_axis, rows", [("0", "collapsed", 140), ("0*y", "exhaustive", 685)])
    def test_lattice_csv_has_one_row_per_stored_node(self, tmp_path, g, b_axis, rows):
        """The bracketing benchmark's problem as a solve (N = 6, d = m = 1):
        g = 0 stores one B column per lattice point, 0*y every B column."""
        data = {
            "grid": {"T": 0.5, "N": 6},
            "marks": dict(ONE_MARK),
            "problem": {"f": "indicator_pos(y)", "g": g, "barrier": "-4", "terminal": "w1 + 0.2"},
            "outputs": {"formats": ["csv"]},
        }
        cfg = config_from_dict(data)
        assert cfg.tree_model().b_axis == b_axis
        run_pipeline(cfg, out_dir=str(tmp_path))
        header, columns = read_lattice_csv(tmp_path / "lattice.csv")
        col = dict(zip(header, columns))
        assert len(col["slice"]) == rows == cfg.tree_model().total_states()
        for i in range(7):
            assert col["prob"][col["slice"] == i].sum() == pytest.approx(1.0, abs=1e-14)
        if b_axis == "collapsed":
            assert not col["b_column"].any()


class TestKMomentsOncePerRun:
    def test_bracketing_run_carries_k_backward_once(self, tmp_path, monkeypatch):
        """sequence.csv's k_t_mean and sequence.json's k_t_sq read the two
        moments of one backward pass per run, over every solution of its
        one solve pass at once (the bracketing benchmark's problem, N = 6,
        five iterates and two anchors)."""
        passes = []
        real = TreeSolution.__dict__["k_moments"].func

        def counted(sol):
            passes.append(sol)
            return real(sol)

        moments = functools.cached_property(counted)
        moments.__set_name__(TreeSolution, "k_moments")
        monkeypatch.setattr(TreeSolution, "k_moments", moments)
        data = {
            "pipeline": "bracketing",
            "grid": {"T": 0.5, "N": 6},
            "marks": dict(ONE_MARK),
            "problem": {
                "f": "indicator_pos(y)", "g": "0", "pi": "0", "f_t": "1",
                "barrier": "-4", "terminal": "w1 + 0.2",
            },
            "bracketing": {"count": 5},
            "outputs": {"formats": ["csv", "json"]},
        }
        ok, _, _ = run_pipeline(config_from_dict(data), out_dir=str(tmp_path))
        iterates = (tmp_path / "sequence.csv").read_text().splitlines()[2:]
        assert ok and len(iterates) == 5
        assert len(passes) == 1 and passes[0].members == len(iterates) + 2
