"""Config reading: the canonical form and its hash, the grammar text, and
inputs refused at load with the key named."""

import math
import re
import sys
from pathlib import Path

import pytest
import yaml

from rbdsdep.cli import main
from rbdsdep.config import CONFIG_GRAMMAR, config_from_dict
from rbdsdep.drivers import MAX_PATH_STEPS
from rbdsdep.errors import ConfigError
from rbdsdep.generator import DEFAULT_ENVELOPE_NS, MAX_ENVELOPE_GRID

BENCH = Path(__file__).resolve().parents[1] / "bench"


def minimal() -> dict:
    return {
        "grid": {"T": 1.0, "N": 4},
        "problem": {"f": "0", "barrier": "-10", "terminal": "0"},
    }


#: a compare config that sets every key of every section
ALL_KEYS = {
    "pipeline": "compare",
    "grid": {"T": 0.5, "N": 3},
    "dims": {"d": 2},
    "marks": {"values": [1.0, -0.5], "intensities": [0.4, 0.3]},
    "drivers": {"paths": 64, "seed": 11, "mode": "enumerate"},
    "problem": {
        "f": "0.1*y + 0.2*z1 - 0.1*u2",
        "g": "0.1*y",
        "pi": "0",
        "f_t": "1",
        "barrier": "-1 + 0.1*t",
        "terminal": "w1 + 0.2*j1",
        "growth_c": 1.5,
        "alpha": 0.4,
    },
    "problem2": {
        "f": "0.1*y + 0.2*z1 - 0.1*u2 + 0.05",
        "pi": "0",
        "f_t": "2",
        "barrier": "-1.5 + 0.1*t",
        "terminal": "w1 + 0.2*j1 + 0.1",
    },
    "scheme": {
        "solver": "tree",
        "basis": "indicator",
        "degree": 3,
        "ridge": 1e-6,
        "max_condition": 1e12,
        "tree_max_steps": 5,
        "tree_max_states": 100000,
    },
    "envelope": {
        "box": {"y": [-3, 3], "z2": [-2, 2], "u1": [-1, 1]},
        "grid_points": 51,
        "ns": [2, 4],
    },
    "bracketing": {"count": 3},
    "ito": {
        "alpha0": 0.25,
        "beta": "0.1*y",
        "gamma": 0.5,
        "eta": "w1",
        "sigma": 1,
        "expected_terminal_sq": 0.75,
    },
    "outputs": {"directory": "results", "formats": ["json"]},
}


def with_section(section, **keys) -> dict:
    data = minimal()
    data[section] = {**data.get(section, {}), **keys}
    return data


class TestCanonicalForm:
    def test_golden_hashes(self):
        # a change here changes the hash in every report written before it
        assert config_from_dict(minimal()).config_hash == (
            "4a5f30f6a74374ca2f4b14e4edbff085da158c0f70e60fdefe8915cda15ae1ab"
        )
        assert config_from_dict(ALL_KEYS).config_hash == (
            "5c28d91ffca60dfab1b4e3895f9ab6d64dcb0809f8896471305cd28d32a8df1e"
        )

    def test_grammar_states_the_default_envelope_ns(self):
        assert all(n == int(n) for n in DEFAULT_ENVELOPE_NS)
        stated = str([int(n) for n in DEFAULT_ENVELOPE_NS])
        assert f"default {stated})" in " ".join(CONFIG_GRAMMAR.split())

    def test_grammar_states_the_budgets(self):
        text = " ".join(CONFIG_GRAMMAR.split())
        assert f"paths x (N + 1) <= {MAX_PATH_STEPS} path-steps" in text
        assert f"grid_points ** (gridded axes) <= {MAX_ENVELOPE_GRID} grid points" in text

    def test_every_recorded_key_is_in_the_grammar(self):
        blocks, name = {}, None
        for line in CONFIG_GRAMMAR.splitlines():
            head = re.match(r"^(\w+):", line)
            if head:
                name = head.group(1)
            if name:
                blocks[name] = blocks.get(name, "") + line + "\n"
        for section, body in config_from_dict(ALL_KEYS).canonical.items():
            assert section in blocks, section
            for key in body if isinstance(body, dict) else ():
                assert re.search(rf"\b{key}\b", blocks[section]), f"{section}.{key}"


def non_finite_cases():
    nan, inf = math.nan, math.inf
    box = {"box": {"y": [-1.0, 1.0]}}
    return {
        "scheme.max_condition": with_section("scheme", max_condition=nan),
        "grid.T": with_section("grid", T=inf),
        "marks.intensities": with_section(
            "marks", values=[1.0], intensities=[nan]
        ),
        "marks.values": with_section("marks", values=[-inf], intensities=[0.5]),
        "problem.growth_c": with_section("problem", growth_c=inf),
        "scheme.ridge": with_section("scheme", ridge=inf),
        "envelope.ns": with_section("envelope", ns=[2.0, inf], **box),
        "envelope.box.y": with_section("envelope", box={"y": [-1.0, inf]}),
        "ito.alpha0": with_section("ito", alpha0=nan),
        "ito.beta": with_section("ito", beta=-inf),
        "ito.expected_terminal_sq": with_section("ito", expected_terminal_sq=nan),
    }


def refused_cases():
    cases = {f"non-finite {k}": (k, v) for k, v in non_finite_cases().items()}
    compare = {**minimal(), "pipeline": "compare"}
    cases.update(
        {
            "empty ns": (
                "envelope.ns",
                with_section("envelope", box={"y": [-1.0, 1.0]}, ns=[]),
            ),
            "negative seed": ("drivers.seed", with_section("drivers", seed=-1)),
            "problem2.growth_c": (
                "problem2.growth_c",
                {**compare, "problem2": {"f": "1", "growth_c": 2.0}},
            ),
            "problem2.alpha": (
                "problem2.alpha",
                {**compare, "problem2": {"f": "1", "alpha": 0.25}},
            ),
            "box axis q7": (
                "envelope.box.q7",
                with_section("envelope", box={"y": [-1.0, 1.0], "q7": [0.0, 1.0]}),
            ),
            "box axis z3 at d=1": (
                "envelope.box.z3",
                with_section("envelope", box={"y": [-1.0, 1.0], "z3": [0.0, 1.0]}),
            ),
            "null problem.g": ("problem.g", with_section("problem", g=None)),
            "null pipeline": ("configuration.pipeline", {**minimal(), "pipeline": None}),
            "null drivers.mode": ("drivers.mode", with_section("drivers", mode=None)),
            "null scheme.solver": ("scheme.solver", with_section("scheme", solver=None)),
        }
    )
    return cases


REFUSED = refused_cases()


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_config_refuses_naming_the_key(case, tmp_path, capsys):
    key, data = REFUSED[case]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]:")
    assert f"'{key}'" in err


def test_box_axes_follow_d_and_the_marks():
    data = with_section("envelope", box={"z1": [-1.0, 1.0], "u1": [0.0, 1.0]})
    data["marks"] = {"values": [1.0], "intensities": [0.5]}
    assert sorted(config_from_dict(data).envelope.box) == ["u1", "z1"]
    data["envelope"]["box"]["u2"] = [0.0, 1.0]
    with pytest.raises(ConfigError, match=r"unknown key 'envelope\.box\.u2'"):
        config_from_dict(data)


def test_null_keeps_unset_where_unset_is_the_default():
    data = with_section("problem", pi=None, f_t=None)
    generator = config_from_dict(data).problem.generator
    assert generator.pi is None and generator.rate is None


@pytest.mark.parametrize("pipeline", ["solve", "ito_check"])
def test_validate_config_refuses_a_jump_mean_the_gaussian_sampler_cannot_draw(
    pipeline, tmp_path, capsys
):
    data = {
        **minimal(),
        "pipeline": pipeline,
        "grid": {"T": 1.0, "N": 1},
        "marks": {"values": [1.0], "intensities": [1.0e10]},
        "drivers": {"mode": "gaussian"},
        "scheme": {"solver": "lsmc"},
        "ito": {"alpha0": 0.5},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 2
    assert "gaussian jump counts need intensity * dt <= 2**30" in capsys.readouterr().err
    data["marks"]["intensities"] = [1.0e9]
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 0


def test_validate_config_refuses_a_tree_over_its_state_budget(tmp_path, capsys):
    # N = 40, d = 1, one mark, g = 0.1*y: sum over slices of (i+1)**2 *
    # 2**(40-i) nodes
    data = {
        **minimal(),
        "grid": {"T": 0.5, "N": 40},
        "marks": {"values": [1.0], "intensities": [0.4]},
        "scheme": {"tree_max_steps": 40},
    }
    data["problem"] = {**data["problem"], "g": "0.1*y"}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "tree budget exceeded: 13194139531461 lattice nodes > 4000000" in err
    # an lsmc solve builds no tree, so the tree budget does not bind
    data["scheme"]["solver"] = "lsmc"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 0
    # with g = 0 the tree stores one B column: sum of (i+1)**2, 23821 nodes
    data["scheme"]["solver"] = "tree"
    data["problem"]["g"] = "0"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 0


def test_the_budget_refusal_names_its_key(tmp_path, capsys):
    """compare has no LSMC form, so the refusal names the key to raise."""
    data = {**ALL_KEYS, "grid": {"T": 0.5, "N": 40}}
    data["scheme"] = {**ALL_KEYS["scheme"], "tree_max_steps": 40}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error[SolverError]: tree budget exceeded: " in err
    assert "lattice nodes > 100000; raise scheme.tree_max_states" in err
    assert "solve_lsmc" not in err


def sequence_config(pipeline, f, box) -> dict:
    return {
        "pipeline": pipeline,
        "grid": {"T": 0.5, "N": 2},
        "problem": {"f": f, "growth_c": 2, "barrier": "-6", "terminal": "0.5*w1"},
        "envelope": {"box": box, "grid_points": 11},
    }


@pytest.mark.parametrize("pipeline", ["inf_sequence", "sup_sequence"])
@pytest.mark.parametrize(
    "f, box, message",
    [
        (
            "sqrt(abs(y)) + abs(z1)",
            {"y": [-6, 6]},
            "envelope box is missing an interval for 'z1'",
        ),
        (
            "0.5 + 0.1*w1",
            {"y": [-6, 6]},
            "expression references none of y/z*/u*",
        ),
    ],
)
def test_validate_config_refuses_an_envelope_the_run_would_refuse(
    pipeline, f, box, message, tmp_path, capsys
):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(sequence_config(pipeline, f, box)))
    assert main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]:") and message in err
    # the box the run needs is accepted
    box = {"y": [-6, 6], "z1": [-6, 6]}
    path.write_text(yaml.safe_dump(sequence_config(pipeline, "abs(y) + abs(z1)", box)))
    assert main(["validate-config", str(path)]) == 0


def test_tree_depth_refusal_names_its_key(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(with_section("grid", N=8)))
    assert main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "tree depth N = 8 exceeds max_steps = 6; raise scheme.tree_max_steps" in err


def _validate(data, tmp_path, capsys):
    """validate-config's exit code and stderr on data."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return main(["validate-config", str(path)]), capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["inf_sequence", "sup_sequence"])
def test_validate_config_refuses_an_envelope_grid_past_its_budget(pipeline, tmp_path, capsys):
    """grid_points ** (gridded axes) is what the run allocates for; a
    million points on each of two axes ended in a 7 TiB allocation."""
    data = sequence_config(pipeline, "sqrt(abs(y)) + abs(z1)", {"y": [-6, 6], "z1": [-6, 6]})
    data["envelope"]["grid_points"] = 1_000_000
    code, err = _validate(data, tmp_path, capsys)
    assert code == 2
    assert err.strip() == (
        "error[ConfigError]: 'envelope.grid_points' = 1000000 over 2 gridded axes is "
        f"1000000000000 grid points (> budget {MAX_ENVELOPE_GRID})"
    )
    data["envelope"]["grid_points"] = math.isqrt(MAX_ENVELOPE_GRID)  # at the budget
    assert _validate(data, tmp_path, capsys)[0] == 0
    # only the axes f reads are gridded: one axis of a million points fits
    data = sequence_config(pipeline, "sqrt(abs(y))", {"y": [-6, 6], "z1": [-6, 6]})
    data["envelope"]["grid_points"] = MAX_ENVELOPE_GRID
    assert _validate(data, tmp_path, capsys)[0] == 0


def lsmc_config(paths, mode="gaussian") -> dict:
    return {
        "grid": {"T": 1.0, "N": 10},
        "marks": {"values": [1.0], "intensities": [0.4]},
        "drivers": {"paths": paths, "seed": 1, "mode": mode},
        "problem": {"f": "0.2*y", "barrier": "-0.8", "terminal": "max(w1, -0.5)"},
        "scheme": {"solver": "lsmc"},
    }


@pytest.mark.parametrize("mode", ["gaussian", "two-point"])
def test_validate_config_refuses_sampled_paths_past_their_budget(mode, tmp_path, capsys):
    code, err = _validate(lsmc_config(100_000_000_000, mode), tmp_path, capsys)
    assert code == 2
    assert err.strip() == (
        "error[ConfigError]: 'drivers.paths' = 100000000000 over N + 1 = 11 time points "
        f"is 1100000000000 path-steps (> budget {MAX_PATH_STEPS})"
    )
    assert _validate(lsmc_config(MAX_PATH_STEPS // 11, mode), tmp_path, capsys)[0] == 0
    assert _validate(lsmc_config(MAX_PATH_STEPS // 11 + 1, mode), tmp_path, capsys)[0] == 2
    # the budget binds only where paths are sampled: a tree solve ignores them
    data = lsmc_config(100_000_000_000, mode)
    data["scheme"] = {"solver": "tree", "tree_max_steps": 10}
    assert _validate(data, tmp_path, capsys)[0] == 0


def test_an_enumeration_keeps_its_own_budget(tmp_path, capsys):
    """An enumeration's size is set by the grid, not by drivers.paths, so
    the path-step budget leaves it to MAX_PATHS."""
    data = lsmc_config(100_000_000_000, "enumerate")
    data["grid"]["N"] = 2
    assert _validate(data, tmp_path, capsys)[0] == 0


def test_the_benchmark_configs_fit_the_budgets(monkeypatch):
    """Every benchmark workload config loads, and so does the scaling
    sweep's largest path count on the lsmc config."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        import sweep
        import workloads

        for name in workloads.WORKLOADS:
            config_from_dict(workloads.workload_config(name, 1))
        data = workloads.workload_config("lsmc", 1)
        data["drivers"]["paths"] = max(sweep.PATH_COUNTS)
        config_from_dict(data)
    finally:
        for name in set(sys.modules) - before:
            if str(BENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
