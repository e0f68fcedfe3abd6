"""Experiment configuration: one YAML document per run.

Every numeric field is validated against the owning module's
preconditions at load time, before any computation; unknown keys are hard
errors naming the key.  The canonical form (all defaults resolved, keys
sorted) is hashed with sha256 and the hash is embedded in every output
file, so a report can always be traced back to its exact configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .drivers import MarkSpace, TimeGrid, build_time_grid, check_two_point_law
from .errors import ConfigError
from .generator import EnvelopeParams, GeneratorSpec
from .solver import ProblemSpec, SchemeParams, TreeModel

PIPELINES = (
    "solve",
    "inf_sequence",
    "bracketing",
    "sup_sequence",
    "compare",
    "ito_check",
)

CONFIG_GRAMMAR = """\
configuration file (YAML mapping); sections and keys:

grid:        T (number > 0), N (integer >= 1)
dims:        d (integer >= 1, default 1)
marks:       values (list of nonzero numbers, default []),
             intensities (list of positive numbers, same length)
drivers:     paths (integer >= 1, default 4096), seed (integer, default 2024),
             mode (two-point | gaussian | enumerate, default two-point)
problem:     f (expression, required), g (expression, default "0"),
             pi (expression, optional), f_t (expression over t, optional),
             barrier (expression over t and w*, required),
             terminal (expression over w* and j*, required),
             growth_c (number > 0, default 1.0),
             alpha (number in (0, 1), default 0.5)
problem2:    f / barrier / terminal / pi / f_t overrides (compare pipeline;
             g is shared with problem by construction)
scheme:      solver (tree | lsmc, default tree),
             basis (poly | indicator, default poly),
             degree (integer >= 1, default 2),
             ridge (number >= 0, default 1e-8),
             max_condition (number > 0, default 1e14),
             tree_max_steps (integer >= 1, default 6),
             tree_max_states (integer >= 1, default 4000000)
envelope:    box (mapping axis -> [lo, hi]; axes y, z1.., u1..),
             grid_points (integer >= 2, default 201),
             ns (list of numbers >= 1, default [1, 2, 4, 8, 16])
bracketing:  count (integer >= 1, default 5)
ito:         alpha0 (number, default 0), beta / gamma / eta / sigma
             (expression over t, w*, j*, or number, optional),
             expected_terminal_sq (number, optional)
pipeline:    solve | inf_sequence | bracketing | sup_sequence | compare
             | ito_check (default solve)
outputs:     directory (string, default "out"),
             formats (subset of [csv, json], default both)

expressions use the published operator grammar (`rbdsdep grammar`).
"""


def _require_mapping(value, where):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _reject_unknown(section: dict, allowed, where):
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key '{where}.{extra[0]}'")


def _get_number(section, key, where, default=None, minimum=None, strict_min=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{where}.{key}'")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}.{key}' must be a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{where}.{key}' must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"'{where}.{key}' must be > {strict_min}, got {value}")
    return value


def _get_int(section, key, where, default=None, minimum=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{where}.{key}'")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}.{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{where}.{key}' must be >= {minimum}, got {value}")
    return value


def _get_str(section, key, where, default=None, choices=None, required=False):
    value = section.get(key, default)
    if value is None:
        if required:
            raise ConfigError(f"missing required key '{where}.{key}'")
        return None
    if not isinstance(value, str):
        raise ConfigError(f"'{where}.{key}' must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"'{where}.{key}' must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _get_number_list(section, key, where, default):
    value = section.get(key, default)
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise ConfigError(f"'{where}.{key}' must be a list of numbers")
    return [float(v) for v in value]


@dataclass
class ExperimentConfig:
    """Fully validated configuration plus its canonical hash."""

    pipeline: str
    grid: TimeGrid
    dim_d: int
    marks: MarkSpace
    problem: ProblemSpec
    problem2: Optional[ProblemSpec]
    scheme: SchemeParams
    solver_kind: str
    tree_max_steps: int
    tree_max_states: int
    envelope: Optional[EnvelopeParams]
    envelope_ns: list
    bracketing_count: int
    ito: Optional[dict]
    paths: int
    seed: int
    mode: str
    out_dir: str
    formats: list
    canonical: dict = field(repr=False, default_factory=dict)
    config_hash: str = ""

    def tree_model(self) -> TreeModel:
        return TreeModel(
            self.grid,
            self.dim_d,
            self.marks,
            max_steps=self.tree_max_steps,
            max_states=self.tree_max_states,
        )


def _parse_marks(data) -> MarkSpace:
    section = _require_mapping(data.get("marks"), "marks")
    _reject_unknown(section, ("values", "intensities"), "marks")
    values = _get_number_list(section, "values", "marks", [])
    intensities = _get_number_list(section, "intensities", "marks", [])
    if len(values) != len(intensities):
        raise ConfigError("'marks.values' and 'marks.intensities' differ in length")
    return MarkSpace(np.array(values, dtype=float), np.array(intensities, dtype=float))


def _parse_problem(section, where, grid, dim_d, marks, base=None):
    section = _require_mapping(section, where)
    allowed = ("f", "g", "pi", "f_t", "barrier", "terminal", "growth_c", "alpha")
    _reject_unknown(section, allowed, where)
    if base is None:
        f = _get_str(section, "f", where, required=True)
        g = _get_str(section, "g", where, default="0")
        barrier = _get_str(section, "barrier", where, required=True)
        terminal = _get_str(section, "terminal", where, required=True)
        growth_c = _get_number(section, "growth_c", where, default=1.0, strict_min=0.0)
        alpha = _get_number(section, "alpha", where, default=0.5)
        pi = _get_str(section, "pi", where)
        rate = _get_str(section, "f_t", where)
    else:
        # the second problem of a comparison shares g and the constants
        if "g" in section:
            raise ConfigError(f"'{where}.g' is not allowed: the comparison shares g")
        f = _get_str(section, "f", where, default=base["f"])
        g = base["g"]
        barrier = _get_str(section, "barrier", where, default=base["barrier"])
        terminal = _get_str(section, "terminal", where, default=base["terminal"])
        growth_c = base["growth_c"]
        alpha = base["alpha"]
        pi = _get_str(section, "pi", where, default=base["pi"])
        rate = _get_str(section, "f_t", where, default=base["f_t"])
    gen = GeneratorSpec(
        f=f, g=g, pi=pi, rate=rate, growth_C=growth_c, contraction_alpha=alpha
    )
    problem = ProblemSpec(
        grid=grid,
        dim_d=dim_d,
        marks=marks,
        generator=gen,
        barrier=barrier,
        terminal=terminal,
    )
    resolved = {
        "f": f,
        "g": g,
        "pi": pi,
        "f_t": rate,
        "barrier": barrier,
        "terminal": terminal,
        "growth_c": growth_c,
        "alpha": alpha,
    }
    return problem, resolved


def _parse_envelope(data, dim_d, num_marks):
    section = data.get("envelope")
    if section is None:
        return None, [1.0, 2.0, 4.0, 8.0, 16.0], {}
    section = _require_mapping(section, "envelope")
    _reject_unknown(section, ("box", "grid_points", "ns"), "envelope")
    box_raw = _require_mapping(section.get("box"), "envelope.box")
    if not box_raw:
        raise ConfigError("missing required key 'envelope.box'")
    box = {}
    for name, pair in box_raw.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"'envelope.box.{name}' must be a [lo, hi] pair")
        lo, hi = pair
        for v in (lo, hi):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"'envelope.box.{name}' must contain numbers")
        box[str(name)] = (float(lo), float(hi))
    grid_points = _get_int(section, "grid_points", "envelope", default=201, minimum=2)
    ns = _get_number_list(section, "ns", "envelope", [1.0, 2.0, 4.0, 8.0, 16.0])
    if any(n < 1.0 for n in ns):
        raise ConfigError("'envelope.ns' entries must be >= 1")
    # n is rewritten per sequence element; 1.0 here is a placeholder
    params = EnvelopeParams(n=max(ns), box=box, grid_points=grid_points)
    resolved = {
        "box": {k: [v[0], v[1]] for k, v in box.items()},
        "grid_points": grid_points,
        "ns": ns,
    }
    return params, ns, resolved


def _parse_ito(data):
    section = data.get("ito")
    if section is None:
        return None
    section = _require_mapping(section, "ito")
    allowed = ("alpha0", "beta", "gamma", "eta", "sigma", "expected_terminal_sq")
    _reject_unknown(section, allowed, "ito")
    out = {"alpha0": _get_number(section, "alpha0", "ito", default=0.0)}
    for key in ("beta", "gamma", "eta", "sigma"):
        value = section.get(key)
        if value is None:
            out[key] = None
        elif isinstance(value, bool):
            raise ConfigError(f"'ito.{key}' must be a number or expression string")
        elif isinstance(value, (int, float)):
            out[key] = float(value)
        elif isinstance(value, str):
            out[key] = value
        else:
            raise ConfigError(f"'ito.{key}' must be a number or expression string")
    if "expected_terminal_sq" in section:
        out["expected_terminal_sq"] = _get_number(
            section, "expected_terminal_sq", "ito"
        )
    else:
        out["expected_terminal_sq"] = None
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "configuration")
    top_allowed = (
        "grid",
        "dims",
        "marks",
        "drivers",
        "problem",
        "problem2",
        "scheme",
        "envelope",
        "bracketing",
        "ito",
        "pipeline",
        "outputs",
    )
    _reject_unknown(data, top_allowed, "configuration")

    grid_section = _require_mapping(data.get("grid"), "grid")
    _reject_unknown(grid_section, ("T", "N"), "grid")
    T = _get_number(grid_section, "T", "grid", strict_min=0.0)
    N = _get_int(grid_section, "N", "grid", minimum=1)
    grid = build_time_grid(T, N)

    dims_section = _require_mapping(data.get("dims"), "dims")
    _reject_unknown(dims_section, ("d",), "dims")
    dim_d = _get_int(dims_section, "d", "dims", default=1, minimum=1)

    marks = _parse_marks(data)

    drivers_section = _require_mapping(data.get("drivers"), "drivers")
    _reject_unknown(drivers_section, ("paths", "seed", "mode"), "drivers")
    paths = _get_int(drivers_section, "paths", "drivers", default=4096, minimum=1)
    seed = _get_int(drivers_section, "seed", "drivers", default=2024)
    mode = _get_str(
        drivers_section,
        "mode",
        "drivers",
        default="two-point",
        choices=("two-point", "gaussian", "enumerate"),
    )

    pipeline = _get_str(
        data, "pipeline", "configuration", default="solve", choices=PIPELINES
    )

    if "problem" not in data:
        raise ConfigError("missing required key 'configuration.problem'")
    problem, resolved_problem = _parse_problem(
        data["problem"], "problem", grid, dim_d, marks
    )
    problem2 = None
    resolved_problem2 = None
    if pipeline == "compare":
        if "problem2" not in data:
            raise ConfigError("pipeline 'compare' needs a 'problem2' section")
        problem2, resolved_problem2 = _parse_problem(
            data["problem2"], "problem2", grid, dim_d, marks, base=resolved_problem
        )
    elif "problem2" in data:
        raise ConfigError("'problem2' is only meaningful for the compare pipeline")

    scheme_section = _require_mapping(data.get("scheme"), "scheme")
    scheme_allowed = (
        "solver",
        "basis",
        "degree",
        "ridge",
        "max_condition",
        "tree_max_steps",
        "tree_max_states",
    )
    _reject_unknown(scheme_section, scheme_allowed, "scheme")
    solver_kind = _get_str(
        scheme_section, "solver", "scheme", default="tree", choices=("tree", "lsmc")
    )
    scheme = SchemeParams(
        basis=_get_str(
            scheme_section,
            "basis",
            "scheme",
            default="poly",
            choices=("poly", "indicator"),
        ),
        degree=_get_int(scheme_section, "degree", "scheme", default=2, minimum=1),
        ridge=_get_number(scheme_section, "ridge", "scheme", default=1e-8, minimum=0.0),
        max_condition=_get_number(
            scheme_section, "max_condition", "scheme", default=1e14, strict_min=0.0
        ),
    )
    tree_max_steps = _get_int(
        scheme_section, "tree_max_steps", "scheme", default=6, minimum=1
    )
    tree_max_states = _get_int(
        scheme_section, "tree_max_states", "scheme", default=4_000_000, minimum=1
    )

    envelope, envelope_ns, resolved_env = _parse_envelope(data, dim_d, marks.m)
    if pipeline in ("inf_sequence", "sup_sequence") and envelope is None:
        raise ConfigError(f"pipeline '{pipeline}' needs an 'envelope' section")

    bracketing_section = _require_mapping(data.get("bracketing"), "bracketing")
    _reject_unknown(bracketing_section, ("count",), "bracketing")
    bracketing_count = _get_int(
        bracketing_section, "count", "bracketing", default=5, minimum=1
    )
    if pipeline == "bracketing":
        if problem.generator.pi is None:
            raise ConfigError("pipeline 'bracketing' needs 'problem.pi'")
        if problem.generator.rate is None:
            raise ConfigError("pipeline 'bracketing' needs 'problem.f_t'")

    ito = _parse_ito(data)
    if pipeline == "ito_check" and ito is None:
        raise ConfigError("pipeline 'ito_check' needs an 'ito' section")

    outputs_section = _require_mapping(data.get("outputs"), "outputs")
    _reject_unknown(outputs_section, ("directory", "formats"), "outputs")
    out_dir = _get_str(outputs_section, "directory", "outputs", default="out")
    formats = outputs_section.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or any(
        f not in ("csv", "json") for f in formats
    ):
        raise ConfigError("'outputs.formats' must be a subset of [csv, json]")

    # module preconditions that couple sections; the tree constraints only
    # bind when the pipeline actually builds a tree
    uses_tree = (pipeline == "solve" and solver_kind == "tree") or pipeline in (
        "inf_sequence",
        "sup_sequence",
        "bracketing",
        "compare",
    )
    uses_scenarios = pipeline == "ito_check" or (
        pipeline == "solve" and solver_kind == "lsmc"
    )
    if uses_tree or (uses_scenarios and mode in ("two-point", "enumerate")):
        check_two_point_law(marks, grid.dt)
    if uses_tree and grid.N > tree_max_steps:
        raise ConfigError(
            f"tree depth N = {grid.N} exceeds scheme.tree_max_steps = "
            f"{tree_max_steps}"
        )

    canonical = {
        "pipeline": pipeline,
        "grid": {"T": T, "N": N},
        "dims": {"d": dim_d},
        "marks": {
            "values": [float(v) for v in marks.values],
            "intensities": [float(v) for v in marks.intensities],
        },
        "drivers": {"paths": paths, "seed": seed, "mode": mode},
        "problem": resolved_problem,
        "problem2": resolved_problem2,
        "scheme": {
            "solver": solver_kind,
            "basis": scheme.basis,
            "degree": scheme.degree,
            "ridge": scheme.ridge,
            "max_condition": scheme.max_condition,
            "tree_max_steps": tree_max_steps,
            "tree_max_states": tree_max_states,
        },
        "envelope": resolved_env or None,
        "bracketing": {"count": bracketing_count},
        "ito": ito,
        "outputs": {"directory": out_dir, "formats": list(formats)},
    }
    config_hash = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return ExperimentConfig(
        pipeline=pipeline,
        grid=grid,
        dim_d=dim_d,
        marks=marks,
        problem=problem,
        problem2=problem2,
        scheme=scheme,
        solver_kind=solver_kind,
        tree_max_steps=tree_max_steps,
        tree_max_states=tree_max_states,
        envelope=envelope,
        envelope_ns=envelope_ns,
        bracketing_count=bracketing_count,
        ito=ito,
        paths=paths,
        seed=seed,
        mode=mode,
        out_dir=out_dir,
        formats=list(formats),
        canonical=canonical,
        config_hash=config_hash,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}")
    if data is None:
        raise ConfigError("configuration file is empty")
    return config_from_dict(data)
