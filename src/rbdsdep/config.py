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
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .drivers import (
    MAX_PATH_STEPS,
    MarkSpace,
    TimeGrid,
    build_time_grid,
    check_gaussian_law,
    check_two_point_law,
)
from .errors import ConfigError
from .expr import variables
from .generator import (
    DEFAULT_ENVELOPE_NS,
    MAX_ENVELOPE_GRID,
    EnvelopeParams,
    GeneratorSpec,
    check_envelope_ns,
    envelope_axes,
)
from .solver import ProblemSpec, SchemeParams, TreeModel, b_axis_for

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
drivers:     paths (integer >= 1, default 4096), seed (integer >= 0, default 2024),
             mode (two-point | gaussian | enumerate, default two-point);
             a sampled mode holds paths x (N + 1) <= 10000000 path-steps
problem:     f (expression, required), g (expression, default "0"),
             pi (expression, optional), f_t (expression over t, optional),
             barrier (expression over t and w*, required),
             terminal (expression over w* and j*, required),
             growth_c (number > 0, default 1.0),
             alpha (number in (0, 1), default 0.5)
problem2:    f / barrier / terminal / pi / f_t overrides (compare pipeline;
             g, growth_c and alpha are shared with problem and may not be set)
scheme:      solver (tree | lsmc, default tree),
             basis (poly | indicator, default poly),
             degree (integer >= 1, default 2),
             ridge (number >= 0, default 1e-8),
             max_condition (number > 0, default 1e14),
             tree_max_steps (integer >= 1, default 6),
             tree_max_states (integer >= 1, default 4000000; counts the
             stored tree nodes, (W, J) lattice points times B columns,
             summed over slices; a g that is the constant 0 stores one
             B column, and `0*y` does not: see rbdsdep.TreeModel)
envelope:    box (mapping axis -> [lo, hi]; axes y, z1..zd, u1..um),
             grid_points (integer >= 2, default 201; an envelope sequence
             holds grid_points ** (gridded axes) <= 1000000 grid points),
             ns (non-empty nondecreasing list of numbers >= 1,
             default [1, 2, 4, 8, 16])
bracketing:  count (integer >= 1, default 5)
ito:         alpha0 (number, default 0), beta / gamma / eta / sigma
             (expression over t, w*, j*, or number, optional),
             expected_terminal_sq (number, optional)
pipeline:    solve | inf_sequence | bracketing | sup_sequence | compare
             | ito_check (default solve)
outputs:     directory (string, default "out"),
             formats (subset of [csv, json], default both)

every number must be finite (.nan and .inf are refused); expressions use
the published operator grammar (`rbdsdep grammar`).
"""


_TOP = "configuration"


def _finite(value, name, wrong):
    """value as a float.  ConfigError "'name' <wrong>" unless it is an int
    or a float (a bool is neither), and "'name' must be finite" unless it is
    finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' {wrong}")
    if not math.isfinite(value):
        raise ConfigError(f"'{name}' must be finite, got {value!r}")
    return float(value)


class _Section:
    """Typed reads from one YAML mapping.

    Each read checks its value and records it under its key, so the record
    of a fully read section is its canonical form, defaults resolved.  A
    missing key takes the read's default (a fallback mapping, when given,
    comes first); a key given as None keeps None, which a read that needs
    a value reports as missing and a string read with a default or choices
    refuses.  close() rejects the keys nothing read, in this section and in
    every section read from it.
    """

    def __init__(self, raw, where, fallback=None):
        if raw is not None and not isinstance(raw, dict):
            raise ConfigError(f"{where} must be a mapping")
        self.raw = raw or {}
        self.where = where
        self.fallback = fallback or {}
        self.record = {}
        self._read = set()
        self._sections = []

    def _name(self, key):
        return f"{self.where}.{key}"

    def _value(self, key, default, required=True):
        value = self.raw.get(key, self.fallback.get(key, default))
        if value is None and required:
            raise ConfigError(f"missing required key '{self._name(key)}'")
        return value

    def _keep(self, key, value):
        self._read.add(key)
        self.record[key] = value
        return value

    def number(self, key, default=None, minimum=None, strict_min=None, optional=False):
        if optional and key not in self.raw:
            return self._keep(key, None)
        name = self._name(key)
        value = self._value(key, default)
        value = _finite(value, name, f"must be a number, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"'{name}' must be >= {minimum}, got {value}")
        if strict_min is not None and value <= strict_min:
            raise ConfigError(f"'{name}' must be > {strict_min}, got {value}")
        return self._keep(key, value)

    def integer(self, key, default=None, minimum=None):
        value = self._value(key, default)
        name = self._name(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{name}' must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"'{name}' must be >= {minimum}, got {value}")
        return self._keep(key, value)

    def string(self, key, default=None, choices=None, required=False):
        value = self._value(key, default, required)
        name = self._name(key)
        # None stands for "unset" only where unset is the default
        nullable = default is None and choices is None
        if not isinstance(value, str) and not (value is None and nullable):
            raise ConfigError(f"'{name}' must be a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"'{name}' must be one of {sorted(choices)}, got {value!r}"
            )
        return self._keep(key, value)

    def numbers(self, key, default):
        value, name = self._value(key, default, required=False), self._name(key)
        wrong = "must be a list of numbers"
        if not isinstance(value, list):
            raise ConfigError(f"'{name}' {wrong}")
        return self._keep(key, [_finite(v, name, wrong) for v in value])

    def number_or_expression(self, key):
        value = self._value(key, None, required=False)
        if value is not None and not isinstance(value, str):
            wrong = "must be a number or expression string"
            value = _finite(value, self._name(key), wrong)
        return self._keep(key, value)

    def interval(self, key):
        value, name = self.raw[key], self._name(key)
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"'{name}' must be a [lo, hi] pair")
        lo_hi = [_finite(v, name, "must contain numbers") for v in value]
        return tuple(self._keep(key, lo_hi))

    def subset(self, key, choices):
        value = self._value(key, list(choices), required=False)
        if not isinstance(value, list) or any(v not in choices for v in value):
            raise ConfigError(
                f"'{self._name(key)}' must be a subset of [{', '.join(choices)}]"
            )
        return self._keep(key, list(value))

    def section(self, key, optional=False, required=False, fallback=None):
        """The mapping under key, read as its own section; None, recorded
        as None, for an optional one that is absent or null."""
        raw = self._value(key, None, required)
        if optional and raw is None:
            return self._keep(key, None)
        where = key if self.where == _TOP else self._name(key)
        section = _Section(raw, where, fallback)
        self._sections.append(section)
        self._keep(key, section.record)
        return section

    def close(self):
        unread = sorted((k for k in self.raw if k not in self._read), key=str)
        if unread:
            raise ConfigError(f"unknown key '{self._name(unread[0])}'")
        for section in self._sections:
            section.close()


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
    tree: Optional[TreeModel]
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

    def tree_model(self) -> Optional[TreeModel]:
        """The pipeline's one lattice, shared by its runs; None when the
        pipeline builds no tree."""
        return self.tree


def _read_marks(s: _Section) -> MarkSpace:
    values = s.numbers("values", [])
    intensities = s.numbers("intensities", [])
    if len(values) != len(intensities):
        raise ConfigError("'marks.values' and 'marks.intensities' differ in length")
    return MarkSpace(np.array(values, dtype=float), np.array(intensities, dtype=float))


def _read_problem(s: _Section, grid, dim_d, marks) -> ProblemSpec:
    """A problem section.  The second problem of a comparison (its fallback
    is the first one's record) takes every key it leaves out from the first
    and shares g and the constants, which it may not set."""
    if not s.fallback:
        shared = (
            s.string("g", "0"),
            s.number("growth_c", 1.0, strict_min=0.0),
            s.number("alpha", 0.5),
        )
    elif "g" in s.raw:
        raise ConfigError(f"'{s.where}.g' is not allowed: the comparison shares g")
    else:
        keys = ("g", "growth_c", "alpha")
        shared = [s.record.setdefault(k, s.fallback[k]) for k in keys]
    g, growth_c, alpha = shared
    gen = GeneratorSpec(
        f=s.string("f", required=True),
        g=g,
        pi=s.string("pi"),
        rate=s.string("f_t"),
        growth_C=growth_c,
        contraction_alpha=alpha,
    )
    return ProblemSpec(
        grid=grid,
        dim_d=dim_d,
        marks=marks,
        generator=gen,
        barrier=s.string("barrier", required=True),
        terminal=s.string("terminal", required=True),
    )


def _read_envelope(s: _Section, dim_d, num_marks):
    box = s.section("box")
    if not box.raw:
        raise ConfigError(f"missing required key '{box.where}'")
    axes = ["y"] + [f"z{c}" for c in range(1, dim_d + 1)]
    axes += [f"u{k}" for k in range(1, num_marks + 1)]
    intervals = {name: box.interval(name) for name in box.raw if name in axes}
    grid_points = s.integer("grid_points", 201, minimum=2)
    ns = s.numbers("ns", list(DEFAULT_ENVELOPE_NS))
    check_envelope_ns(ns, "'envelope.ns'")
    if any(n < 1.0 for n in ns):
        raise ConfigError("'envelope.ns' entries must be >= 1")
    # n is rewritten per sequence element; the largest one stands in here
    return EnvelopeParams(n=max(ns), box=intervals, grid_points=grid_points), ns


def _read_ito(s: _Section) -> dict:
    s.number("alpha0", 0.0)
    for key in ("beta", "gamma", "eta", "sigma"):
        s.number_or_expression(key)
    s.number("expected_terminal_sq", optional=True)
    return s.record


def config_from_dict(data: dict) -> ExperimentConfig:
    top = _Section(data, _TOP)

    s = top.section("grid")
    grid = build_time_grid(s.number("T", strict_min=0.0), s.integer("N", minimum=1))
    dim_d = top.section("dims").integer("d", 1, minimum=1)
    marks = _read_marks(top.section("marks"))

    s = top.section("drivers")
    paths = s.integer("paths", 4096, minimum=1)
    seed = s.integer("seed", 2024, minimum=0)
    mode = s.string("mode", "two-point", choices=("two-point", "gaussian", "enumerate"))

    pipeline = top.string("pipeline", "solve", choices=PIPELINES)
    problem = _read_problem(top.section("problem", required=True), grid, dim_d, marks)
    compare = pipeline == "compare"
    if compare != ("problem2" in top.raw):
        raise ConfigError(
            "pipeline 'compare' needs a 'problem2' section"
            if compare
            else "'problem2' is only meaningful for the compare pipeline"
        )
    s = top.section("problem2", optional=not compare, fallback=top.record["problem"])
    problem2 = None if s is None else _read_problem(s, grid, dim_d, marks)

    s = top.section("scheme")
    solver_kind = s.string("solver", "tree", choices=("tree", "lsmc"))
    scheme = SchemeParams(
        basis=s.string("basis", "poly", choices=("poly", "indicator")),
        degree=s.integer("degree", 2, minimum=1),
        ridge=s.number("ridge", 1e-8, minimum=0.0),
        max_condition=s.number("max_condition", 1e14, strict_min=0.0),
    )
    tree_max_steps = s.integer("tree_max_steps", 6, minimum=1)
    tree_max_states = s.integer("tree_max_states", 4_000_000, minimum=1)

    s = top.section("envelope", optional=True)
    envelope, envelope_ns = None, list(DEFAULT_ENVELOPE_NS)
    if s is not None:
        envelope, envelope_ns = _read_envelope(s, dim_d, marks.m)
    if pipeline in ("inf_sequence", "sup_sequence"):
        if envelope is None:
            raise ConfigError(f"pipeline '{pipeline}' needs an 'envelope' section")
        # EnvelopeFunction's axis rule, so a box the run would refuse fails here
        f_names = variables(problem.generator.f)
        axes = len(envelope_axes(f_names, dim_d, marks.m, marks.intensities, envelope))
        points = envelope.grid_points**axes
        if points > MAX_ENVELOPE_GRID:
            raise ConfigError(
                f"'envelope.grid_points' = {envelope.grid_points} over {axes} gridded "
                f"axes is {points} grid points (> budget {MAX_ENVELOPE_GRID})"
            )

    bracketing_count = top.section("bracketing").integer("count", 5, minimum=1)
    if pipeline == "bracketing":
        if problem.generator.pi is None:
            raise ConfigError("pipeline 'bracketing' needs 'problem.pi'")
        if problem.generator.rate is None:
            raise ConfigError("pipeline 'bracketing' needs 'problem.f_t'")

    s = top.section("ito", optional=True)
    ito = None if s is None else _read_ito(s)
    if pipeline == "ito_check" and ito is None:
        raise ConfigError("pipeline 'ito_check' needs an 'ito' section")

    s = top.section("outputs")
    out_dir = s.string("directory", "out")
    formats = s.subset("formats", ("csv", "json"))
    top.close()

    # module preconditions that couple sections; the tree's depth, jump law
    # and budget bind only when the pipeline builds a tree (TreeModel)
    uses_tree = (pipeline == "solve" and solver_kind == "tree") or pipeline in (
        "inf_sequence", "sup_sequence", "bracketing", "compare"
    )
    uses_scenarios = pipeline == "ito_check" or (
        pipeline == "solve" and solver_kind == "lsmc"
    )
    if uses_scenarios and mode in ("two-point", "enumerate"):
        check_two_point_law(marks, grid.dt)
    if uses_scenarios and mode == "gaussian":
        check_gaussian_law(marks, grid.dt)
    # an enumeration's size is fixed by the grid: enumerate_scenarios holds
    # it to MAX_PATHS
    path_steps = paths * (grid.N + 1)
    if uses_scenarios and mode != "enumerate" and path_steps > MAX_PATH_STEPS:
        raise ConfigError(
            f"'drivers.paths' = {paths} over N + 1 = {grid.N + 1} time points is "
            f"{path_steps} path-steps (> budget {MAX_PATH_STEPS})"
        )
    tree = None
    if uses_tree:
        tree = TreeModel(grid, dim_d, marks, tree_max_steps, tree_max_states, b_axis_for(problem))
        tree.ensure_budget()

    canonical = top.record
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
        tree=tree,
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
