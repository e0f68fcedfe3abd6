"""Command line front end.

Three subcommands: ``run`` executes a configured pipeline and writes its
reports, ``validate-config`` checks a configuration without computing,
``grammar`` prints the expression and configuration grammars.  All file
writes are atomic (temp file plus rename) and all report content is
deterministic for a fixed configuration, independent of --threads; only
the manifest's timing fields vary between runs.

``run --threads K`` sets the threads of an envelope sequence
(``inf_sequence``, ``sup_sequence``): each envelope call of its backward
pass is cut into blocks of queries, and K threads, at most the CPUs
available to the process, share the blocks.  The other pipelines run on
one thread.

Exit codes: 0 when every validator in the pipeline passes, 1 when a
validator fails, 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    ItoComponents,
    compare_solutions,
    ito_residual_check,
    norm_report,
    skorokhod_check,
    tree_norm_report,
)
from .config import CONFIG_GRAMMAR, ExperimentConfig, load_config
from .drivers import enumerate_scenarios, simulate_scenarios
from .errors import RbdsdepError, SolverError
from .expr import GRAMMAR_TEXT
from .schemes import (
    MARGIN_TOL,
    run_bracketing_sequence,
    run_inf_envelope_sequence,
    run_sup_envelope_sequence,
    sequence_csv_rows,
)
from .solver import (
    lattice_csv_rows,
    solution_csv_rows,
    solve_lsmc,
    solve_tree_exact,
    tree_balance_residual,
)
from .table import CSV_BLOCK_ROWS, CsvTable

SKOROKHOD_TOL = 1e-10
BALANCE_TOL = 1e-9

#: report schemas past v1: lattice.csv v2 has one row per stored node,
#: one B column per lattice point when the tree's B axis is collapsed
SCHEMA_VERSIONS = {"lattice": 2}


@contextlib.contextmanager
def _atomic_open(path: str):
    """Binary file handle on a temp file that replaces path on success."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, table: CsvTable, schema: str, config_hash: str):
    """Stream a column table as CSV, CSV_BLOCK_ROWS rows at a time."""
    with _atomic_open(path) as fh:
        head = f"# schema={schema} config_hash={config_hash}\n{','.join(table.header)}\n"
        fh.write(head.encode())
        for start in range(0, table.row_count, CSV_BLOCK_ROWS):
            fh.write(table.encode(start, start + CSV_BLOCK_ROWS))


def _json_default(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _write_json(path: str, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    with _atomic_open(path) as fh:
        fh.write((text + "\n").encode())


def _scenarios_for(cfg: ExperimentConfig):
    if cfg.mode == "enumerate":
        return enumerate_scenarios(cfg.grid, cfg.dim_d, cfg.marks)
    return simulate_scenarios(
        cfg.grid, cfg.dim_d, cfg.marks, cfg.paths, cfg.seed, mode=cfg.mode
    )


def _solution_summary(sol, cfg: ExperimentConfig) -> dict:
    """Summary of an LSMC solution, from its paths."""
    norms = norm_report(sol, cfg.marks)
    sk = skorokhod_check(sol)
    return {
        "root_value": sol.root_value(),
        "root_se": sol.root_se(),
        "k_t_mean": float(sol.weights @ sol.K[:, -1]),
        "min_y": float(sol.Y.min()),
        "norms": norms,
        "skorokhod_max": float(sk.max()),
        "diagnostics": sol.diagnostics,
    }


def _tree_summary(sol) -> dict:
    """Summary of an exact tree solution, from its lattice slices."""
    return {
        "root_value": sol.root_value(),
        "k_t_mean": sol.k_moments[0],
        "min_y": min(float(y.min()) for y in sol.Y),
        "norms": tree_norm_report(sol),
        "skorokhod_max": max(
            float(np.abs((y - s) * dk).max()) for y, s, dk in zip(sol.Y, sol.S, sol.dK)
        ),
        "balance_residual": tree_balance_residual(sol),
    }


def _run_solve(cfg: ExperimentConfig, threads: int, verbose: bool):
    if cfg.solver_kind == "tree":
        sol = solve_tree_exact(cfg.problem, cfg.tree_model())
        summary, csv_name, csv_rows = _tree_summary(sol), "lattice.csv", lattice_csv_rows
        validators = {"balance_residual_ok": summary["balance_residual"] <= BALANCE_TOL}
    else:
        sol = solve_lsmc(cfg.problem, _scenarios_for(cfg), cfg.scheme)
        summary = _solution_summary(sol, cfg)
        csv_name, csv_rows, validators = "solution.csv", solution_csv_rows, {}
    try:
        sol.validate()
        validators["solution_valid"] = True
    except SolverError as exc:
        validators["solution_valid"] = False
        if verbose:
            print(f"solution validation failed: {exc}", file=sys.stderr)
    validators["skorokhod_ok"] = summary["skorokhod_max"] <= SKOROKHOD_TOL
    summary["validators"] = validators
    summary["solver"] = cfg.solver_kind
    files = {"summary.json": summary}
    if "csv" in cfg.formats:
        files[csv_name] = csv_rows(sol)
    return validators, summary, files


def _run_sequence(cfg: ExperimentConfig, threads: int, verbose: bool):
    if cfg.pipeline == "bracketing":
        run = run_bracketing_sequence(
            cfg.problem, ns_count=cfg.bracketing_count, tree=cfg.tree_model()
        )
    else:
        inf = cfg.pipeline == "inf_sequence"
        runner = run_inf_envelope_sequence if inf else run_sup_envelope_sequence
        run = runner(
            cfg.problem,
            cfg.envelope,
            ns=cfg.envelope_ns,
            tree=cfg.tree_model(),
            threads=threads,
        )
    validators = {"monotone_ok": bool(run.report["monotone_ok"])}
    if cfg.pipeline == "bracketing":
        validators["sandwich_ok"] = bool(run.report["sandwich_ok"])
    if "v_node_margin" in run.report:
        validators["upper_bound_ok"] = run.report["v_node_margin"] >= -MARGIN_TOL
    summary = {
        "mode": run.mode,
        "y0_series": run.y0_series,
        "report": run.report,
        "validators": validators,
    }
    files = {"sequence.json": summary}
    if "csv" in cfg.formats:
        files["sequence.csv"] = sequence_csv_rows(run)
    return validators, summary, files


def _run_compare(cfg: ExperimentConfig, threads: int, verbose: bool):
    report = compare_solutions(cfg.problem, cfg.problem2, tree=cfg.tree_model())
    validators = {"comparison_ok": report.verdict == "pass"}
    summary = {"report": report.as_dict(), "validators": validators}
    return validators, summary, {"compare.json": summary}


def _run_ito(cfg: ExperimentConfig, threads: int, verbose: bool):
    scen = _scenarios_for(cfg)
    spec = cfg.ito
    components = ItoComponents(
        alpha0=spec["alpha0"],
        beta=spec["beta"],
        gamma=spec["gamma"],
        eta=spec["eta"],
        sigma=spec["sigma"],
    )
    report = ito_residual_check(
        scen,
        components,
        marks=cfg.marks if cfg.marks.m else None,
        expected_terminal_sq=spec["expected_terminal_sq"],
    )
    validators = {
        "identity_ok": report.residual_max <= 1e-10,
        "martingales_ok": all(
            s["within_5se"] for s in report.martingale_stats.values()
        ),
    }
    if report.terminal_sq_within_5se is not None:
        validators["terminal_sq_ok"] = bool(report.terminal_sq_within_5se)
    summary = {"report": report.as_dict(), "validators": validators}
    return validators, summary, {"ito.json": summary}


_PIPELINE_RUNNERS = {
    "solve": _run_solve,
    "inf_sequence": _run_sequence,
    "sup_sequence": _run_sequence,
    "bracketing": _run_sequence,
    "compare": _run_compare,
    "ito_check": _run_ito,
}


def run_pipeline(cfg: ExperimentConfig, out_dir=None, threads=1, verbose=False):
    """Execute the configured pipeline and write reports into out_dir.

    Returns (all_validators_passed, summary_dict, written_paths).
    """
    start = time.monotonic()
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    validators, summary, files = _PIPELINE_RUNNERS[cfg.pipeline](
        cfg, threads, verbose
    )
    summary["pipeline"] = cfg.pipeline
    summary["config_hash"] = cfg.config_hash
    summary["seed"] = cfg.seed

    written = []
    for name, content in sorted(files.items()):
        if name.endswith(".json") and "json" not in cfg.formats:
            continue
        path = os.path.join(out_dir, name)
        stem = name.rsplit(".", 1)[0]
        schema = f"rbdsdep.{stem}.v{SCHEMA_VERSIONS.get(stem, 1)}"
        if name.endswith(".csv"):
            _write_csv(path, content, schema, cfg.config_hash)
        else:
            content = dict(content)
            content["schema"] = schema
            _write_json(path, content)
        written.append(path)
    manifest = {
        "schema": "rbdsdep.manifest.v1",
        "config_hash": cfg.config_hash,
        "pipeline": cfg.pipeline,
        "seed": cfg.seed,
        "threads": threads,
        "outputs": [os.path.basename(p) for p in written],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "rbdsdep": __version__,
        },
        "wall_time_s": round(time.monotonic() - start, 3),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json(manifest_path, manifest)
    written.append(manifest_path)
    return all(validators.values()), summary, written


def _print_validators(summary: dict, verbose: bool):
    for name, passed in summary["validators"].items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    if verbose:
        print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbdsdep",
        description="Reflected backward doubly stochastic systems with jumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured pipeline")
    p_run.add_argument("--config", required=True, help="YAML configuration file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="threads sharing the query blocks of an envelope sequence's envelope calls, "
        "at most the CPUs available",
    )
    p_run.add_argument("--verbose", action="store_true", help="print full reports")

    p_val = sub.add_parser("validate-config", help="validate without running")
    p_val.add_argument("config", help="YAML configuration file")

    sub.add_parser("grammar", help="print the expression and config grammars")

    args = parser.parse_args(argv)

    if args.command == "grammar":
        print(GRAMMAR_TEXT)
        print(CONFIG_GRAMMAR)
        return 0

    if args.command == "validate-config":
        try:
            cfg = load_config(args.config)
        except RbdsdepError as exc:
            print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
            return 2
        print(f"valid: pipeline={cfg.pipeline} hash={cfg.config_hash[:16]}")
        return 0

    try:
        cfg = load_config(args.config)
        if args.threads < 1:
            raise RbdsdepError(f"--threads must be >= 1, got {args.threads}")
        ok, summary, written = run_pipeline(
            cfg, out_dir=args.out, threads=args.threads, verbose=args.verbose
        )
    except RbdsdepError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    _print_validators(summary, args.verbose)
    for path in written:
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
