"""Acceptance gate: eleven instrument-level criteria, one per test.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and asserts its criterion at the stated tolerance and runtime budget.
Solutions produced by the first seven suites are registered so the
reflection invariants can be audited across every artifact at the end.
"""

import contextlib
import io
import json
import time
from dataclasses import replace

import numpy as np
import yaml

from rbdsdep.analysis import (
    ItoComponents,
    compare_solutions,
    ito_residual_check,
    positivity_check,
    skorokhod_check,
)
from rbdsdep.cli import main
from rbdsdep.drivers import (
    MarkSpace,
    build_time_grid,
    empty_marks,
    enumerate_scenarios,
    simulate_scenarios,
)
from rbdsdep.expr import EvalContext, evaluate, parse_expr
from rbdsdep.generator import EnvelopeFunction, EnvelopeParams, GeneratorSpec
from rbdsdep.schemes import (
    run_bracketing_sequence,
    run_inf_envelope_sequence,
    run_sup_envelope_sequence,
)
from rbdsdep.solver import (
    ProblemSpec,
    SchemeParams,
    TreeModel,
    solve_lsmc,
    solve_tree_exact,
)

REGISTRY = []


def _register(tag, *solutions):
    for sol in solutions:
        if sol is not None:
            REGISTRY.append((tag, sol))


def _paths(tree_solutions):
    """The validated path view of each tree solution."""
    return [ts.to_solution_grid().validate() for ts in tree_solutions]


def _report(num, description, passed, elapsed, budget=None):
    line = f"{'PASS' if passed else 'FAIL'} [{num:02d}] {description} ({elapsed:.2f}s)"
    print(line)
    assert passed, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


MARKS = MarkSpace(np.array([1.0]), np.array([0.4]))


def _bracketing_problem():
    grid = build_time_grid(0.25, 4)
    gen = GeneratorSpec(
        f="indicator_pos(y)", g="0", pi="0", rate="1", growth_C=1.0
    )
    return ProblemSpec(grid, 1, empty_marks(), gen, "-4", "w1 + 0.2")


def test_01_exact_tree_equals_saturated_regression():
    start = time.monotonic()
    rng = np.random.default_rng(4201)
    grid = build_time_grid(0.5, 3)
    scen = enumerate_scenarios(grid, 1, MARKS)
    worst = 0.0
    reflected = 0
    for _ in range(5):
        a = [float(v) for v in rng.uniform(-0.4, 0.4, 5)]
        b = [float(v) for v in rng.uniform(-0.2, 0.2, 2)]
        f = f"{a[0]} + {a[1]}*y + {a[2]}*z1 + {a[3]}*u1 + {a[4]}*max(y, 0)"
        g = f"{b[0]}*y + {b[1]}*z1"
        prob = ProblemSpec(
            grid, 1, MARKS, GeneratorSpec(f=f, g=g),
            "-1.23 - 2.4*(t - 0.5)", "w1 + 0.2*j1",
        )
        tree = solve_tree_exact(prob).to_solution_grid()
        lsmc = solve_lsmc(prob, scen, SchemeParams(basis="indicator"))
        worst = max(worst, abs(tree.root_value() - lsmc.root_value()))
        reflected += int(tree.terminal_k().max() > 0)
        _register("oracle-equivalence", tree, lsmc)
    elapsed = time.monotonic() - start
    _report(
        1,
        f"saturated regression reproduces the exact tree root "
        f"(worst |diff| {worst:.3g}, reflection active in {reflected}/5)",
        worst <= 1e-10 and reflected > 0,
        elapsed,
        budget=50.0,
    )


def test_02_closed_forms():
    start = time.monotonic()
    grid = build_time_grid(1.0, 4)

    const = ProblemSpec(
        grid, 1, MARKS, GeneratorSpec(f="0", g="0"), "-10", "3"
    )
    sol_a = solve_tree_exact(const).to_solution_grid()
    ok_a = (
        np.abs(sol_a.Y - 3.0).max() <= 1e-12
        and np.abs(sol_a.Z).max() <= 1e-12
        and np.abs(sol_a.U).max() <= 1e-12
        and np.abs(sol_a.K).max() <= 1e-12
    )

    drift = ProblemSpec(
        grid, 1, MARKS, GeneratorSpec(f="1", g="0"), "-10", "0"
    )
    sol_b = solve_tree_exact(drift).to_solution_grid()
    ok_b = abs(sol_b.root_value() - 1.0) <= 1e-12

    snell = ProblemSpec(
        grid, 1, MARKS, GeneratorSpec(f="0", g="0"), "1 - t", "0"
    )
    sol_c = solve_tree_exact(snell).to_solution_grid()
    ok_c = (
        abs(sol_c.root_value() - 1.0) <= 1e-10
        and np.abs(sol_c.terminal_k() - 1.0).max() <= 1e-10
    )

    _register("closed-forms", sol_a, sol_b, sol_c)
    elapsed = time.monotonic() - start
    _report(
        2,
        "constant, unit-drift, and decreasing-barrier closed forms",
        ok_a and ok_b and ok_c,
        elapsed,
        budget=5.0,
    )


def test_03_comparison_suite():
    start = time.monotonic()
    rng = np.random.default_rng(3101)
    grid = build_time_grid(0.5, 3)
    tree = TreeModel(grid, 1, MARKS)
    margins = []
    verdicts = []
    for k in range(20):
        c0, c1 = (float(v) for v in rng.uniform(-0.3, 0.3, 2))
        c = float(rng.uniform(0.05, 0.3))
        s_xi = float(rng.uniform(0.0, 0.5))
        s_bar = float(rng.uniform(0.0, 0.5))
        g = "0.2*y" if k % 2 else "0.0*y"
        f2 = f"{c0} + {c1}*y"
        f1 = f"{c0} + {c1}*y - {c}"
        xi2 = "w1 + 0.3*j1"
        xi1 = f"w1 + 0.3*j1 - {s_xi}"
        p2 = ProblemSpec(
            grid, 1, MARKS, GeneratorSpec(f=f2, g=g, growth_C=2.0), "-3", xi2
        )
        p1 = ProblemSpec(
            grid, 1, MARKS, GeneratorSpec(f=f1, g=g, growth_C=2.0),
            f"-3 - {s_bar}", xi1,
        )
        report = compare_solutions(p1, p2, tree=tree)
        margins.append(report.margin)
        verdicts.append(report.verdict)
        _register(
            "comparison",
            solve_tree_exact(p1, tree).to_solution_grid(),
            solve_tree_exact(p2, tree).to_solution_grid(),
        )
    elapsed = time.monotonic() - start
    worst = min(margins)
    _report(
        3,
        f"20 premise-certified ordered pairs keep node-wise order "
        f"(worst margin {worst:.3g})",
        worst >= -1e-12 and all(v == "pass" for v in verdicts),
        elapsed,
        budget=60.0,
    )


def test_04_envelope_catalog():
    start = time.monotonic()
    params = EnvelopeParams(n=1.0, box={"y": (-5.0, 5.0)}, grid_points=201)
    ys = np.linspace(-5.0, 5.0, 201)
    h = 10.0 / 200
    slack = 2 * (10.0 / 201)
    n_chain = (1, 2, 4, 8, 32)
    checks = []
    for fs in ("min(abs(y), 2)", "y*y", "indicator_pos(y)"):
        fvals = np.asarray(
            evaluate(parse_expr(fs), EvalContext(t=0.0, y=ys)), dtype=float
        )
        vals = {}
        for n in n_chain:
            env = EnvelopeFunction(fs, replace(params, n=float(n)), "inf")
            vals[n] = np.array([env(0.0, float(y)) for y in ys])
        for lo, hi in zip(n_chain, n_chain[1:]):
            checks.append((vals[lo] <= vals[hi] + 1e-12).all())
        checks.append((vals[n_chain[-1]] <= fvals + 1e-12).all())
        for n in n_chain:
            steps = np.abs(np.diff(vals[n]))
            checks.append((steps <= n * h + slack).all())
        if fs != "indicator_pos(y)":
            gap4 = (fvals - vals[4]).max()
            gap32 = (fvals - vals[32]).max()
            checks.append(gap32 <= gap4 + 1e-12)
    # closed-form cross checks at n = 4
    n = 4.0
    env_sq = EnvelopeFunction("y*y", replace(params, n=n), "inf")
    got_sq = np.array([env_sq(0.0, float(y)) for y in ys])
    want_sq = np.where(np.abs(ys) <= n / 2, ys**2, n * np.abs(ys) - n * n / 4)
    checks.append(np.abs(got_sq - want_sq).max() <= 1e-9)
    env_hv = EnvelopeFunction("indicator_pos(y)", replace(params, n=n), "inf")
    got_hv = np.array([env_hv(0.0, float(y)) for y in ys])
    want_hv = np.minimum(1.0, n * np.maximum(ys, 0.0))
    checks.append(np.abs(got_hv - want_hv).max() <= 1e-9)
    elapsed = time.monotonic() - start
    _report(
        4,
        "inf-envelope catalog: ordering, modulus, tightening gap, closed forms",
        all(checks),
        elapsed,
        budget=30.0,
    )


def test_05_monotone_sequence_below_upper_bound():
    start = time.monotonic()
    grid = build_time_grid(0.5, 4)
    marks = empty_marks()
    prob = ProblemSpec(
        grid, 1, marks, GeneratorSpec(f="sqrt(abs(y))", g="0", growth_C=2.0),
        "-6", "0.5*w1",
    )
    env = EnvelopeParams(n=16.0, box={"y": (-6.0, 6.0)}, grid_points=201)
    run = run_inf_envelope_sequence(
        prob, env, tree=TreeModel(grid, 1, marks), threads=2
    )
    frozen = [0.19943149, 0.23636779, 0.26867177, 0.31487611]
    series_ok = (
        run.index_set == [2.0, 4.0, 8.0, 16.0]
        and np.abs(np.array(run.y0_series) - frozen).max() <= 5e-9
        and (np.diff(run.y0_series) >= -1e-10).all()
    )
    v_ok = (
        abs(run.report["v_root"] - 2.0865927601691463) <= 1e-12
        and run.report["v_node_margin"] >= -1e-10
        and all(y0 <= run.report["v_root"] + 1e-12 for y0 in run.y0_series)
    )
    z_norms = [n["z_norm_sq"] for n in run.report["norms"]]
    u_norms = [n["u_norm_sq"] for n in run.report["norms"]]
    norms_ok = z_norms[-1] <= 2 * np.median(z_norms) and max(u_norms) == 0.0
    _register("monotone-sequence", *_paths(run.tree_solutions + [run.upper_tree]))
    elapsed = time.monotonic() - start
    _report(
        5,
        f"non-Lipschitz inf sequence rises under its bound "
        f"(y0 {run.y0_series[-1]:.6f} <= V {run.report['v_root']:.6f})",
        series_ok and v_ok and norms_ok,
        elapsed,
        budget=60.0,
    )


def test_06_bracketing_sandwich():
    start = time.monotonic()
    prob = _bracketing_problem()
    run = run_bracketing_sequence(
        prob, ns_count=5, tree=TreeModel(prob.grid, 1, prob.marks)
    )
    frozen = [0.32109375, 0.35234375, 0.38359375, 0.38359375, 0.38359375]
    series_ok = np.abs(np.array(run.y0_series) - frozen).max() <= 1e-10
    anchors_ok = (
        abs(run.report["lower_root"] - (-0.3166553497314453)) <= 1e-12
        and abs(run.report["upper_root"] - 0.762544822692871) <= 1e-12
    )
    gaps = np.abs(np.diff(run.y0_series))
    _register(
        "bracketing",
        *_paths(run.tree_solutions + [run.lower_anchor_tree, run.upper_anchor_tree]),
    )
    elapsed = time.monotonic() - start
    _report(
        6,
        f"discontinuous-generator iterates sandwiched between anchors "
        f"(worst node margin {run.report['sandwich_worst']:.3g})",
        series_ok
        and anchors_ok
        and run.report["sandwich_worst"] >= -1e-10
        and run.report["monotone_ok"]
        and gaps[-1] < gaps[0],
        elapsed,
        budget=60.0,
    )


def test_07_maximal_dominates_minimal():
    start = time.monotonic()
    prob = _bracketing_problem()
    tree = TreeModel(prob.grid, 1, prob.marks)
    minimal = run_bracketing_sequence(prob, ns_count=5, tree=tree).y0_series[-1]
    env = EnvelopeParams(n=16.0, box={"y": (-2.0, 2.0)}, grid_points=4001)
    sup = run_sup_envelope_sequence(prob, env, tree=tree)
    frozen = [0.4346946211, 0.4208668823, 0.4049995117, 0.4029882812, 0.399]
    series_ok = (
        np.abs(np.array(sup.y0_series) - frozen).max() <= 1e-9
        and sup.report["monotone_ok"]
    )
    maximal = sup.y0_series[-1]
    _register("maximal-sequence", *_paths(sup.tree_solutions))
    elapsed = time.monotonic() - start
    _report(
        7,
        f"maximal estimate {maximal:.6f} dominates minimal {minimal:.6f}",
        series_ok and maximal >= minimal - 1e-8,
        elapsed,
    )


def test_08_reflection_invariants_across_all_artifacts():
    start = time.monotonic()
    assert len(REGISTRY) >= 50, "earlier suites registered too few solutions"
    bad = []
    for tag, sol in REGISTRY:
        products = skorokhod_check(sol)
        dk = np.diff(sol.K, axis=1)
        if (
            products.max() != 0.0
            or (sol.K[:, 0] != 0.0).any()
            or (dk < 0.0).any()
        ):
            bad.append(tag)
    elapsed = time.monotonic() - start
    _report(
        8,
        f"bitwise complementarity and monotone K on {len(REGISTRY)} solutions",
        not bad,
        elapsed,
    )


def test_09_discrete_second_moment_identity():
    start = time.monotonic()
    grid = build_time_grid(1.0, 16)
    P = 10_000
    checks = []

    scen = simulate_scenarios(grid, 1, empty_marks(), P, seed=41, mode="gaussian")
    rep = ito_residual_check(scen, ItoComponents(eta="1"), expected_terminal_sq=1.0)
    checks.append(rep.residual_max <= 1e-10 and rep.terminal_sq_within_5se)

    marks = MarkSpace(np.array([1.0]), np.array([2.0]))
    scen = simulate_scenarios(grid, 1, marks, P, seed=42, mode="gaussian")
    rep = ito_residual_check(
        scen, ItoComponents(sigma="1"), marks=marks, expected_terminal_sq=2.0
    )
    checks.append(rep.residual_max <= 1e-10 and rep.terminal_sq_within_5se)

    scen = simulate_scenarios(grid, 1, marks, P, seed=77, mode="gaussian")
    comp = ItoComponents(
        alpha0=0.3,
        beta="0.1*t - 0.05",
        gamma="0.2 + 0.1*cos(t)",
        eta="1 + 0.5*sin(t)",
        sigma="0.3",
        dk=np.full((P, 16), 0.002),
    )
    rep = ito_residual_check(scen, comp, marks=marks)
    checks.append(
        rep.residual_max <= 1e-10
        and all(s["within_5se"] for s in rep.martingale_stats.values())
    )
    elapsed = time.monotonic() - start
    _report(
        9,
        "second-moment identity exact; moments match analytic values at P=1e4",
        all(checks),
        elapsed,
        budget=30.0,
    )


def test_10_positivity():
    start = time.monotonic()
    grid = build_time_grid(1.0, 4)

    p1 = ProblemSpec(
        grid, 1, empty_marks(),
        GeneratorSpec(f="-abs(z1) + 1", g="0", pi="-abs(z1)", rate="1"),
        "-2", "1",
    )
    s1 = solve_tree_exact(p1).to_solution_grid()
    r1 = positivity_check(s1, p1)

    marks = MarkSpace(np.array([1.0]), np.array([2.0]))
    p2 = ProblemSpec(
        grid, 1, marks,
        GeneratorSpec(f="-abs(u1) + 0.5", g="0", pi="-abs(u1)", rate="0.5"),
        "-3", "pos(w1)",
    )
    s2 = solve_tree_exact(p2).to_solution_grid()
    r2 = positivity_check(s2, p2)

    elapsed = time.monotonic() - start
    _report(
        10,
        f"premise-certified instances stay nonnegative "
        f"(min Y {min(r1.min_y, r2.min_y):.3g})",
        r1.verdict == "pass"
        and r2.verdict == "pass"
        and min(r1.min_y, r2.min_y) >= -1e-10,
        elapsed,
    )


def test_11_reproducible_cli_output(tmp_path):
    start = time.monotonic()
    config = {
        "grid": {"T": 0.5, "N": 4},
        "problem": {
            "f": "sqrt(abs(y))",
            "growth_c": 2.0,
            "barrier": "-6",
            "terminal": "0.5*w1",
        },
        "pipeline": "inf_sequence",
        "envelope": {"box": {"y": [-6.0, 6.0]}, "grid_points": 201},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    outputs = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for threads in (1, 2, 8):
            out_dir = tmp_path / f"threads{threads}"
            code = main(
                ["run", "--config", str(path), "--out", str(out_dir),
                 "--threads", str(threads)]
            )
            assert code == 0
            outputs[threads] = (out_dir / "sequence.csv").read_bytes()
        rerun_dir = tmp_path / "rerun"
        main(["run", "--config", str(path), "--out", str(rerun_dir),
              "--threads", "1"])
    rerun = (rerun_dir / "sequence.csv").read_bytes()
    identical = (
        outputs[1] == outputs[2] == outputs[8] == rerun
    )
    # sanity: the summary carries the config hash it was produced from
    summary = json.loads((rerun_dir / "sequence.json").read_text())
    elapsed = time.monotonic() - start
    _report(
        11,
        "CSV output byte-identical across 1/2/8 threads and reruns",
        identical and len(summary["config_hash"]) == 64,
        elapsed,
    )
