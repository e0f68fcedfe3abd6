"""Validators: comparison, Skorokhod, positivity, second-moment identity,
norm reports."""

import numpy as np
import pytest

from rbdsdep.analysis import (
    ItoComponents,
    compare_solutions,
    ito_residual_check,
    norm_report,
    positivity_check,
    skorokhod_check,
    tree_norm_report,
)
from rbdsdep.drivers import (
    MarkSpace,
    build_time_grid,
    empty_marks,
    simulate_scenarios,
)
from rbdsdep.errors import ConfigError, SolverError
from rbdsdep.generator import GeneratorSpec, check_rate_nonnegative
from rbdsdep.schemes import _successive_diffs
from rbdsdep.solver import ProblemSpec, solve_tree_exact

MARKS = MarkSpace(np.array([1.0]), np.array([0.4]))


def make_problem(
    f="0",
    g="0",
    barrier="-10",
    terminal="0",
    T=1.0,
    N=4,
    marks=None,
    **gen_kw,
):
    grid = build_time_grid(T, N)
    if marks is None:
        marks = empty_marks()
    return ProblemSpec(grid, 1, marks, GeneratorSpec(f=f, g=g, **gen_kw), barrier, terminal)


class TestCompare:
    def test_constant_drift_gap_integrates_to_horizon(self):
        p1 = make_problem(f="0")
        p2 = make_problem(f="1")
        report = compare_solutions(p1, p2)
        assert report.verdict == "pass"
        assert report.premises_ok()
        assert report.margin >= 0.0
        assert report.root_gap == pytest.approx(1.0, abs=1e-12)

    def test_terminal_shift_propagates_exactly(self):
        p1 = make_problem(terminal="w1")
        p2 = make_problem(terminal="w1 + 1")
        report = compare_solutions(p1, p2)
        assert report.verdict == "pass"
        assert report.margin == pytest.approx(1.0, abs=1e-12)
        assert report.root_gap == pytest.approx(1.0, abs=1e-12)

    def test_reversed_generator_marks_premises_not_met(self):
        report = compare_solutions(make_problem(f="1"), make_problem(f="0"))
        assert report.verdict == "premises-not-met"
        assert not report.premises_ok()
        failed = {c.name for c in report.premises if not c.passed}
        assert "generator_ordered" in failed

    def test_reversed_terminal_detected_on_terminal_states(self):
        p1 = make_problem(terminal="w1 + 1")
        p2 = make_problem(terminal="w1")
        report = compare_solutions(p1, p2)
        assert report.verdict == "premises-not-met"
        failed = {c.name for c in report.premises if not c.passed}
        assert "terminal_ordered" in failed

    def test_never_pass_with_failed_premise_even_if_ordered(self):
        # barriers violate S1 <= S2 but stay slack, so the solutions and the
        # margin are identical; the verdict still must not be "pass"
        p1 = make_problem(terminal="w1", barrier="-5")
        p2 = make_problem(terminal="w1", barrier="-10")
        report = compare_solutions(p1, p2)
        assert report.margin >= 0.0
        assert report.verdict == "premises-not-met"

    def test_g_must_match(self):
        p1 = make_problem(g="0.1*y")
        p2 = make_problem(g="0.2*y")
        with pytest.raises(ConfigError, match="fixes g"):
            compare_solutions(p1, p2)

    def test_grid_must_match(self):
        with pytest.raises(ConfigError, match="share the time grid"):
            compare_solutions(make_problem(N=4), make_problem(N=5))

    def test_marks_must_match(self):
        with pytest.raises(ConfigError, match="share the mark space"):
            compare_solutions(make_problem(marks=MARKS), make_problem())

    def test_report_serializes(self):
        report = compare_solutions(make_problem(f="0"), make_problem(f="1"))
        data = report.as_dict()
        assert data["verdict"] == "pass"
        assert {c["name"] for c in data["premises"]} == {
            "terminal_ordered",
            "barrier_ordered",
            "generator_ordered",
        }


class TestSkorokhod:
    def test_solver_output_is_exactly_zero(self):
        prob = make_problem(
            f="0.2*y - 0.3*z1 + 0.1*u1",
            g="0.1*y",
            barrier="-1.23 - 2.4*(t - 0.5)",
            terminal="w1 + 0.2*j1",
            T=0.5,
            N=3,
            marks=MARKS,
        )
        sol = solve_tree_exact(prob).to_solution_grid()
        assert skorokhod_check(sol).max() == 0.0

    def test_snell_contact_case(self):
        prob = make_problem(barrier="1 - t", terminal="0")
        sol = solve_tree_exact(prob).to_solution_grid()
        assert skorokhod_check(sol).max() == 0.0
        assert np.allclose(sol.terminal_k(), 1.0)

    def test_detects_injected_violation(self):
        prob = make_problem(terminal="3", marks=MARKS)
        sol = solve_tree_exact(prob).to_solution_grid()
        sol.K[0, 1:] += 1.0  # dK > 0 while Y - S = 13
        vals = skorokhod_check(sol)
        assert vals[0] > 1.0
        assert vals[1:].max() == 0.0


class TestPositivity:
    def test_zero_solution(self):
        prob = make_problem(pi="0", rate="0")
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        assert report.verdict == "pass"
        assert report.min_y == 0.0
        assert report.premises_ok()

    def test_signed_split_instance(self):
        prob = make_problem(
            f="-abs(z1) + 1",
            pi="-abs(z1)",
            rate="1",
            barrier="-2",
            terminal="1",
        )
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        assert report.verdict == "pass"
        assert report.min_y >= 1.0 - 1e-12

    def test_negative_terminal_fails_premise(self):
        prob = make_problem(
            f="-abs(z1) + 1",
            pi="-abs(z1)",
            rate="1",
            barrier="-2",
            terminal="-1",
        )
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        assert report.verdict == "premises-not-met"
        failed = {c.name for c in report.premises if not c.passed}
        assert "terminal_nonnegative" in failed

    def test_missing_split_fails_premise(self):
        prob = make_problem(terminal="1")
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        assert report.verdict == "premises-not-met"
        failed = {c.name for c in report.premises if not c.passed}
        assert failed == {"split_present"}

    def test_negative_rate_fails_premise(self):
        # f = pi + h holds, but h = f_t = -1 is negative on every grid time
        prob = make_problem(f="-abs(z1) - 1", pi="-abs(z1)", rate="-1", terminal="1")
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        assert report.verdict == "premises-not-met"
        failed = [c for c in report.premises if not c.passed]
        assert failed == [check_rate_nonnegative(prob.generator, prob.grid.times)]
        assert failed[0].name == "rate_nonnegative" and failed[0].worst == -1.0

    def test_split_mismatch_detected(self):
        # f != pi + h on the certification cloud
        prob = make_problem(f="1", pi="-abs(z1)", rate="1", terminal="1")
        sol = solve_tree_exact(prob).to_solution_grid()
        report = positivity_check(sol, prob)
        failed = {c.name for c in report.premises if not c.passed}
        assert "generator_is_pi_plus_h" in failed

    @pytest.mark.parametrize("name", ["Y", "Z", "U"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_solution_is_refused(self, name, bad):
        # no certificate cloud covers it: an inf radius would overflow the
        # sampler, and max() would pass over a NaN
        prob = make_problem(pi="0", rate="0", marks=MARKS)
        sol = solve_tree_exact(prob).to_solution_grid()
        getattr(sol, name)[0, 0] = bad
        with pytest.raises(SolverError, match=f"the solution has a non-finite {name}"):
            positivity_check(sol, prob)

    def test_report_serializes(self):
        prob = make_problem(pi="0", rate="0")
        sol = solve_tree_exact(prob).to_solution_grid()
        data = positivity_check(sol, prob).as_dict()
        assert data["verdict"] == "pass"
        assert data["min_y"] == 0.0


class TestItoIdentity:
    def test_brownian_case(self):
        grid = build_time_grid(1.0, 16)
        scen = simulate_scenarios(grid, 1, empty_marks(), 2000, seed=41)
        report = ito_residual_check(
            scen, ItoComponents(eta="1"), expected_terminal_sq=1.0
        )
        assert report.residual_max <= 1e-10
        assert report.terminal_sq_within_5se
        for stat in report.martingale_stats.values():
            assert stat["within_5se"]

    def test_compensated_poisson_case(self):
        grid = build_time_grid(1.0, 16)
        marks = MarkSpace(np.array([1.0]), np.array([2.0]))
        scen = simulate_scenarios(grid, 1, marks, 2000, seed=42)
        report = ito_residual_check(
            scen, ItoComponents(sigma="1"), marks=marks, expected_terminal_sq=2.0
        )
        assert report.residual_max <= 1e-10
        assert report.terminal_sq_within_5se

    def test_constant_is_degenerate(self):
        grid = build_time_grid(1.0, 8)
        scen = simulate_scenarios(grid, 1, empty_marks(), 64, seed=5)
        report = ito_residual_check(
            scen, ItoComponents(alpha0=2.5), expected_terminal_sq=6.25
        )
        assert report.residual_max == 0.0
        assert report.alpha_terminal_sq_mean == 6.25
        assert report.terminal_sq_within_5se

    def test_all_components_together(self):
        grid = build_time_grid(1.0, 16)
        marks = MarkSpace(np.array([1.0]), np.array([2.0]))
        scen = simulate_scenarios(grid, 1, marks, 2000, seed=77)
        comp = ItoComponents(
            alpha0=0.3,
            beta="0.1*t - 0.05",
            gamma="0.2 + 0.1*cos(t)",
            eta="1 + 0.5*sin(t)",
            sigma="0.3",
            dk=np.full((2000, 16), 0.002),
        )
        report = ito_residual_check(scen, comp, marks=marks)
        assert report.residual_max <= 1e-10
        for stat in report.martingale_stats.values():
            assert stat["within_5se"]
        keys = set(report.decomposition)
        assert keys == {
            "drift",
            "reflection",
            "w_martingale",
            "b_term",
            "jump_martingale",
            "square_F",
            "square_G",
        }

    def test_marks_required_with_jump_scenarios(self):
        grid = build_time_grid(1.0, 4)
        scen = simulate_scenarios(grid, 1, MARKS, 32, seed=1)
        with pytest.raises(ConfigError, match="marks are required"):
            ito_residual_check(scen, ItoComponents(sigma="1"))

    def test_component_shape_mismatch(self):
        grid = build_time_grid(1.0, 4)
        scen = simulate_scenarios(grid, 1, empty_marks(), 32, seed=1)
        with pytest.raises(ConfigError, match="component array has shape"):
            ito_residual_check(scen, ItoComponents(eta=np.zeros((32, 4))))
        with pytest.raises(ConfigError, match="dk has shape"):
            ito_residual_check(scen, ItoComponents(dk=np.zeros((32, 5))))

    def test_report_serializes(self):
        grid = build_time_grid(1.0, 8)
        scen = simulate_scenarios(grid, 1, empty_marks(), 64, seed=5)
        data = ito_residual_check(
            scen, ItoComponents(eta="1"), expected_terminal_sq=1.0
        ).as_dict()
        assert set(data["martingale_stats"]) == {"w", "b", "jump"}
        assert "expected_terminal_sq" in data


class TestNormReport:
    def test_zero_solution(self):
        prob = make_problem()
        sol = solve_tree_exact(prob).to_solution_grid()
        report = norm_report(sol, prob.marks)
        assert report == {
            "sup_y_sq": 0.0,
            "z_norm_sq": 0.0,
            "u_norm_sq": 0.0,
            "k_t_sq": 0.0,
        }

    def test_brownian_terminal_z_norm_is_horizon(self):
        prob = make_problem(terminal="w1")
        sol = solve_tree_exact(prob).to_solution_grid()
        report = norm_report(sol, prob.marks)
        # Z = 1 at every node, so the squared Z-norm integrates to T
        assert report["z_norm_sq"] == pytest.approx(1.0, abs=1e-12)
        assert report["u_norm_sq"] == 0.0
        assert report["k_t_sq"] == 0.0

    def test_nan_is_a_hard_failure(self):
        prob = make_problem(terminal="w1")
        sol = solve_tree_exact(prob).to_solution_grid()
        sol.Y[2, 1] = np.nan
        with pytest.raises(SolverError, match=r"NaN in Y at \(path, step\) \(2, 1\)"):
            norm_report(sol, prob.marks)


def _slice_case(d, m, binding):
    """A problem with g != 0, so values depend on the future B signs, and
    (when binding) a barrier that is hit at several steps, so K_T != 0."""
    marks = MarkSpace(np.array([1.0, 2.0][:m]), np.array([0.4, 0.7][:m]))
    N = {1: 5, 2: 4, 3: 3, 4: 3, 5: 2}[d + m]
    w = " + ".join(f"w{c + 1}" for c in range(d))
    u = "".join(f" + 0.1*u{k + 1}" for k in range(m))
    j = "".join(f" + 0.2*j{k + 1}" for k in range(m))
    barrier = f"{w} - 0.1 + 0.8*(0.5 - t)" if binding else "-10"
    gen = GeneratorSpec(
        f=f"0.2*y - 0.3*z1 + 0.05*max(y, 0){u}", g="0.1*y + 0.05*z1"
    )
    return ProblemSpec(build_time_grid(0.5, N), d, marks, gen, barrier, w + j)


SLICE_CASES = [(d, m) for d in (1, 2) for m in (0, 1, 2)]


class TestSliceFormsAgainstPaths:
    """The slice forms of the sequence report against the path forms, which
    stay in use (tree solve reports, LSMC) and serve as the oracle."""

    @pytest.mark.parametrize("d,m", SLICE_CASES)
    def test_norms_and_k_mean(self, d, m):
        binding = (d, m) != (1, 0)
        prob = _slice_case(d, m, binding)
        sol = solve_tree_exact(prob)
        paths = sol.to_solution_grid()
        k_mean = float(paths.weights @ paths.K[:, -1])
        assert (k_mean > 0.0) == binding
        want = norm_report(paths, prob.marks)
        got = tree_norm_report(sol)
        assert set(got) == set(want)
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=0, err_msg=key)
        np.testing.assert_allclose(sol.k_moments[0], k_mean, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d,m", SLICE_CASES)
    def test_successive_diffs(self, d, m):
        prob = _slice_case(d, m, binding=True)
        other = ProblemSpec(
            prob.grid, d, prob.marks,
            GeneratorSpec(f="0.5*y + 0.3*z1 + 0.1*max(y, 0)", g=prob.generator.g),
            prob.barrier, prob.terminal,
        )
        sols = [solve_tree_exact(prob), solve_tree_exact(other)]
        a, b = (s.to_solution_grid() for s in sols)
        dt = prob.grid.dt
        lam = prob.marks.intensities
        dz = ((b.Z[:, :-1] - a.Z[:, :-1]) ** 2).sum(axis=(1, 2)) * dt
        du = (lam * (b.U[:, :-1] - a.U[:, :-1]) ** 2).sum(axis=(1, 2)) * dt
        # the two solutions as the members of one pass's slices
        Z, U = (
            [np.stack(pair, axis=-2) for pair in zip(*(getattr(s, f) for s in sols))] for f in "ZU"
        )
        z_diffs, u_diffs = _successive_diffs(sols[0].tree, Z, U)
        assert z_diffs[0] > 0.0 and (u_diffs[0] > 0.0) == (m > 0)
        np.testing.assert_allclose(z_diffs, [a.weights @ dz], rtol=1e-12, atol=0)
        np.testing.assert_allclose(u_diffs, [a.weights @ du], rtol=1e-12, atol=0)
