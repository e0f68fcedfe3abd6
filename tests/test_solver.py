"""Exact tree solver, Monte Carlo solver and their shared plumbing."""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rbdsdep.analysis import compare_solutions, tree_norm_report
from rbdsdep.drivers import (
    MarkSpace,
    ScenarioSet,
    _jump_pattern_probs,
    _jump_patterns,
    _sign_patterns,
    build_time_grid,
    empty_marks,
    enumerate_scenarios,
    simulate_scenarios,
)
from rbdsdep.errors import ConfigError, SolverError
from rbdsdep.generator import EnvelopeParams, GeneratorSpec
from rbdsdep import solver
from rbdsdep.schemes import run_bracketing_sequence, run_inf_envelope_sequence
from rbdsdep.solver import (
    B_AXES,
    ProblemSpec,
    SchemeParams,
    TreeModel,
    _coefficient_values,
    extract_zu,
    jump_variances,
    reflect_step,
    solution_csv_rows,
    solve_lsmc,
    solve_tree_exact,
    tree_balance_residual,
)

MARKS = MarkSpace(np.array([1.0]), np.array([0.4]))


def make_problem(
    f="0",
    g="0",
    barrier="-10",
    terminal="0",
    T=1.0,
    N=4,
    dim_d=1,
    marks=None,
    **gen_kw,
):
    grid = build_time_grid(T, N)
    if marks is None:
        marks = empty_marks()
    gen = GeneratorSpec(f=f, g=g, **gen_kw)
    return ProblemSpec(grid, dim_d, marks, gen, barrier, terminal)


class TestProblemSpec:
    def test_barrier_variables_restricted(self):
        with pytest.raises(ConfigError, match="barrier must not reference"):
            make_problem(barrier="y + t")

    def test_terminal_variables_restricted(self):
        with pytest.raises(ConfigError, match="terminal condition must not"):
            make_problem(terminal="t")

    def test_out_of_range_components_rejected(self):
        with pytest.raises(ConfigError, match="'z2' but d = 1"):
            make_problem(f="z2")
        with pytest.raises(ConfigError, match="'u2' but m = 1"):
            make_problem(f="u2", marks=MARKS)
        with pytest.raises(ConfigError, match="'u1' but m = 0"):
            make_problem(f="u1")

    def test_dim_d_positive(self):
        with pytest.raises(ConfigError, match="dim_d"):
            make_problem(dim_d=0)

    def test_barrier_above_terminal_is_ill_posed(self):
        prob = make_problem(barrier="1 + t", terminal="0")
        with pytest.raises(ConfigError, match="ill-posed"):
            solve_tree_exact(prob)

    def test_barrier_above_terminal_rejected_by_lsmc_too(self):
        prob = make_problem(barrier="1 + t", terminal="0")
        scen = simulate_scenarios(prob.grid, 1, empty_marks(), 100, seed=1)
        with pytest.raises(ConfigError, match="ill-posed"):
            solve_lsmc(prob, scen)


class TestReflectStep:
    def test_no_contact(self):
        y, dk = reflect_step(np.array([2.0]), np.array([1.0]))
        assert y[0] == 2.0 and dk[0] == 0.0

    def test_pushed_to_barrier(self):
        y, dk = reflect_step(np.array([0.5]), np.array([1.0]))
        assert y[0] == 1.0 and dk[0] == 0.5

    def test_touching_no_push(self):
        y, dk = reflect_step(np.array([1.0]), np.array([1.0]))
        assert y[0] == 1.0 and dk[0] == 0.0

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=-1e6, max_value=1e6),
        ),
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_complementarity_is_bitwise(self, y_tilde, s0, slope):
        s = s0 + slope * np.arange(y_tilde.size)
        y, dk = reflect_step(y_tilde, s)
        assert (dk >= 0.0).all()
        assert (y >= s).all()
        # either no push (dk exactly 0) or y exactly on the barrier
        assert np.all(((y - s) * dk) == 0.0)


class TestJumpVariances:
    def test_two_point_bernoulli_variance(self):
        got = jump_variances(MARKS, 0.5, "two-point")
        assert got[0] == pytest.approx(0.2 * 0.8)

    def test_gaussian_poisson_variance(self):
        got = jump_variances(MARKS, 0.5, "gaussian")
        assert got[0] == pytest.approx(0.2)


class TestExtractZU:
    def test_constant_value_projects_to_zero_mean(self):
        dt = 0.25
        dw = np.array([[np.sqrt(dt)], [-np.sqrt(dt)]])
        counts = np.array([[1.0], [0.0]])
        lam_dt = np.array([0.2])
        var = lam_dt * (1 - lam_dt)
        z, u = extract_zu(np.array([3.0, 3.0]), dw, counts, lam_dt, dt, var)
        # conditional means over the exact law vanish
        assert 0.5 * (z[0, 0] + z[1, 0]) == pytest.approx(0.0)
        assert 0.2 * u[0, 0] + 0.8 * u[1, 0] == pytest.approx(0.0)

    def test_brownian_increment_projects_to_one(self):
        dt = 0.25
        dw = np.array([[np.sqrt(dt)], [-np.sqrt(dt)]])
        counts = np.zeros((2, 1))
        z, _ = extract_zu(dw[:, 0], dw, counts, np.array([0.2]), dt, np.array([0.16]))
        assert 0.5 * (z[0, 0] + z[1, 0]) == pytest.approx(1.0)

    def test_compensated_jump_projects_to_one(self):
        dt = 1.0
        lam_dt = np.array([0.2])
        var = lam_dt * (1 - lam_dt)
        counts = np.array([[1.0], [0.0]])
        y_next = counts[:, 0] - lam_dt[0]
        dw = np.zeros((2, 1))
        _, u = extract_zu(y_next, dw, counts, lam_dt, dt, var)
        mean_u = 0.2 * u[0, 0] + 0.8 * u[1, 0]
        assert mean_u == pytest.approx(1.0)

    def test_zero_compensator_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="zero compensator"):
            _, u = extract_zu(
                np.array([1.0]),
                np.zeros((1, 1)),
                np.ones((1, 1)),
                np.array([0.0]),
                0.5,
                np.array([0.0]),
            )
        assert u[0, 0] == 0.0


class TestTreeModel:
    def test_depth_guard(self):
        grid = build_time_grid(1.0, 7)
        with pytest.raises(ConfigError, match="exceeds max_steps"):
            TreeModel(grid, 1, empty_marks())

    def test_depth_guard_can_be_raised(self):
        grid = build_time_grid(1.0, 7)
        TreeModel(grid, 1, empty_marks(), max_steps=8)

    def test_state_counts(self):
        grid = build_time_grid(1.0, 3)
        tree = TreeModel(grid, 1, MARKS)
        # slice i holds (i+1) W counts * (i+1) jump counts * 2^(3-i) B signs
        assert [tree.slice_states(i) for i in range(4)] == [8, 16, 18, 16]
        assert tree.total_states() == 58

    def test_budget_guard(self):
        grid = build_time_grid(1.0, 4)
        prob = make_problem(N=4, marks=MARKS)
        tree = TreeModel(grid, 1, MARKS, max_states=100)
        with pytest.raises(SolverError, match="tree budget exceeded"):
            solve_tree_exact(prob, tree)

    def test_heavy_jump_law_rejected(self):
        grid = build_time_grid(1.0, 2)
        heavy = MarkSpace(np.array([1.0]), np.array([2.5]))
        with pytest.raises(ConfigError, match="total_intensity"):
            TreeModel(grid, 1, heavy)

    def test_tree_of_another_dimension_is_rejected(self):
        # 120 lattice nodes fit this budget, but the d=3 one-mark problem has 4506
        prob = make_problem(N=5, dim_d=3, marks=MARKS)
        tree = TreeModel(prob.grid, 1, empty_marks(), max_states=200)
        with pytest.raises(SolverError, match="tree has d = 1 but the problem has d = 3"):
            solve_tree_exact(prob, tree)

    def test_tree_of_other_intensities_is_rejected(self):
        prob = make_problem(N=3, marks=MARKS)
        other = MarkSpace(np.array([1.0]), np.array([0.5]))
        with pytest.raises(SolverError, match="intensities"):
            solve_tree_exact(prob, TreeModel(prob.grid, 1, other))
        with pytest.raises(SolverError, match=r"intensities \[\] differ"):
            solve_tree_exact(prob, TreeModel(prob.grid, 1, empty_marks()))

    def test_histories_are_built_only_within_the_budget(self):
        tree = TreeModel(build_time_grid(1.0, 4), 1, MARKS, max_states=100)
        for read in (lambda: tree.context(0), lambda: tree.state_probs(0)):
            with pytest.raises(SolverError, match="tree budget exceeded"):
                read()

    def test_built_histories_do_not_enter_equality(self):
        prob = make_problem(N=3, marks=MARKS)
        built = solve_tree_exact(prob, TreeModel(prob.grid, 1, MARKS)).tree
        assert built == TreeModel(prob.grid, 1, MARKS)
        assert built != TreeModel(prob.grid, 1, MARKS, max_states=10)

    def test_threads_sharing_one_tree_get_the_serial_answer(self):
        prob = make_problem(**MIXED)
        ref = solve_tree_exact(prob)
        tree = TreeModel(prob.grid, 1, MARKS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(solve_tree_exact, prob, tree) for _ in range(16)]
                sols = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for sol in sols:
            for name in ("Y", "Z", "U", "dK", "S"):
                for a, b in zip(getattr(sol, name), getattr(ref, name)):
                    assert a.tobytes() == b.tobytes()


class TestTreeClosedForms:
    def test_constant_terminal(self):
        prob = make_problem(terminal="3", marks=MARKS)
        sol = solve_tree_exact(prob)
        assert sol.root_value() == pytest.approx(3.0, abs=1e-14)
        for i in range(5):
            assert np.allclose(sol.Y[i], 3.0, atol=1e-14)
            assert np.allclose(sol.Z[i], 0.0, atol=1e-14)
            assert np.allclose(sol.U[i], 0.0, atol=1e-14)
        for i in range(4):
            assert np.allclose(sol.dK[i], 0.0)

    def test_unit_drift(self):
        prob = make_problem(f="1", terminal="0")
        sol = solve_tree_exact(prob)
        assert sol.root_value() == pytest.approx(1.0, abs=1e-14)
        for i, t in enumerate(prob.grid.times):
            assert np.allclose(sol.Y[i], 1.0 - t, atol=1e-14)

    def test_snell_envelope_of_decreasing_obstacle(self):
        prob = make_problem(barrier="1 - t", terminal="0")
        sol = solve_tree_exact(prob)
        assert sol.root_value() == pytest.approx(1.0, abs=1e-14)
        for i, t in enumerate(prob.grid.times):
            assert np.allclose(sol.Y[i], 1.0 - t, atol=1e-14)
        grid_sol = sol.to_solution_grid()
        assert np.allclose(grid_sol.terminal_k(), 1.0, atol=1e-14)

    def test_brownian_terminal_gives_unit_z(self):
        prob = make_problem(terminal="w1")
        sol = solve_tree_exact(prob)
        assert sol.root_value() == pytest.approx(0.0, abs=1e-14)
        for i in range(4):
            assert np.allclose(sol.Z[i], 1.0, atol=1e-13)

    def test_compensated_jump_terminal_gives_unit_u(self):
        lam = 0.8
        marks = MarkSpace(np.array([1.0]), np.array([lam]))
        prob = make_problem(terminal="j1 - 0.8", T=1.0, N=2, marks=marks)
        sol = solve_tree_exact(prob)
        assert sol.root_value() == pytest.approx(0.0, abs=1e-14)
        for i in range(2):
            assert np.allclose(sol.U[i], 1.0, atol=1e-13)
            assert np.allclose(sol.Z[i], 0.0, atol=1e-13)


MIXED = dict(
    f="0.2*y - 0.3*z1 + 0.1*u1 + 0.05*max(y, 0)",
    g="0.1*y + 0.05*z1",
    barrier="-1.23 - 2.4*(t - 0.5)",
    terminal="w1 + 0.2*j1",
    T=0.5,
    N=3,
    marks=MARKS,
)


class ExponentialTree(TreeModel):
    """The exhaustive two-point tree that the lattice recombines, kept as
    the reference for its node layout and backward step.

    Slice i holds arrays shaped (2**(d*i), 2**(m*i), 2**(N-i)): the W-sign
    and jump histories of steps 0..i-1 and the B signs of steps i..N-1,
    each index reading its per-step patterns as digits, step 0 the most
    significant, + and no jump as digit 0.  Every history is its own node,
    so nothing recombines; ``solve_tree_exact`` and the ``TreeSolution``
    checks, norms and path views run on it unchanged.
    """

    @property
    def node_axes(self):
        return 3

    def slice_shape(self, i):
        return 2 ** (self.dim_d * i), 2 ** (self.marks.m * i), 2 ** (self.grid.N - i)

    @cached_property
    def _steps(self):
        """One step's dW patterns (2**d, d), jump patterns (2**m, m) and
        jump-pattern probabilities (2**m,)."""
        self.ensure_budget()
        dt = self.grid.dt
        return (
            _sign_patterns(self.dim_d) * np.sqrt(dt),
            _jump_patterns(self.marks.m),
            _jump_pattern_probs(self.marks, dt),
        )

    @cached_property
    def _histories(self):
        """Per slice i: the W values (2**(d*i), d), the jump totals
        (2**(m*i), m) and the jump-history probabilities (2**(m*i),)."""
        w_step, j_step, pj = self._steps
        d, m = self.dim_d, self.marks.m
        w_vals, j_vals, j_prob = [np.zeros((1, d))], [np.zeros((1, m))], [np.ones(1)]
        for i in range(self.grid.N):
            w_vals.append((w_vals[i][:, None] + w_step).reshape(-1, d))
            j_vals.append((j_vals[i][:, None] + j_step).reshape(2 ** (m * (i + 1)), m))
            j_prob.append((j_prob[i][:, None] * pj).reshape(-1))
        return w_vals, j_vals, j_prob

    def context(self, i):
        w_vals, j_vals, _ = self._histories
        return w_vals[i][:, None, None, :], j_vals[i][None, :, None, :]

    def children(self, i, values):
        """Slice-(i+1) values with the step-i W and jump branches split out:
        shape (2**(d*i), 2**d, 2**(m*i), 2**m, 2**(N-i-1)) + trailing axes."""
        nw, nj = 2**self.dim_d, 2**self.marks.m
        split = (nw**i, nw, nj**i, nj, 2 ** (self.grid.N - i - 1))
        return values.reshape(split + values.shape[3:])

    def expectation(self, i, y1, z1, u1, f_fn, g_fn):
        """As ``TreeModel.expectation``, a trailing member axis included."""
        t_next, dt = self.grid.times[i + 1], self.grid.dt
        ctx = self.context(i + 1)
        if y1.ndim > self.node_axes:
            ctx = tuple(c[..., None, :] for c in ctx)
        f1, g1 = _coefficient_values((f_fn, g_fn), t_next, y1, z1, u1, *ctx)
        _, _, pj = self._steps
        nw = 2**self.dim_d
        EA = np.einsum("awbjn...,j->abn...", self.children(i, y1 + f1 * dt), pj) / nw
        Eg = np.einsum("awbjn...,j->abn...", self.children(i, g1), pj) / nw
        g_db = np.sqrt(dt) * Eg
        return np.concatenate((EA + g_db, EA - g_db), axis=2)

    def integrands(self, i, y1):
        w_step, j_step, pj = self._steps
        dt, nw = self.grid.dt, 2**self.dim_d
        Yr = self.children(i, y1)
        Zc = np.einsum("awbjn...,wc,j->abn...c", Yr, w_step, pj) / (nw * dt)
        ju_weights = pj[:, None] * (j_step - self.marks.intensities * dt)
        Uc = np.einsum("awbjn...,jk->abn...k", Yr, ju_weights) / nw
        if self.marks.m:
            Uc = Uc / jump_variances(self.marks, dt, "two-point")
        return np.concatenate((Zc, Zc), axis=2), np.concatenate((Uc, Uc), axis=2)

    def state_probs(self, i):
        pw = 2.0 ** (-self.dim_d * i)
        pb = 0.5 ** (self.grid.N - i)
        j_prob = self._histories[2][i]
        return np.broadcast_to(pw * pb * j_prob[None, :, None], self.slice_shape(i))

    def step_mean(self, i, values):
        """E_i of slice-(i+1) values, with any trailing axes: the mean over
        each node's W and jump children, the same for both step-i B signs."""
        _, _, pj = self._steps
        mean = np.einsum("awbjn...,j->abn...", self.children(i, values), pj) / 2**self.dim_d
        return np.concatenate((mean, mean), axis=2)

    def path_nodes(self, scen):
        """A path's node on slice i: its W and jump histories of steps
        0..i-1 and its B signs of steps i..N-1, each read as digits, step 0
        (or i) the most significant, + and no jump as digit 0."""
        N, d, m = self.grid.N, self.dim_d, self.marks.m
        w = (scen.dW < 0).astype(int) @ 2 ** np.arange(d - 1, -1, -1)
        j = (scen.jump_counts > 0).astype(int) @ 2 ** np.arange(m - 1, -1, -1)
        b = (scen.dB < 0).astype(int)

        def digits(per_step, base):
            return per_step @ base ** np.arange(per_step.shape[1] - 1, -1, -1)

        return [
            (digits(w[:, :i], 2**d), digits(j[:, :i], 2**m), digits(b[:, i:], 2))
            for i in range(N + 1)
        ]


TWO_MARKS = MarkSpace(np.array([1.0, 2.0]), np.array([0.4, 0.7]))


def oracle_case(d, m, with_g, N=3):
    """A problem on d W components and m marks whose barrier binds."""
    w = " + ".join(f"w{c + 1}" for c in range(d))
    u = "".join(f" + 0.1*u{k + 1}" for k in range(m))
    j = "".join(f" + 0.2*j{k + 1}" for k in range(m))
    return make_problem(
        f=f"0.2*y - 0.3*z1 + 0.05*max(y, 0){u}",
        g="0.1*y + 0.05*z1" if with_g else "0",
        barrier=f"{w} - 0.1 + 0.8*(0.5 - t)",
        terminal=w + j,
        T=0.5,
        N=N,
        dim_d=d,
        marks=(empty_marks(), MARKS, TWO_MARKS)[m],
    )


def solve_both(prob, **kw):
    """The lattice and the exponential-tree solutions of one problem."""
    args = (prob.grid, prob.dim_d, prob.marks)
    return (
        solve_tree_exact(prob, TreeModel(*args), **kw),
        solve_tree_exact(prob, ExponentialTree(*args), **kw),
    )


ORACLE_CASES = [(d, m, g) for d in (1, 2) for m in (0, 1, 2) for g in (False, True)]


class TestLatticeAgainstTheExponentialTree:
    """The recombining lattice against the exponential tree: path by path,
    in the norms and K moments, and through whole pipelines."""

    @pytest.mark.parametrize("d,m,with_g", ORACLE_CASES)
    def test_paths_agree(self, d, m, with_g):
        lattice, tree = solve_both(oracle_case(d, m, with_g))
        assert lattice.tree.total_states() < tree.tree.total_states()
        a, b = lattice.to_solution_grid(), tree.to_solution_grid()
        assert a.terminal_k().max() > 0.0
        for name in ("Y", "Z", "U", "K", "S", "weights"):
            np.testing.assert_allclose(
                getattr(a, name), getattr(b, name), rtol=0, atol=1e-12, err_msg=name
            )

    @pytest.mark.parametrize("d,m,with_g", ORACLE_CASES)
    def test_slice_reports_agree(self, d, m, with_g):
        lattice, tree = solve_both(oracle_case(d, m, with_g))
        assert tree_balance_residual(lattice) <= 1e-12
        want, got = tree_norm_report(tree), tree_norm_report(lattice)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
        np.testing.assert_allclose(lattice.k_moments, tree.k_moments, rtol=1e-12)

    def test_bracketing_run_agrees(self):
        prob = make_problem(
            f="indicator_pos(y)", g="0.1*y", pi="0", rate="1", barrier="w1 - 0.2",
            terminal="w1 + 0.2", T=0.5, N=4, marks=MARKS,
        )
        runs = [
            run_bracketing_sequence(prob, ns_count=3, tree=cls(prob.grid, 1, MARKS))
            for cls in (TreeModel, ExponentialTree)
        ]
        self.assert_runs_agree(*runs, ("pair_margins", "upper_margins", "sandwich_worst"))
        assert runs[0].report["lower_root"] == pytest.approx(runs[1].report["lower_root"], abs=1e-12)

    def test_inf_sequence_run_agrees(self):
        prob = make_problem(f="min(abs(y), 2)", barrier="w1 - 0.3", terminal="w1", T=0.5, N=3, marks=MARKS)
        env = EnvelopeParams(n=1.0, box={"y": (-5.0, 5.0)}, grid_points=201)
        runs = [
            run_inf_envelope_sequence(prob, env, ns=[1, 2, 4], tree=cls(prob.grid, 1, MARKS))
            for cls in (TreeModel, ExponentialTree)
        ]
        self.assert_runs_agree(*runs, ("pair_margins", "v_node_margin", "v_root"))

    @staticmethod
    def assert_runs_agree(lattice, tree, keys):
        assert lattice.report["monotone_ok"] and tree.report["monotone_ok"]
        np.testing.assert_allclose(lattice.y0_series, tree.y0_series, rtol=0, atol=1e-12)
        for key in keys + ("z_diffs", "u_diffs"):
            np.testing.assert_allclose(
                lattice.report[key], tree.report[key], rtol=0, atol=1e-12, err_msg=key
            )
        for got, want in zip(lattice.report["norms"], tree.report["norms"]):
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12, err_msg=key)


COLLAPSE_CASES = [(d, m) for d in (1, 2) for m in (0, 1, 2)]


def solve_on_both_b_axes(prob):
    """The g = 0 problem on a collapsed and on an exhaustive B axis."""
    args = (prob.grid, prob.dim_d, prob.marks)
    return (
        solve_tree_exact(prob, TreeModel(*args, b_axis="collapsed")),
        solve_tree_exact(prob, TreeModel(*args)),
    )


class TestCollapsedBAxis:
    """With g = 0 no value depends on B, so one B column per lattice point
    holds the exhaustive slices exactly."""

    @pytest.mark.parametrize("d,m", COLLAPSE_CASES)
    def test_slices_equal_the_exhaustive_ones(self, d, m):
        prob = oracle_case(d, m, with_g=False)
        collapsed, full = solve_on_both_b_axes(prob)
        assert solve_tree_exact(prob).tree == collapsed.tree
        assert collapsed.tree.total_states() < full.tree.total_states()
        assert max(float(dk.max()) for dk in full.dK) > 0.0
        for name in ("Y", "Z", "U", "dK", "S"):
            for i, (a, b) in enumerate(zip(getattr(collapsed, name), getattr(full, name), strict=True)):
                assert a.shape[d + m] == 1, (name, i)
                assert np.broadcast_to(a, b.shape).tobytes() == b.tobytes(), (name, i)

    @pytest.mark.parametrize("d,m", COLLAPSE_CASES)
    def test_path_views_are_bitwise_equal(self, d, m):
        collapsed, full = solve_on_both_b_axes(oracle_case(d, m, with_g=False))
        a, b = collapsed.to_solution_grid(), full.to_solution_grid()
        for name in ("Y", "Z", "U", "K", "S", "weights"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("d,m", COLLAPSE_CASES)
    def test_reports_agree(self, d, m):
        collapsed, full = solve_on_both_b_axes(oracle_case(d, m, with_g=False))
        got, want = tree_norm_report(collapsed), tree_norm_report(full)
        assert got.keys() == want.keys() and want["sup_y_sq"] is not None
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-13, atol=0, err_msg=key)
        np.testing.assert_allclose(collapsed.k_moments, full.k_moments, rtol=1e-13, atol=0)
        assert collapsed.root_value() == pytest.approx(full.root_value(), rel=1e-13, abs=0)
        assert tree_balance_residual(collapsed) <= 1e-12

    def test_only_the_constant_zero_collapses(self):
        for g, axis in (("0", "collapsed"), ("0.0", "collapsed"), ("0*y", "exhaustive"), ("0.1*y", "exhaustive")):
            assert solve_tree_exact(make_problem(g=g, N=2)).tree.b_axis == axis, g

    def test_a_collapsed_axis_refuses_a_nonzero_g(self):
        prob = make_problem(**dict(MIXED, g="0.1*y"))
        tree = TreeModel(prob.grid, 1, MARKS, b_axis="collapsed")
        with pytest.raises(SolverError, match="g is not 0"):
            solve_tree_exact(prob, tree)

    def test_unknown_b_axis_is_refused(self):
        with pytest.raises(ConfigError, match="b_axis"):
            TreeModel(build_time_grid(1.0, 2), 1, MARKS, b_axis="sampled")


def dense_points(tree, i):
    """Slice i's w, j and lattice-point probabilities on one meshgrid of
    every lattice axis, each probability the product over the axes of
    comb(i, k) p**k (1-p)**(i-k): the reference for the per-axis layout."""
    d = tree.dim_d
    p = np.concatenate((np.full(d, 0.5), tree.marks.intensities * tree.grid.dt))
    k = np.arange(i + 1.0)
    c = np.stack(np.meshgrid(*[k] * (tree.node_axes - 1), indexing="ij"), -1)[..., None, :]
    comb = np.array([math.comb(i, n) for n in range(i + 1)], float)[c.astype(int)]
    probs = (comb * p**c * (1.0 - p) ** (i - c)).prod(axis=-1)
    return (i - 2.0 * c[..., :d]) * np.sqrt(tree.grid.dt), c[..., d:], probs


class TestTreeStructure:
    def test_state_probs_sum_to_one(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        for i in range(4):
            assert sol.tree.state_probs(i).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b_axis", B_AXES)
    @pytest.mark.parametrize("d,m", COLLAPSE_CASES)
    def test_per_axis_layout_equals_the_dense_one(self, d, m, b_axis):
        """w spans the W axes, j the mark axes, and a node's probability is
        the product of per-axis laws: bitwise the dense w and j after
        broadcasting, and the dense probabilities to 1e-15."""
        marks = (empty_marks(), MARKS, TWO_MARKS)[m]
        for N in range(1, 7):
            tree = TreeModel(build_time_grid(0.5, N), d, marks, b_axis=b_axis)
            for i in range(N + 1):
                w_dense, j_dense, probs = dense_points(tree, i)
                w, j = tree.context(i)
                assert w.shape == (i + 1,) * d + (1,) * (m + 1) + (d,)
                assert j.shape == (1,) * d + (i + 1,) * m + (1, m)
                assert np.broadcast_to(w, w_dense.shape).tobytes() == w_dense.tobytes()
                assert np.broadcast_to(j, j_dense.shape).tobytes() == j_dense.tobytes()
                want = np.broadcast_to(probs / tree.b_columns(i), tree.slice_shape(i))
                np.testing.assert_allclose(tree.state_probs(i), want, rtol=1e-15, atol=0)

    def test_balance_residual_vanishes(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        assert tree_balance_residual(sol) <= 1e-12

    def test_balance_residual_detects_a_bumped_node(self):
        """A 1e-6 bump of one node of Y_i, or of dK_i, shows in the residual
        at every step, the first and the last included.

        The residual reruns the solver's own backward step, so it checks the
        reflection and the Y/dK bookkeeping, not the expectation itself; that
        is checked independently against the saturated indicator LSMC in
        test_acceptance.test_01_exact_tree_equals_saturated_regression.
        """
        sol = solve_tree_exact(make_problem(**MIXED))
        bump = 1e-6
        for i in range(sol.grid.N):
            for name in ("Y", "dK"):
                slices = [a.copy() for a in getattr(sol, name)]
                slices[i].flat[0] += bump
                resid = tree_balance_residual(replace(sol, **{name: slices}))
                # the slack covers the roundoff of adding the bump
                assert resid >= bump * (1.0 - 1e-9), (name, i, resid)

    def test_materialized_paths_validate(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        grid_sol = sol.to_solution_grid()
        grid_sol.validate()
        assert grid_sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert grid_sol.root_value() == pytest.approx(sol.root_value(), abs=1e-12)

    def test_paths_follow_the_enumerated_law(self):
        """Path p of to_solution_grid is path p of enumerate_scenarios, with
        its branch probability as weight: the indicator regression on that
        set, an independent solver, agrees path by path."""
        two_marks = MarkSpace(np.array([1.0, 2.0]), np.array([0.4, 0.7]))
        for d, marks, N in ((1, MARKS, 3), (2, two_marks, 2)):
            prob = make_problem(**dict(MIXED, dim_d=d, marks=marks, N=N))
            tree = solve_tree_exact(prob).to_solution_grid()
            scen = enumerate_scenarios(prob.grid, d, marks)
            lsmc = solve_lsmc(prob, scen, SchemeParams(basis="indicator"))
            assert tree.terminal_k().max() > 0.0
            assert tree.weights.tobytes() == lsmc.weights.tobytes(), (d, marks.m)
            for name in ("Y", "Z", "U", "K", "S"):
                np.testing.assert_allclose(
                    getattr(tree, name), getattr(lsmc, name), rtol=0, atol=1e-12,
                    err_msg=f"{name} with d={d}, m={marks.m}",
                )

    @pytest.mark.parametrize("d,m,with_g", ORACLE_CASES)
    def test_path_weights_are_the_enumerated_ones(self, d, m, with_g):
        """Both trees give their paths the weights of enumerate_scenarios,
        bit for bit: there is one path order and one path law."""
        prob = oracle_case(d, m, with_g)
        want = enumerate_scenarios(prob.grid, d, prob.marks).path_weights().tobytes()
        for sol in solve_both(prob):
            assert sol.to_solution_grid().weights.tobytes() == want

    def test_sup_y_sq_equals_the_path_gather(self):
        """The backward pass equals the weighted max over every full path
        of Y_i^2, gathered by to_solution_grid, on the lattice and on the
        exponential tree."""
        no_jumps = dict(f="0.2*y - 0.3*z1 + 0.05*max(y, 0)", terminal="w1 + 0.2")
        for d in (1, 2):
            for marks in (empty_marks(), MARKS):
                kw = dict(MIXED, dim_d=d, marks=marks, N=3)
                if marks.m == 0:
                    kw.update(no_jumps)
                for sol in solve_both(make_problem(**kw)):
                    paths = sol.to_solution_grid()
                    want = float(paths.weights @ (paths.Y**2).max(axis=1))
                    assert sol.sup_y_sq() == pytest.approx(want, rel=1e-12, abs=0), (d, marks.m)

    def test_materialization_budget(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        with pytest.raises(SolverError, match="paths"):
            sol.to_solution_grid(max_paths=10)

    def test_reflection_exercised_on_mixed_instance(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        assert sol.to_solution_grid().terminal_k().max() > 0.0

    def test_comparison_monotone_in_terminal(self):
        low = solve_tree_exact(make_problem(**MIXED))
        bumped = dict(MIXED, terminal="w1 + 0.2*j1 + 0.5")
        high = solve_tree_exact(make_problem(**bumped))
        for i in range(4):
            assert (high.Y[i] >= low.Y[i] - 1e-12).all()

    @pytest.mark.parametrize("d,m,N", [(1, 1, 5), (2, 1, 3), (1, 2, 3)])
    def test_k_moments_equal_the_path_gather(self, d, m, N):
        """A lattice node's parents carry different K, so its moments are
        summed over them; moments copied from one parent fail this."""
        sol = solve_tree_exact(oracle_case(d, m, with_g=True, N=N))
        paths = sol.to_solution_grid()
        k_t = paths.terminal_k()
        assert k_t.min() < k_t.max()
        want = (paths.weights @ k_t, paths.weights @ k_t**2)
        np.testing.assert_allclose(sol.k_moments, want, rtol=0, atol=1e-12)

    def test_compare_deep_problem_at_sixteen_steps(self):
        """The compare_deep benchmark problem at N = 16: about 0.8M lattice
        nodes, within the default max_states (the tree had 2**32)."""
        grid = build_time_grid(0.5, 16)
        f, barrier, terminal = "0.2*y - 0.3*z1 + 0.1*u1", "w1 - 0.5*(0.5 - t)", "w1 + 0.2*j1"
        p1 = ProblemSpec(grid, 1, MARKS, GeneratorSpec(f=f, g="0.1*y"), barrier, terminal)
        p2 = ProblemSpec(
            grid, 1, MARKS, GeneratorSpec(f=f + " + 0.05", g="0.1*y"), barrier, terminal + " + 0.1"
        )
        tree = TreeModel(grid, 1, MARKS, max_steps=16)
        assert 700_000 < tree.total_states() <= TreeModel.max_states
        sol = solve_tree_exact(p1, tree).validate()
        assert max(float(dk.max()) for dk in sol.dK) > 0.0
        assert tree_balance_residual(sol) <= 1e-9
        assert compare_solutions(p1, p2, tree).verdict == "pass"


class TestSolutionGridValidate:
    def base(self):
        return solve_tree_exact(make_problem(terminal="3", marks=MARKS)).to_solution_grid()

    def test_k_must_start_at_zero(self):
        sol = self.base()
        sol.K[0, 0] = 1.0
        with pytest.raises(SolverError, match="start at zero"):
            sol.validate()

    def test_k_must_be_nondecreasing(self):
        sol = self.base()
        sol.K[0, 2] = -1.0
        with pytest.raises(SolverError, match="nondecreasing"):
            sol.validate()

    def test_y_must_dominate_barrier(self):
        sol = self.base()
        sol.Y[0, 1] = -11.0
        with pytest.raises(SolverError, match="below the barrier"):
            sol.validate()

    def test_reflection_must_be_complementary(self):
        sol = self.base()
        sol.K[0, 1:] += 1.0  # push off the barrier: Y - S = 13 but dK > 0
        with pytest.raises(SolverError, match="not complementary"):
            sol.validate()

    def test_non_finite_rejected(self):
        sol = self.base()
        sol.Y[0, 0] = np.nan
        with pytest.raises(SolverError, match="non-finite Y"):
            sol.validate()

    def test_csv_rows(self):
        sol = solve_tree_exact(make_problem(**MIXED)).to_solution_grid()
        rows = list(solution_csv_rows(sol))
        assert rows[0] == ["path", "step", "y", "z1", "u1", "k"]
        assert len(rows) == 1 + sol.path_count * 4


class TestTreeSolutionValidate:
    """Node-wise reflection checks: one bad value in a solved tree must be
    named by its (slice, node), node being the flat index into the slice."""

    def base(self):
        sol = solve_tree_exact(make_problem(**MIXED))
        assert sol.to_solution_grid().terminal_k().max() > 0.0
        return sol

    def test_solved_tree_passes(self):
        sol = self.base()
        assert sol.validate() is sol

    def test_nan_in_z(self):
        sol = self.base()
        sol.Z[2].reshape(-1, 1)[5, 0] = np.nan
        with pytest.raises(SolverError, match=r"non-finite Z at \(slice, node\) \(2, 5\)"):
            sol.validate()

    def test_negative_dk(self):
        sol = self.base()
        sol.dK[1].flat[3] = -1e-300
        with pytest.raises(SolverError, match=r"negative dK at \(slice, node\) \(1, 3\)"):
            sol.validate()

    def test_y_below_the_barrier(self):
        sol = self.base()
        sol.Y[3].flat[6] = sol.S[3].flat[6] - 1e-9
        with pytest.raises(SolverError, match=r"below the barrier at \(slice, node\) \(3, 6\)"):
            sol.validate()

    def test_barrier_tolerance(self):
        sol = self.base()
        sol.Y[3].flat[6] = sol.S[3].flat[6] - 1e-13
        sol.validate()

    def test_reflection_not_complementary(self):
        sol = self.base()
        gap = sol.Y[1] - sol.S[1]
        node = int(np.flatnonzero((gap > 0.0) & (sol.dK[1] == 0.0))[0])
        sol.dK[1].flat[node] = 1e-300
        with pytest.raises(
            SolverError, match=rf"not complementary at \(slice, node\) \(1, {node}\)"
        ):
            sol.validate()


    def test_members_are_checked_in_one_pass(self):
        """A solve with members names each member's first failing node in
        its own one-member layout, as the member's split solution does."""
        ks = np.array([0.2, 0.5, 0.8])

        def f_fn(t, y, z, u, w, j):
            return ks * y - 0.3 * z[..., 0]

        sol = solve_tree_exact(make_problem(**MIXED), f_fn=f_fn, members=3)
        assert sol.members == 3 and sol.node_failures() == [None] * 3
        sol.Z[2][..., 1, :].reshape(-1, 1)[5, 0] = np.nan
        sol.dK[1][..., 2].flat[3] = -1e-300
        sol.dK[1][..., 1].flat[0] = -1e-300  # a later check than Z's finiteness
        want = [None, "non-finite Z at (slice, node) (2, 5)", "negative dK at (slice, node) (1, 3)"]
        assert sol.node_failures() == want
        assert [m.node_failures()[0] for m in sol.member_solutions()] == want
        refusal = r"non-finite Z at \(slice, node\) \(2, 5\) of member 1$"
        with pytest.raises(SolverError, match=refusal):
            sol.validate()

    def test_the_lowest_overflowing_member_is_named(self):
        """A pass stops at the first slice whose continuation value is not
        finite, before reflecting it, and names its lowest such member."""

        def f_fn(t, y, z, u, w, j):
            return np.broadcast_to([0.0, np.inf, np.inf], y.shape)

        prob = make_problem(terminal="w1", N=3)
        refusal = "^the solution has a non-finite Y at slice 2 of member 1$"
        with pytest.raises(SolverError, match=refusal):
            solve_tree_exact(prob, f_fn=f_fn, members=3)


def found_shape(d, m, N):
    """A collapsed-axis problem with unequal coefficients whose Y^2 takes
    about as many distinct values as its tree has nodes."""
    w = " + ".join(f"{c}*w{k + 1}" for k, c in enumerate([1.0, 0.7, 0.45][:d]))
    j = "".join(f" + {c}*j{k + 1}" for k, c in enumerate([0.2, 0.33][:m]))
    marks = (empty_marks(), MARKS, TWO_MARKS)[m]
    prob = make_problem(f="0.2*y - 0.3*z1", terminal=w + j, T=0.5, N=N, dim_d=d, marks=marks)
    return solve_tree_exact(prob, TreeModel(prob.grid, d, prob.marks, b_axis="collapsed"))


def fresh(sol):
    """sol's slices in a new solution, whose reductions are not yet taken."""
    return solver.TreeSolution(sol.problem, sol.tree, sol.Y, sol.Z, sol.U, sol.dK, sol.S)


class TestSupYSqBudget:
    """E sup Y^2 carries its thresholds in blocks within MAX_PATHS values
    per slice, and refuses only past SUP_Y_SQ_WORK node steps."""

    @pytest.mark.parametrize("d,m,with_g", [(1, 1, True), (2, 1, False), (1, 2, True)])
    @pytest.mark.parametrize("widths", [2, 3, 7])
    def test_blocks_do_not_change_the_value(self, monkeypatch, d, m, with_g, widths):
        sol = solve_tree_exact(oracle_case(d, m, with_g, N=4))
        whole = sol.sup_y_sq()
        largest = max(y.size for y in sol.Y)
        monkeypatch.setattr(solver, "MAX_PATHS", widths * largest)
        assert fresh(sol).sup_y_sq() == whole

    @pytest.mark.parametrize("d,m,N", [(2, 2, 5), (3, 1, 5)])
    def test_shapes_past_one_slice_budget_are_carried(self, d, m, N):
        sol = found_shape(d, m, N)
        y_sq = [y**2 for y in sol.Y]
        distinct = np.unique(np.concatenate([v.ravel() for v in y_sq])).size
        assert distinct * max(v.size for v in y_sq) > solver.MAX_PATHS
        # max_i E[Y_i^2] <= E[max_i Y_i^2] <= E[sum_i Y_i^2]
        second = [float((sol.tree.state_probs(i) * v).sum()) for i, v in enumerate(y_sq)]
        assert max(second) < sol.sup_y_sq() < sum(second)

    def test_refuses_past_the_work_budget(self):
        sol = solve_tree_exact(oracle_case(1, 1, True))
        nodes = sol.tree.total_states()
        distinct = np.unique(np.concatenate([(y**2).ravel() for y in sol.Y])).size
        refusal = (
            f"E sup Y^2 carries {distinct} distinct values of Y^2 over {nodes} stored "
            f"nodes: {distinct * nodes} node steps (> {distinct * nodes - 1})"
        )
        args = (sol.tree, sol.Z, sol.U, sol.dK, sol.Y)
        sol.reductions = solver.backward_reductions(*args, work=distinct * nodes - 1)
        assert sol.reductions.sup_y_sq == [refusal]
        with pytest.raises(SolverError, match=re.escape(refusal)):
            sol.sup_y_sq()
        assert tree_norm_report(sol)["sup_y_sq_skipped"] == refusal
        within = solver.backward_reductions(*args, work=distinct * nodes).sup_y_sq[0]
        assert within == fresh(sol).sup_y_sq() > 0.0


def oracle_reductions(sol, chain=slice(None), work=solver.SUP_Y_SQ_WORK):
    """The reductions of ``solver.backward_reductions`` the way they were
    taken before it, as the oracle of its pass: on contiguous copies of
    the chain members, one backward pass each for the K moments, the Z/U
    norms, the distances of each successive pair and the E sup Y^2
    thresholds of each member, in blocks within ``solver.MAX_PATHS``
    values per slice.  Returns the fields of ``solver.Reductions``."""
    tree, N, dt, lam = sol.tree, sol.grid.N, sol.grid.dt, sol.tree.marks.intensities
    members = (sol.member_solutions() if sol.members else [sol])[chain]

    def k_moments(m):
        a = b = np.zeros(m.Y[-1].shape)
        for i in range(N - 1, -1, -1):
            dk, ea = m.dK[i], tree.step_mean(i, a)
            a, b = dk + ea, dk * dk + 2.0 * dk * ea + tree.step_mean(i, b)
        return float(a.mean()), float(b.mean())

    def norms(Z, U):
        z_sum = u_sum = np.zeros(Z[-1].shape[:-1])
        for i in range(N - 1, -1, -1):
            z_sum = (Z[i] ** 2).sum(axis=-1) + tree.step_mean(i, z_sum)
            u_sum = (lam * U[i] ** 2).sum(axis=-1) + tree.step_mean(i, u_sum)
        return float(z_sum.mean()) * dt, float(u_sum.mean()) * dt

    def sup_y_sq(m):
        y_sq = [y**2 for y in m.Y]
        c = np.unique(np.concatenate([v.ravel() for v in y_sq]))
        nodes = sum(v.size for v in y_sq)
        if c.size * nodes > work:
            return (
                f"E sup Y^2 carries {c.size} distinct values of Y^2 over {nodes} stored "
                f"nodes: {c.size * nodes} node steps (> {work})"
            )
        blocks = max(1, min(-(-c.size * max(v.size for v in y_sq) // solver.MAX_PATHS), c.size // 2))
        F = []
        for part in np.array_split(c, blocks):
            q = y_sq[-1][..., None] <= part
            for i in range(N - 1, -1, -1):
                q = tree.step_mean(i, q) * (y_sq[i][..., None] <= part)
            F.append(q.reshape(-1, part.size).mean(axis=0))
        return float(c[0] + np.diff(c) @ (1.0 - np.concatenate(F)[:-1]))

    diffs = [
        norms([zb - za for za, zb in zip(a.Z, b.Z)], [ub - ua for ua, ub in zip(a.U, b.U)])
        for a, b in zip(members, members[1:])
    ]
    k, zu = zip(*[k_moments(m) for m in members]), zip(*[norms(m.Z, m.U) for m in members])
    sup = [sup_y_sq(m) for m in members]
    return (*(tuple(map(list, v)) for v in (k, zu)), tuple(map(list, zip(*diffs))) or ([], []), sup)


def member_solve(prob, b_axis, ks=(0.2, 0.5, 0.8), **kw):
    """prob solved with one member per k in ks, member k's f being
    k*y - 0.3*z1 on the tree with the given B axis."""
    ks = np.array(ks)

    def f_fn(t, y, z, u, w, j):
        return ks * y - 0.3 * z[..., 0]

    tree = TreeModel(prob.grid, prob.dim_d, prob.marks, b_axis=b_axis, **kw)
    return solve_tree_exact(prob, tree, f_fn=f_fn, members=len(ks))


def assert_reductions_equal(got, want):
    assert (got.k_moments, got.zu_norms, got.diffs, got.sup_y_sq) == want


AXIS_CASES = [(*c, b) for c in ORACLE_CASES for b in B_AXES if b == "exhaustive" or not c[2]]


class TestOnePassAgainstPerMemberReductions:
    """``backward_reductions`` carries every member's K moments, Z/U
    norms, chain distances and E sup Y^2 in one pass, bitwise the
    per-member passes of ``oracle_reductions``."""

    @pytest.mark.parametrize("d,m,with_g,b_axis", AXIS_CASES)
    @pytest.mark.parametrize("chain", [slice(None), slice(1, 3), slice(2, 3)])
    def test_members_on_both_b_axes(self, d, m, with_g, b_axis, chain):
        sol = member_solve(oracle_case(d, m, with_g), b_axis)
        got = solver.backward_reductions(sol.tree, sol.Z, sol.U, sol.dK, sol.Y, chain)
        assert_reductions_equal(got, oracle_reductions(sol, chain))
        assert len(got.diffs[0]) == len(got.sup_y_sq) - 1 == len(range(3)[chain]) - 1

    @pytest.mark.parametrize("d,m,with_g,b_axis", AXIS_CASES)
    def test_one_member_tree_solve(self, d, m, with_g, b_axis):
        prob = oracle_case(d, m, with_g)
        sol = solve_tree_exact(prob, TreeModel(prob.grid, d, prob.marks, b_axis=b_axis))
        assert_reductions_equal(sol.reductions, oracle_reductions(sol))
        assert tree_norm_report(sol)["sup_y_sq"] == sol.reductions.sup_y_sq[0] > 0.0
        assert sol.k_moments == tuple(v[0] for v in sol.reductions.k_moments)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("d,m,with_g", [(1, 1, True), (2, 0, False), (1, 0, True)])
    def test_envelope_runs_at_each_thread_count(self, d, m, with_g, threads):
        prob = oracle_case(d, m, with_g)
        prob = replace(prob, generator=replace(prob.generator, growth_C=2.0))
        box = {a: (-6.0, 6.0) for a in ("y", "z1", "u1")}
        env = EnvelopeParams(n=1.0, box=box, grid_points=21)
        run = run_inf_envelope_sequence(
            prob, env, ns=[2, 3, 4], threads=threads, early_stop_tol=0.0
        )
        want = oracle_reductions(run.solve, run.roles["tree_solutions"])
        assert_reductions_equal(run.reductions, want)
        assert [e["sup_y_sq"] for e in run.report["norms"]] == want[3]
        assert [e["k_t_sq"] for e in run.report["norms"]] == want[0][1]

    def test_members_with_unequal_threshold_counts(self, monkeypatch):
        """Member 0 stays at 0 (one value of Y^2, so F is never read),
        member 1 takes one value per slice, member 2 one per node; over
        several blocks, and with member 2 past the work budget."""
        prob = make_problem(terminal="0", T=0.5, N=4, marks=MARKS)
        tree = TreeModel(prob.grid, 1, MARKS)

        def f_fn(t, y, z, u, w, j):
            flat, per_slice = 0.0 * y[..., 0], 1.0 + 0.0 * y[..., 1]
            return np.stack([flat, per_slice, 1.0 + w[..., 0, 0] ** 2 + y[..., 2]], axis=-1)

        sol = solve_tree_exact(prob, tree, f_fn=f_fn, members=3)
        y_sq = [np.concatenate([y[..., k].ravel() ** 2 for y in sol.Y]) for k in range(3)]
        counts = [np.unique(v).size for v in y_sq]
        assert counts[0] == 1 and counts[1] == prob.grid.N + 1 and counts[2] > counts[1]
        largest = max(y[..., 0].size for y in sol.Y)
        for max_paths in (solver.MAX_PATHS, 2 * largest, 5 * largest):
            monkeypatch.setattr(solver, "MAX_PATHS", max_paths)
            got = solver.backward_reductions(tree, sol.Z, sol.U, sol.dK, sol.Y)
            assert_reductions_equal(got, oracle_reductions(sol))
        work = counts[2] * tree.total_states() - 1
        got = solver.backward_reductions(tree, sol.Z, sol.U, sol.dK, sol.Y, work=work)
        assert_reductions_equal(got, oracle_reductions(sol, work=work))
        assert isinstance(got.sup_y_sq[2], str) and got.sup_y_sq[1] > got.sup_y_sq[0] == 0.0
        # the skipped member's K and Z/U norms still come from the pass
        assert got.zu_norms[0][2] > 0.0

    def test_blocks_batched_across_members_make_a_pass_each(self, monkeypatch):
        """Within MAX_PATHS values a slice, one pass carries the sums and
        every threshold; past it, the sums take a pass of their own and
        each block of thresholds, batched across members and within the
        per-member width of the passes before, one more."""
        sol = member_solve(oracle_case(1, 1, True, N=4), "exhaustive")
        largest = max(y[..., 0].size for y in sol.Y)
        widths, real = [], TreeModel.step_mean

        def record(tree, i, values):
            widths.append(values.shape[-1])
            return real(tree, i, values)

        monkeypatch.setattr(TreeModel, "step_mean", record)
        solver.backward_reductions(sol.tree, sol.Z, sol.U, sol.dK, sol.Y)
        sums = 2 * 3 + 2 * 5  # A, B and the Z, U sums of 3 members and 2 pairs
        thresholds = widths[0] - sums
        assert widths == [sums + thresholds] * sol.grid.N
        monkeypatch.setattr(solver, "MAX_PATHS", 4 * largest)
        widths.clear()
        got = solver.backward_reductions(sol.tree, sol.Z, sol.U, sol.dK, sol.Y)
        passes = [widths[k] for k in range(0, len(widths), sol.grid.N)]
        assert widths == [w for w in passes for _ in range(sol.grid.N)]
        assert passes[0] == sums and sum(passes[1:]) == thresholds
        assert len(passes) == 1 + -(-thresholds // 4) and all(2 <= w <= 4 for w in passes[1:])
        assert_reductions_equal(got, oracle_reductions(sol))

    def test_k_moments_and_norms_alone_carry_no_thresholds(self, monkeypatch):
        """Read before the reductions, the K moments and Z/U norms take a
        pass of the sums alone; read after them, no pass.  E sup Y^2 of a
        solve with members is per member, in the reductions only."""
        sol = member_solve(oracle_case(1, 1, True, N=4), "exhaustive")
        want, one = oracle_reductions(sol), sol.member_solutions()[1]
        widths, real = [], TreeModel.step_mean

        def record(tree, i, values):
            widths.append(values.shape[-1])
            return real(tree, i, values)

        monkeypatch.setattr(TreeModel, "step_mean", record)
        assert (sol.k_moments, sol.zu_norms) == want[:2]
        assert widths == [2 * 3 + 2 * 5] * sol.grid.N and "reductions" not in vars(sol)
        with pytest.raises(SolverError, match=r"one E sup Y\^2 per member"):
            sol.sup_y_sq()
        assert sol.reductions.sup_y_sq == want[3]
        widths.clear()
        assert tree_norm_report(one)["k_t_sq"] == want[0][1][1]
        assert one.k_moments == (want[0][0][1], want[0][1][1]) and len(widths) == sol.grid.N

    @pytest.mark.parametrize("ks, chain", [((0.4,), slice(None)), ((0.4, 0.6), slice(1, 2))])
    def test_a_chain_of_one_member_has_no_distance(self, ks, chain):
        sol = member_solve(oracle_case(1, 0, False), "collapsed", ks=ks)
        got = solver.backward_reductions(sol.tree, sol.Z, sol.U, sol.dK, sol.Y, chain)
        assert got.diffs == ([], []) and len(got.zu_norms[0]) == 1
        assert_reductions_equal(got, oracle_reductions(sol, chain))


class TestLsmcGuards:
    def test_path_floor_for_poly_basis(self):
        prob = make_problem(marks=MARKS)
        scen = simulate_scenarios(prob.grid, 1, MARKS, 40, seed=1)
        # basis size 2 + degree*(d + m + 1) = 8 needs 80 paths
        with pytest.raises(ConfigError, match="need at least 80 paths"):
            solve_lsmc(prob, scen)

    def test_grid_mismatch(self):
        prob = make_problem()
        scen = simulate_scenarios(build_time_grid(1.0, 5), 1, empty_marks(), 100, seed=1)
        with pytest.raises(SolverError, match="grid differs"):
            solve_lsmc(prob, scen)

    def test_dimension_mismatch(self):
        prob = make_problem()
        scen = simulate_scenarios(prob.grid, 2, empty_marks(), 100, seed=1)
        with pytest.raises(SolverError, match="dimensions differ"):
            solve_lsmc(prob, scen)

    def test_rank_deficient_regression_names_the_step(self):
        # W1 and W2 are the same column, so the normal matrix is singular
        # whatever the degree
        prob = make_problem(N=2, dim_d=2)
        dw = np.random.default_rng(3).normal(0.0, prob.grid.dt**0.5, (200, 2, 1))
        scen = ScenarioSet(
            prob.grid, 2, "gaussian", None,
            dW=np.concatenate([dw, dw], axis=2),
            dB=np.random.default_rng(4).normal(0.0, prob.grid.dt**0.5, (200, 2)),
            jump_counts=np.zeros((200, 2, 0)),
        )
        with pytest.raises(SolverError, match="ill-conditioned at step"):
            solve_lsmc(prob, scen)

    def test_two_point_law_at_high_degree(self):
        # a two-point W_{t_i} takes i + 1 values, and sums of the same steps
        # in another order differ in the last bits; powers past the number
        # of values would make the normal matrix singular
        prob = make_problem(
            f="0.2*y - 0.3*z1 + 0.1*u1", g="0.1*y", barrier="-0.8 + 0.3*t",
            terminal="max(w1, -0.5) + 0.2*j1", N=10, marks=MARKS,
        )
        scen = simulate_scenarios(prob.grid, 1, MARKS, 1000, seed=0, mode="two-point")
        W = scen.brownian_paths()
        assert np.unique(W[:, 4, 0]).size > 5  # roundoff splits the 5 lattice values
        sol = solve_lsmc(prob, scen, SchemeParams(degree=6)).validate()
        sizes = sol.diagnostics["basis_sizes"]
        # step 1: intercept, w1, j1 (two values each) and six powers of B_T - B_t1
        assert sizes[1] == 1 + 1 + 1 + 6
        assert max(sol.diagnostics["regression_condition"]) <= 1e14

    def test_scheme_params_validation(self):
        with pytest.raises(ConfigError, match="basis"):
            SchemeParams(basis="spline")
        with pytest.raises(ConfigError, match="degree"):
            SchemeParams(degree=0)
        with pytest.raises(ConfigError, match="ridge"):
            SchemeParams(ridge=-1.0)


class TestLsmcStatistics:
    def test_martingale_representation_of_brownian_terminal(self):
        prob = make_problem(terminal="w1")
        scen = simulate_scenarios(prob.grid, 1, empty_marks(), 2000, seed=314)
        sol = solve_lsmc(prob, scen)
        se_mean = 1.0 / np.sqrt(2000)
        assert abs(sol.root_value()) <= 3 * se_mean
        se_z = (1.0 / np.sqrt(prob.grid.dt)) / np.sqrt(2000)
        for i in range(prob.grid.N):
            assert abs(sol.Z[:, i, 0].mean() - 1.0) <= 3 * se_z

    def test_additive_drift_shifts_the_root(self):
        prob = make_problem(f="1", terminal="w1")
        scen = simulate_scenarios(prob.grid, 1, empty_marks(), 2000, seed=314)
        sol = solve_lsmc(prob, scen)
        assert abs(sol.root_value() - 1.0) <= 3.0 / np.sqrt(2000)

    def test_saturated_indicator_basis_reproduces_the_tree(self):
        prob = make_problem(**MIXED)
        tree = solve_tree_exact(prob)
        scen = enumerate_scenarios(prob.grid, 1, MARKS)
        sol = solve_lsmc(prob, scen, SchemeParams(basis="indicator"))
        assert abs(sol.root_value() - tree.root_value()) <= 1e-10
        sol.validate()

    def test_monte_carlo_error_decays_like_root_p(self):
        prob = make_problem(f="1", terminal="w1")
        exact = 1.0
        path_counts = [1000, 4000, 16000]
        errors = []
        for P in path_counts:
            sq = 0.0
            for seed in range(100, 108):
                scen = simulate_scenarios(prob.grid, 1, empty_marks(), P, seed=seed)
                sq += (solve_lsmc(prob, scen).root_value() - exact) ** 2
            errors.append(np.sqrt(sq / 8))
        assert errors[0] > errors[1] > errors[2]
        slope = np.polyfit(np.log(path_counts), np.log(errors), 1)[0]
        assert -0.85 <= slope <= -0.15
