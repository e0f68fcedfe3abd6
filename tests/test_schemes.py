"""Approximation pipelines: envelope sequences, bracketing iteration,
companion upper bound."""

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from rbdsdep import schemes
from rbdsdep.drivers import MarkSpace, build_time_grid, empty_marks
from rbdsdep.errors import ConfigError, EnvelopeError, SolverError
from rbdsdep.analysis import tree_norm_report
from rbdsdep.expr import EvalContext, evaluate
from rbdsdep.generator import (
    ENVELOPE_BLOCK_QUERIES,
    EnvelopeFunction,
    EnvelopeParams,
    GeneratorSpec,
    size_norms,
)
from rbdsdep.schemes import (
    run_bracketing_sequence,
    run_inf_envelope_sequence,
    run_sup_envelope_sequence,
    sequence_csv_rows,
    solve_upper_bound_tree,
)
from rbdsdep.solver import (
    ProblemSpec,
    TreeModel,
    TreeSolution,
    b_axis_for,
    backward_reductions,
    solve_tree_exact,
)

MARKS = MarkSpace(np.array([1.0]), np.array([0.4]))
ENV = EnvelopeParams(n=1.0, box={"y": (-5.0, 5.0)}, grid_points=201)


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


class TestInfEnvelopeSequence:
    def test_lipschitz_identity_at_matching_slope(self):
        # inf-convolution of |y| with penalty slope 1 reproduces |y| at
        # every query, so the n = 1 solve equals the direct solve
        prob = make_problem(f="abs(y)", terminal="w1", T=0.5, N=3, marks=MARKS)
        direct = solve_tree_exact(prob).to_solution_grid()
        run = run_inf_envelope_sequence(prob, ENV, ns=[1])
        assert run.mode == "inf_envelope"
        assert run.y0_series[0] == pytest.approx(direct.root_value(), abs=1e-12)
        sol = run.tree_solutions[0].to_solution_grid()
        assert np.abs(sol.Y - direct.Y).max() <= 1e-12

    def test_roots_nondecreasing_with_node_margins(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4, 8])
        assert run.index_set == [1.0, 2.0, 4.0, 8.0]
        assert not run.report["truncated"]
        diffs = np.diff(run.y0_series)
        assert (diffs >= -1e-10).all()
        assert diffs.max() > 1e-3  # the sequence actually moves
        assert run.report["monotone_ok"]
        assert min(run.report["pair_margins"]) >= -1e-10
        assert len(run.tree_solutions) == 4
        for norms in run.report["norms"]:
            assert set(norms) == {"sup_y_sq", "z_norm_sq", "u_norm_sq", "k_t_sq"}

    def test_upper_bound_dominates_every_iterate(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4, 8])
        assert run.upper_tree is not None
        assert run.report["v_node_margin"] >= -1e-12
        assert run.report["v_root"] >= max(run.y0_series)

    def test_indices_clipped_to_growth_constant_and_deduped(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_inf_envelope_sequence(prob, ENV, ns=[0.5, 1, 1, 2])
        assert run.index_set == [1.0, 2.0]

    def test_early_stop_truncates_the_series(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4], early_stop_tol=10.0)
        assert run.report["truncated"]
        assert run.index_set == [1.0, 2.0]
        assert len(run.y0_series) == 2

    @pytest.mark.parametrize("g,N", [("0", 3), ("0.1*y", 10)], ids=["one_block", "blocks"])
    def test_thread_count_does_not_change_results(self, g, N):
        prob = make_problem(
            f="min(abs(y), 2)", g=g, terminal="w1", T=0.5, N=N, marks=MARKS
        )
        tree = TreeModel(prob.grid, 1, MARKS, max_steps=N, b_axis=b_axis_for(prob))
        ns = [1, 2, 4]
        if N == 10:  # the exhaustive B axis: the largest slice spans 3+ blocks
            largest = max(map(tree.slice_states, range(N + 1)))
            assert largest * len(ns) >= 3 * ENVELOPE_BLOCK_QUERIES
        seq = run_inf_envelope_sequence(prob, ENV, ns=ns, tree=tree, threads=1)
        par = run_inf_envelope_sequence(prob, ENV, ns=ns, tree=tree, threads=3)
        assert par.y0_series == seq.y0_series
        assert par.report == seq.report
        par_trees = par.tree_solutions + [par.upper_tree]
        seq_trees = seq.tree_solutions + [seq.upper_tree]
        for a, b in zip(par_trees, seq_trees, strict=True):
            for name in ("Y", "Z", "U", "dK"):
                for sa, sb in zip(getattr(a, name), getattr(b, name), strict=True):
                    assert sa.shape == sb.shape and sa.tobytes() == sb.tobytes()

    def test_the_pool_is_capped_at_the_available_cpus(self, monkeypatch):
        """--threads beyond the CPUs starts no more workers than there are
        CPUs.  The tree is shallow, so every envelope call is one block and
        no worker starts at all."""
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(schemes, "ThreadPoolExecutor", Recording)
        prob = make_problem(f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS)
        tree = TreeModel(prob.grid, 1, MARKS, max_steps=3, b_axis=b_axis_for(prob))
        assert tree.slice_states(3) * 3 < ENVELOPE_BLOCK_QUERIES
        wide = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4], tree=tree, threads=10**6)
        cpus = schemes._available_cpus()
        assert sizes == ([cpus] if cpus > 1 else [])
        one = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4], tree=tree, threads=1)
        assert wide.report == one.report

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "f,terminal,refusal",
        [
            # f drops by 1 at the box end y = 1 only; from Y_N = 0.6 that
            # drop pays for the penalty n * 0.4 at n = 1 and 2, not 4 or 8
            (
                "-indicator_pos(y - 0.97)",
                "0.6",
                r"^envelope optimum on the 'y' box edge at n = 1\.0; enlarge the box and rerun$",
            ),
            # Y_N = w1 leaves the box for every n
            (
                "min(abs(y), 2)",
                "w1",
                r"^envelope query for 'y' outside the box \[-1\.0, 1\.0\] at n = 1\.0: "
                r"range \[-1\.73205, 1\.73205\]$",
            ),
        ],
        ids=["box_edge", "outside_box"],
    )
    def test_refusal_names_the_lowest_member(self, f, terminal, refusal, threads):
        prob = make_problem(f=f, g="0.1*y", terminal=terminal, T=0.5, N=6)
        env = EnvelopeParams(n=1.0, box={"y": (-1.0, 1.0)}, grid_points=41)
        with pytest.raises(EnvelopeError, match=refusal):
            run_inf_envelope_sequence(prob, env, ns=[1, 2, 4, 8], threads=threads)

    @pytest.mark.parametrize("runner", [run_inf_envelope_sequence, run_sup_envelope_sequence])
    def test_empty_or_decreasing_ns_refused(self, runner):
        prob = make_problem(f="min(abs(y), 2)", terminal="w1", T=0.5, N=3)
        with pytest.raises(ConfigError, match=r"ns must be a non-empty nondecreasing list, got \[\]"):
            runner(prob, ENV, ns=[])
        with pytest.raises(ConfigError, match="ns must be a non-empty nondecreasing list"):
            runner(prob, ENV, ns=[8, 2, 4])

    def test_growth_certificate_gates_the_run(self):
        prob = make_problem(f="5*y", terminal="w1", T=0.5, N=3)
        with pytest.raises(ConfigError, match="linear growth certificate failed"):
            run_inf_envelope_sequence(prob, ENV, ns=[1, 2])


#: (f, kind, d, marks, gridded axes, grid points, N): a state-free f (the
#: first-block tables), an f reading w and one reading j (grid rows per
#: node, shared by its members), a Euclidean z block, and the sup kind;
#: at N = 10 the largest slice spans several blocks
MEMBER_CASES = [
    ("sqrt(abs(y)) + abs(z1)", "inf", 1, None, ("y", "z1"), 61, 10),
    ("0.5*sqrt(abs(y - w1)) + abs(z1)", "inf", 1, None, ("y", "z1"), 61, 10),
    ("sqrt(abs(y)) + abs(u1) + 0.1*j1", "inf", 1, MARKS, ("y", "u1"), 41, 6),
    ("sqrt(abs(y)) + 0.5*znorm", "inf", 2, None, ("y", "z1", "z2"), 15, 5),
    ("sqrt(abs(y)) + abs(z1)", "sup", 1, None, ("y", "z1"), 61, 10),
]


class TestMemberBatch:
    """One backward pass over every member of an envelope sequence equals
    one solve per member, driven by a one-member envelope, bit for bit."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "f,kind,d,marks,axes,points,N", MEMBER_CASES, ids=[f"{c[0]}-{c[1]}" for c in MEMBER_CASES]
    )
    def test_members_equal_single_solves(self, f, kind, d, marks, axes, points, N, threads):
        grid = build_time_grid(0.5, N)
        marks = marks or empty_marks()
        gen = GeneratorSpec(f=f, g="0.1*y", growth_C=2.0)
        prob = ProblemSpec(grid, d, marks, gen, "-6", "0.5*w1")
        tree = TreeModel(grid, d, marks, max_steps=N)
        params = EnvelopeParams(n=1.0, box={a: (-6.0, 6.0) for a in axes}, grid_points=points)
        kw = dict(dim_d=d, num_marks=marks.m, intensities=marks.intensities, raise_on_boundary=True)
        ns = [2.0, 4.0, 8.0]
        with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
            env = EnvelopeFunction(f, params, kind, ns=ns, pool=pool, **kw)
            batched = solve_tree_exact(prob, tree, f_fn=env, members=len(ns))
        for n, got in zip(ns, batched.member_solutions(), strict=True):
            single = EnvelopeFunction(f, replace(params, n=n), kind, **kw)
            want = solve_tree_exact(prob, tree, f_fn=single)
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "f,kind,d,marks,axes,points,N",
        [c for c in MEMBER_CASES if c[1] == "inf"],
        ids=[c[0] for c in MEMBER_CASES if c[1] == "inf"],
    )
    def test_inf_run_holds_v_and_the_indices_bitwise(
        self, f, kind, d, marks, axes, points, N, threads
    ):
        """An inf run solves V as the last member of its pass: V is
        ``solve_upper_bound_tree`` bit for bit, and the indices are the
        pass without V, with their K moments and Z/U norms."""
        grid = build_time_grid(0.5, N)
        marks = marks or empty_marks()
        gen = GeneratorSpec(f=f, g="0.1*y", growth_C=2.0)
        prob = ProblemSpec(grid, d, marks, gen, "-6", "0.5*w1")
        tree = TreeModel(grid, d, marks, max_steps=N)
        params = EnvelopeParams(n=1.0, box={a: (-6.0, 6.0) for a in axes}, grid_points=points)
        ns = [2.0, 4.0, 8.0]
        run = run_inf_envelope_sequence(
            prob, params, ns=ns, tree=tree, threads=threads, early_stop_tol=0.0
        )
        want = solve_upper_bound_tree(prob, tree)
        assert_bitwise_equal(run.upper_tree, want)
        assert run.upper_tree.k_moments == want.k_moments
        assert run.upper_tree.zu_norms == want.zu_norms
        assert run.report["v_root"] == want.root_value()
        kw = dict(dim_d=d, num_marks=marks.m, intensities=marks.intensities, raise_on_boundary=True)
        env = EnvelopeFunction(f, params, kind, ns=ns, **kw)
        indices = solve_tree_exact(prob, tree, f_fn=env, members=len(ns)).member_solutions()
        for got, want in zip(run.tree_solutions, indices, strict=True):
            assert_bitwise_equal(got, want)
            assert (got.k_moments, got.zu_norms) == (want.k_moments, want.zu_norms)


def assert_bitwise_equal(got: TreeSolution, want: TreeSolution):
    for name in ("Y", "Z", "U", "dK", "S"):
        for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestSupEnvelopeSequence:
    def test_lipschitz_identity_at_matching_slope(self):
        prob = make_problem(f="-abs(y)", terminal="w1", T=0.5, N=3, marks=MARKS)
        direct = solve_tree_exact(prob).to_solution_grid()
        run = run_sup_envelope_sequence(prob, ENV, ns=[1])
        assert run.mode == "sup_envelope"
        assert run.y0_series[0] == pytest.approx(direct.root_value(), abs=1e-12)
        sol = run.tree_solutions[0].to_solution_grid()
        assert np.abs(sol.Y - direct.Y).max() <= 1e-12

    def test_roots_nonincreasing(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_sup_envelope_sequence(prob, ENV, ns=[1, 2, 4])
        diffs = np.diff(run.y0_series)
        assert (diffs <= 1e-10).all()
        assert run.report["monotone_ok"]
        assert min(run.report["pair_margins"]) >= -1e-10
        assert run.upper_tree is None

    def test_sup_starts_at_or_above_inf(self):
        # at n = 1 both envelopes of a 1-Lipschitz f coincide with f
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        lo = run_inf_envelope_sequence(prob, ENV, ns=[1])
        hi = run_sup_envelope_sequence(prob, ENV, ns=[1])
        assert hi.y0_series[0] == pytest.approx(lo.y0_series[0], abs=1e-12)


class TestUpperBound:
    def test_dominates_the_zero_generator_solve(self):
        prob = make_problem(f="0", terminal="w1", T=0.5, N=3, marks=MARKS)
        direct = solve_tree_exact(prob)
        v = solve_upper_bound_tree(prob).to_solution_grid().validate()
        assert v.root_value() > direct.root_value()
        assert v.root_value() > 1.0  # the constant term alone integrates past T

    def test_expression_route_matches_the_builtin_coefficient(self):
        prob = make_problem(f="0", terminal="w1", T=0.5, N=3, marks=MARKS)
        v1 = solve_upper_bound_tree(prob)
        alt = make_problem(
            f="1 + abs(y) + znorm + unorm", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        v2 = solve_tree_exact(alt)
        assert v1.root_value() == pytest.approx(v2.root_value(), abs=1e-12)
        for a, b in zip(v1.Y, v2.Y):
            assert np.abs(a - b).max() <= 1e-12


class TestBracketing:
    def test_linear_f_with_exact_modulus_is_a_fixed_point(self):
        # pi equal to the increment of f makes every iterate solve the
        # true equation: f(prev) + pi(y - prev) = f(y)
        prob = make_problem(
            f="0.5*y", pi="0.5*y", rate="0", terminal="w1 + 1", barrier="-4",
            T=0.5, N=3,
        )
        direct = solve_tree_exact(prob).to_solution_grid()
        run = run_bracketing_sequence(prob, ns_count=3)
        assert run.mode == "bracketing"
        for root, ts in zip(run.y0_series, run.tree_solutions):
            sol = ts.to_solution_grid()
            assert root == pytest.approx(direct.root_value(), abs=1e-12)
            assert np.abs(sol.Y - direct.Y).max() <= 1e-12
        assert run.report["sandwich_ok"]
        assert run.report["lower_root"] < direct.root_value() < run.report["upper_root"]

    def test_discontinuous_f_is_sandwiched_and_stabilizes(self):
        prob = make_problem(
            f="indicator_pos(y)", pi="0", rate="1", barrier="-4",
            terminal="w1 + 0.2", T=0.25, N=4,
        )
        run = run_bracketing_sequence(prob, ns_count=5)
        assert run.y0_series == pytest.approx(
            [0.32109375, 0.35234375, 0.38359375, 0.38359375, 0.38359375],
            abs=1e-12,
        )
        assert run.report["lower_root"] == pytest.approx(-0.3166553497314453, abs=1e-12)
        assert run.report["upper_root"] == pytest.approx(0.762544822692871, abs=1e-12)
        assert run.report["sandwich_worst"] >= -1e-10
        assert run.report["sandwich_ok"]
        assert run.report["monotone_ok"]
        # successive gaps shrink to zero once the iteration locks in
        gaps = np.abs(np.diff(run.y0_series))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] == 0.0
        assert run.lower_anchor_tree is not None and run.upper_anchor_tree is not None

    def test_certificates_recorded(self):
        prob = make_problem(
            f="indicator_pos(y)", pi="0", rate="1", barrier="-4",
            terminal="w1 + 0.2", T=0.25, N=4,
        )
        run = run_bracketing_sequence(prob, ns_count=2)
        certs = run.report["certificates"]
        assert certs["signed_growth_excess"] <= 1e-9
        assert certs["pi_worst"] <= 1e-9
        assert certs["g_worst"] <= 1e-9

    def test_needs_pi_and_rate(self):
        with pytest.raises(ConfigError, match="needs the increment modulus pi"):
            run_bracketing_sequence(make_problem(f="0", rate="1"))
        with pytest.raises(ConfigError, match="needs the dominating rate"):
            run_bracketing_sequence(make_problem(f="0", pi="0"))
        with pytest.raises(ConfigError, match="ns_count must be >= 1"):
            run_bracketing_sequence(
                make_problem(f="0", pi="0", rate="0"), ns_count=0
            )

    def test_signed_growth_certificate_gates(self):
        prob = make_problem(f="5*y", pi="0", rate="0", terminal="w1")
        with pytest.raises(ConfigError, match="signed growth certificate failed"):
            run_bracketing_sequence(prob)

    def test_negative_rate_rejected_on_the_grid(self):
        prob = make_problem(f="0", pi="0", rate="10*t - 0.01", terminal="w1")
        with pytest.raises(ConfigError, match="dominating rate f_t is negative"):
            run_bracketing_sequence(prob)

    def test_modulus_certificate_gates(self):
        prob = make_problem(f="0.1*y", pi="y", rate="1", terminal="w1")
        with pytest.raises(ConfigError, match="modulus certificate failed"):
            run_bracketing_sequence(prob)

    def test_modulus_growth_breach_is_refused_under_its_own_name(self):
        # f differences never dip below pi = -2|dz|, but |pi| = 2|dz| breaks
        # the growth bound growth_c*(|dy|+|dz|+|du|) with growth_c = 1
        prob = make_problem(f="indicator_pos(y)", pi="-2*abs(z1)", rate="1", terminal="w1", N=2)
        refusal = r"modulus growth certificate failed: \|pi\| exceeds growth_c"
        with pytest.raises(ConfigError, match=refusal):
            run_bracketing_sequence(prob)

    def test_contraction_certificate_gates(self):
        prob = make_problem(f="0", g="z1", pi="0", rate="0", terminal="w1")
        with pytest.raises(ConfigError, match="contraction certificate failed for g"):
            run_bracketing_sequence(prob)


def _chained_bracketing(prob, tree, count):
    """The bracketing solutions as one solve each, chained: the anchors at
    -+(C(|y|+|z|+|u|_lambda) + f_t), then iterate n with f frozen at
    iterate n-1's node values (iterate 0: the lower anchor) plus pi of the
    increment.  Returns [lower, iterate 1..count, upper]."""
    gen, lam = prob.generator, prob.marks.intensities

    def anchor(sign):
        def fn(t, y, z, u, w, j):
            ay, zn, un = size_norms(y, z, u, lam)
            rate = float(np.asarray(evaluate(gen.rate, EvalContext(t=float(t)))))
            return sign * (gen.growth_C * (ay + zn + un) + rate)

        return fn

    def frozen(prev):
        def fn(t, y, z, u, w, j):
            i = np.searchsorted(prob.grid.times, t)  # t is exactly grid.times[i]
            py, pz, pu = prev.Y[i], prev.Z[i], prev.U[i]
            base = evaluate(gen.f, EvalContext(t=t, y=py, z=pz, u=pu, w=w, j=j, intensities=lam))
            inc = evaluate(
                gen.pi, EvalContext(t=t, y=y - py, z=z - pz, u=u - pu, intensities=lam)
            )
            return np.asarray(base, dtype=float) + np.asarray(inc, dtype=float)

        return fn

    chain = [solve_tree_exact(prob, tree, f_fn=anchor(-1.0))]
    for _ in range(count):
        chain.append(solve_tree_exact(prob, tree, f_fn=frozen(chain[-1])))
    return chain + [solve_tree_exact(prob, tree, f_fn=anchor(1.0))]


def _bracketing_case(name):
    """The problems of ``TestBracketingPass``."""
    if name == "two_w_axes_and_a_mark":
        gen = GeneratorSpec(f="indicator_pos(y) + 0.1*z2", g="0", pi="0.1*z2", rate="1")
        grid = build_time_grid(0.5, 3)
        return ProblemSpec(grid, 2, MARKS, gen, "w1 + 2*(0.3 - t)", "w1 + 0.5*w2 + 0.2*j1 + 0.7")
    if name == "benchmark":  # the bracketing workload's problem: no barrier binds
        return make_problem(**dict(BRACKETING, T=0.5, N=6, marks=MARKS))
    binding = dict(
        BRACKETING, barrier="w1 + 4*(0.25 - t)", terminal="w1 + 0.2 + 0.2*j1", marks=MARKS
    )
    kw = {
        "exhaustive_b_axis": dict(binding, g="0.1*y"),
        "f_reads_w_and_j": dict(
            binding, f="indicator_pos(y) + 0.05*w1 + 0.05*j1",
            pi="-3*(abs(y) + znorm + unorm)", growth_C=3.0,
        ),
    }[name]
    return make_problem(**kw)


def _fresh(sol):
    """sol's slices in a new solution, whose K moments and norms are its own."""
    return TreeSolution(sol.problem, sol.tree, sol.Y, sol.Z, sol.U, sol.dK, sol.S)


def _same_slices(a, b):
    for name in ("Y", "Z", "U", "dK", "S"):
        for sa, sb in zip(getattr(a, name), getattr(b, name), strict=True):
            assert sa.shape == sb.shape and sa.tobytes() == sb.tobytes(), name


class TestBracketingPass:
    """A bracketing run is one backward pass over the anchors and the
    iterates; each solution is bitwise its own chained solve, and the
    norms and distances taken on the pass are bitwise those of each
    solution on its own."""

    @pytest.mark.parametrize(
        "case,count",
        [
            ("benchmark", 5),
            ("benchmark", 1),
            ("benchmark", 8),
            ("exhaustive_b_axis", 3),
            ("two_w_axes_and_a_mark", 3),
            ("f_reads_w_and_j", 3),
        ],
    )
    def test_members_equal_the_chained_solves(self, case, count):
        prob = _bracketing_case(case)
        tree = TreeModel(prob.grid, prob.dim_d, prob.marks, max_steps=6, b_axis=b_axis_for(prob))
        assert tree.b_axis == ("exhaustive" if case == "exhaustive_b_axis" else "collapsed")
        run = run_bracketing_sequence(prob, ns_count=count, tree=tree)
        got = [run.lower_anchor_tree, *run.tree_solutions, run.upper_anchor_tree]
        want = _chained_bracketing(prob, tree, count)
        assert len(got) == len(want) == count + 2
        for a, b in zip(got, want):
            _same_slices(a, b)
        assert run.y0_series == [ts.root_value() for ts in want[1:-1]]
        reflected = max(float(dk.max()) for sol in want for dk in sol.dK)
        assert (reflected > 0.0) == (case != "benchmark")

    @pytest.mark.parametrize("pipeline", ["bracketing", "inf", "sup"])
    def test_pass_norms_equal_the_per_solution_ones(self, pipeline):
        if pipeline == "bracketing":
            run = run_bracketing_sequence(_bracketing_case("exhaustive_b_axis"), ns_count=4)
        else:
            prob = make_problem(
                f="min(abs(y), 2)", g="0.1*y", terminal="w1 + 0.2*j1", T=0.5, N=3, marks=MARKS
            )
            runner = run_inf_envelope_sequence if pipeline == "inf" else run_sup_envelope_sequence
            run = runner(prob, ENV, ns=[1, 2, 4, 8])
        sols = run.tree_solutions
        assert len(sols) >= 3
        for got, sol in zip(run.report["norms"], sols, strict=True):
            assert got == tree_norm_report(_fresh(sol))
            assert sol.k_moments == _fresh(sol).k_moments
        tree = sols[0].tree
        # each pair's difference reduced as one solution of its own
        diffs = [
            backward_reductions(
                tree,
                [zb - za for za, zb in zip(a.Z, b.Z)],
                [ub - ua for ua, ub in zip(a.U, b.U)],
                a.dK,
                a.Y,
                work=0,  # the Z/U norms only
            ).zu_norms
            for a, b in zip(sols, sols[1:])
        ]
        assert run.report["z_diffs"] == [z for (z,), _ in diffs]
        assert run.report["u_diffs"] == [u for _, (u,) in diffs]
        assert max(run.report["z_diffs"]) > 0.0 and max(run.report["u_diffs"]) > 0.0


class TestSequenceCsv:
    def test_envelope_rows(self):
        prob = make_problem(
            f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS
        )
        run = run_inf_envelope_sequence(prob, ENV, ns=[1, 2, 4])
        rows = list(sequence_csv_rows(run))
        assert rows[0] == ["n", "y0", "k_t_mean", "z_norm_sq", "u_norm_sq", "margin"]
        assert len(rows) == 1 + 3
        assert [r[0] for r in rows[1:]] == [1.0, 2.0, 4.0]
        assert [r[1] for r in rows[1:]] == run.y0_series
        assert rows[1][-1] == 0.0  # first row has no predecessor

    def test_bracketing_rows(self):
        prob = make_problem(
            f="indicator_pos(y)", pi="0", rate="1", barrier="-4",
            terminal="w1 + 0.2", T=0.25, N=4,
        )
        run = run_bracketing_sequence(prob, ns_count=3)
        rows = list(sequence_csv_rows(run))
        assert len(rows) == 1 + 3
        # first margin is against the lower anchor, not a dummy zero
        assert rows[1][-1] == run.report["pair_margins"][0]

    def test_k_t_mean_column_matches_the_paths(self):
        prob = make_problem(**dict(BRACKETING, barrier="w1 + 4*(0.25 - t)"))
        run = run_bracketing_sequence(prob, ns_count=2)
        rows = list(sequence_csv_rows(run))[1:]
        for row, ts in zip(rows, run.tree_solutions):
            sol = ts.to_solution_grid()
            k_mean = float(sol.weights @ sol.K[:, -1])
            assert k_mean > 0.0
            assert row[2] == pytest.approx(k_mean, rel=1e-12)


BRACKETING = dict(
    f="indicator_pos(y)", pi="0", rate="1", barrier="-4",
    terminal="w1 + 0.2", T=0.25, N=4,
)


def _corrupt_solve(monkeypatch, call, member=None):
    """Make the call-th tree solve of a pipeline (0-based) return a
    solution with one negative dK, at slice 1, node 1 (of the given
    member of a solve with members); other solves are untouched."""
    calls = []
    real = schemes.solve_tree_exact

    def solve(*args, **kwargs):
        sol = real(*args, **kwargs)
        if len(calls) == call:
            (sol.dK[1] if member is None else sol.dK[1][..., member]).flat[1] = -1e-300
        calls.append(sol)
        return sol

    monkeypatch.setattr(schemes, "solve_tree_exact", solve)
    return calls


class TestNodeChecksGateTheRun:
    """Every tree solution of a run is validated on its slices, the
    companions included, and a failure names the solution; no path view
    is built."""

    @pytest.mark.parametrize(
        "member,name", [(0, "the lower anchor"), (3, "the upper anchor"), (2, "iterate 2")],
    )
    def test_bracketing_aborts(self, monkeypatch, member, name):
        # ns_count = 2: one pass of the lower anchor, iterates 1 and 2, the upper anchor
        _corrupt_solve(monkeypatch, 0, member)
        refusal = rf"negative dK at \(slice, node\) \(1, 1\) of {name}$"
        with pytest.raises(SolverError, match=refusal):
            run_bracketing_sequence(make_problem(**BRACKETING), ns_count=2)

    @pytest.mark.parametrize(
        "members,name",
        [([3, 1], "the upper anchor"), ([2, 1], "iterate 1"), ([2, 0], "the lower anchor")],
    )
    def test_bracketing_reports_the_first_solution_in_chained_order(
        self, monkeypatch, members, name
    ):
        """The chained solves ran the lower anchor, the upper anchor, then
        the iterates: the first of the failing solutions in that order is
        the one reported."""

        def solve(*args, **kwargs):
            sol = solve_tree_exact(*args, **kwargs)
            for k in members:
                sol.dK[2][..., k].flat[0] = np.nan
            return sol

        monkeypatch.setattr(schemes, "solve_tree_exact", solve)
        refusal = rf"non-finite dK at \(slice, node\) \(2, 0\) of {name}$"
        with pytest.raises(SolverError, match=refusal):
            run_bracketing_sequence(make_problem(**BRACKETING), ns_count=2)

    def test_envelope_member_aborts_naming_its_index(self, monkeypatch):
        prob = make_problem(f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS)
        _corrupt_solve(monkeypatch, 0, 1)
        refusal = r"negative dK at \(slice, node\) \(1, 1\) of index n = 2$"
        with pytest.raises(SolverError, match=refusal):
            run_inf_envelope_sequence(prob, ENV, ns=[1, 2])

    def test_upper_bound_v_aborts(self, monkeypatch):
        prob = make_problem(f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS)
        calls = _corrupt_solve(monkeypatch, 0, 2)  # one pass: n = 1 and 2, then V
        refusal = r"negative dK at \(slice, node\) \(1, 1\) of the upper bound V$"
        with pytest.raises(SolverError, match=refusal):
            run_inf_envelope_sequence(prob, ENV, ns=[1, 2])
        assert len(calls) == 1 and calls[0].members == 3

    def test_an_index_is_reported_before_v(self, monkeypatch):
        prob = make_problem(f="min(abs(y), 2)", terminal="w1", T=0.5, N=3, marks=MARKS)

        def solve(*args, **kwargs):
            sol = solve_tree_exact(*args, **kwargs)
            for k in (2, 1):  # V, then index n = 2
                sol.dK[1][..., k].flat[0] = np.nan
            return sol

        monkeypatch.setattr(schemes, "solve_tree_exact", solve)
        refusal = r"non-finite dK at \(slice, node\) \(1, 0\) of index n = 2$"
        with pytest.raises(SolverError, match=refusal):
            run_inf_envelope_sequence(prob, ENV, ns=[1, 2])

    def test_uncorrupted_run_passes(self, monkeypatch):
        calls = _corrupt_solve(monkeypatch, 99)
        run_bracketing_sequence(make_problem(**BRACKETING), ns_count=2)
        assert len(calls) == 1 and calls[0].members == 4
