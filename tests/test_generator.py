"""Structural checks and Lipschitz envelopes."""

import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbdsdep.cli import run_pipeline
from rbdsdep.config import config_from_dict
from rbdsdep.errors import ConfigError, EnvelopeError
from rbdsdep.expr import EvalContext, evaluate, parse_expr, variables
from rbdsdep.schemes import run_inf_envelope_sequence, run_sup_envelope_sequence
from rbdsdep.generator import (
    ENVELOPE_BLOCK_QUERIES,
    _block_view,
    _lower_envelope_lookup,
    _lower_envelope_tables,
    _min_scan,
    PREMISE_SLACK,
    EnvelopeFunction,
    EnvelopeParams,
    GeneratorSpec,
    check_g_contraction,
    check_linear_growth,
    check_pi_minorant,
    check_rate_nonnegative,
    check_signed_growth,
    envelope_table,
    inf_convolution,
    sample_cloud,
    size_norms,
    sup_convolution,
)


class TestGeneratorSpec:
    def test_accepts_strings_and_asts(self):
        spec = GeneratorSpec(f="y + z1", g=parse_expr("0.5*z1"))
        assert spec.f == parse_expr("y + z1")

    def test_growth_constant_positive(self):
        with pytest.raises(ConfigError, match="C must be positive"):
            GeneratorSpec(f="y", g="0", growth_C=0.0)

    def test_alpha_strictly_inside_unit_interval(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError, match="alpha"):
                GeneratorSpec(f="y", g="0", contraction_alpha=alpha)
        GeneratorSpec(f="y", g="0", contraction_alpha=0.999)

    def test_pi_must_not_read_driver_paths(self):
        with pytest.raises(ConfigError, match="pi must not reference 'w1'"):
            GeneratorSpec(f="y", g="0", pi="w1")
        with pytest.raises(ConfigError, match="pi must not reference 'j1'"):
            GeneratorSpec(f="y", g="0", pi="j1 + y")

    def test_rate_is_time_only(self):
        GeneratorSpec(f="y", g="0", rate="1 + t")
        with pytest.raises(ConfigError, match="rate f_t must not reference"):
            GeneratorSpec(f="y", g="0", rate="y")
        with pytest.raises(ConfigError, match="rate f_t must not reference"):
            GeneratorSpec(f="y", g="0", rate="z1")


def paired_clouds(size, seed, dim_d=1, num_marks=1, intensities=None):
    a = sample_cloud(size, seed, dim_d, num_marks, intensities=intensities)
    b = sample_cloud(size, seed + 1, dim_d, num_marks, intensities=intensities)
    b.t = a.t  # the pairwise checks require a shared time point
    return a, b


class TestLinearGrowth:
    def test_sign_passes_any_cloud(self):
        spec = GeneratorSpec(f="sign(y)", g="0", growth_C=1.0)
        report = check_linear_growth(spec, sample_cloud(512, 7, 2, 2))
        assert report.passed
        assert report.worst <= 1.0

    def test_quadratic_violates_at_the_box_edge(self):
        spec = GeneratorSpec(f="y*y", g="0", growth_C=1.0)
        cloud = EvalContext(
            t=np.zeros(7),
            y=np.linspace(-3.0, 3.0, 7),
            z=np.zeros((7, 1)),
            u=np.zeros((7, 1)),
            intensities=np.ones(1),
        )
        report = check_linear_growth(spec, cloud)
        assert not report.passed
        # 9 > 1 + 3 at y = 3; worst ratio 9/4
        assert report.worst == pytest.approx(2.25)
        assert report.name == "linear-growth"
        # y in {-3, -2, 2, 3} break the bound; the rest alone pass
        inner = EvalContext(t=np.zeros(3), y=np.array([-1.0, 0.0, 1.0]),
                            z=np.zeros((3, 1)), u=np.zeros((3, 1)), intensities=np.ones(1))
        assert check_linear_growth(spec, inner).passed

    def test_equality_case_has_worst_ratio_one(self):
        spec = GeneratorSpec(f="1 + abs(y) + znorm + unorm", g="0", growth_C=1.0)
        report = check_linear_growth(spec, sample_cloud(256, 3, 2, 2))
        assert report.passed
        assert report.worst == pytest.approx(1.0, abs=1e-12)


class TestContraction:
    def test_half_z_passes_exactly(self):
        spec = GeneratorSpec(f="0", g="0.5*z1", contraction_alpha=0.25)
        a, b = paired_clouds(256, 11)
        report = check_g_contraction(spec, a, b)
        assert report.passed
        assert report.worst <= 0.0

    def test_full_z_fails_at_alpha_half(self):
        spec = GeneratorSpec(f="0", g="z1", contraction_alpha=0.5)
        a, b = paired_clouds(256, 11)
        report = check_g_contraction(spec, a, b)
        assert not report.passed
        # worst is the largest excess of |g(a)-g(b)|^2 over its bound
        assert report.worst > PREMISE_SLACK

    def test_mixed_y_u_coefficient_against_brute_force(self):
        # g = y + 0.3*sqrt(2)*u1 with intensity 2: the cross term needs
        # (a+b)^2 <= 2a^2 + 2b^2, i.e. C = 2 and alpha = 0.18; the halved
        # constants admit violating pairs
        lam = np.array([2.0])
        a, b = paired_clouds(512, 21, intensities=lam)
        # plant the adversarial direction dy = sqrt(2)*du
        a.y[0], b.y[0] = 1.0, 0.0
        a.u[0, 0], b.u[0, 0] = 1.0 / np.sqrt(2.0), 0.0
        a.z[0, 0] = b.z[0, 0] = 0.0
        dy = a.y - b.y
        dz = a.z - b.z
        du = a.u - b.u
        lhs = (dy + 0.3 * np.sqrt(2.0) * du[:, 0]) ** 2
        for C, alpha in ((2.0, 0.18), (1.0, 0.09)):
            rhs = C * dy**2 + alpha * ((dz**2).sum(axis=1) + (lam * du**2).sum(axis=1))
            oracle_pass = bool((lhs <= rhs + 1e-9).all())
            spec = GeneratorSpec(
                f="0", g="y + 0.3*sqrt(2)*u1", growth_C=C, contraction_alpha=alpha
            )
            report = check_g_contraction(spec, a, b)
            assert report.passed == oracle_pass
        assert check_g_contraction(
            GeneratorSpec(f="0", g="y + 0.3*sqrt(2)*u1", growth_C=2.0,
                          contraction_alpha=0.18),
            a, b,
        ).passed
        assert not check_g_contraction(
            GeneratorSpec(f="0", g="y + 0.3*sqrt(2)*u1", growth_C=1.0,
                          contraction_alpha=0.09),
            a, b,
        ).passed

    def test_requires_shared_times(self):
        spec = GeneratorSpec(f="0", g="z1")
        a = sample_cloud(8, 1, 1, 1)
        b = sample_cloud(8, 2, 1, 1)
        with pytest.raises(ConfigError, match="equal t"):
            check_g_contraction(spec, a, b)


class TestMinorant:
    def test_monotone_indicator_passes_with_zero_modulus(self):
        spec = GeneratorSpec(f="indicator_pos(y)", g="0", pi="0")
        a, b = paired_clouds(256, 31)
        report = check_pi_minorant(spec, a, b)
        assert report.passed

    def test_linear_f_with_matching_modulus(self):
        # f(a) - f(b) = dy + dz1 >= -|dz1| whenever dy >= 0
        spec = GeneratorSpec(f="y + z1", g="0", pi="-abs(z1)")
        a, b = paired_clouds(256, 41)
        report = check_pi_minorant(spec, a, b)
        assert report.passed

    def test_decreasing_f_fails_zero_modulus(self):
        spec = GeneratorSpec(f="-2*y", g="0", pi="0")
        a, b = paired_clouds(256, 51)
        report = check_pi_minorant(spec, a, b)
        assert not report.passed
        # worst is the shortfall below pi, so a minorant failure exceeds the slack
        assert report.worst > PREMISE_SLACK

    def test_modulus_growth_bound_enforced(self):
        # minorant inequality is tight but |pi| breaches C(|dy|+|dz|+|du|)
        spec = GeneratorSpec(f="5*y", g="0", pi="5*y", growth_C=1.0)
        a, b = paired_clouds(256, 61)
        report = check_pi_minorant(spec, a, b)
        # no shortfall below pi: the growth bound, not the minorant, failed,
        # and the certificate says so with the excess of |pi| over it
        assert not report.passed and report.name == "pi-growth"
        assert report.worst > PREMISE_SLACK

    def test_missing_pi(self):
        spec = GeneratorSpec(f="y", g="0")
        a, b = paired_clouds(8, 71)
        with pytest.raises(ConfigError, match="no lower modulus"):
            check_pi_minorant(spec, a, b)


class TestSignedGrowth:
    def test_bounded_f_passes_with_its_rate(self):
        spec = GeneratorSpec(f="sign(y) + 0.5*t", g="0", rate="1 + 0.5*t")
        report = check_signed_growth(spec, sample_cloud(256, 13, 1, 1))
        assert report.passed and report.name == "signed-growth"
        assert report.worst <= PREMISE_SLACK

    def test_excess_over_the_rate_fails_with_its_size(self):
        # |f| = 2 against f_t = 1 at y = z = u = 0: excess exactly 1
        spec = GeneratorSpec(f="2", g="0", rate="1")
        cloud = EvalContext(t=np.zeros(2), y=np.array([0.0, 3.0]),
                            z=np.zeros((2, 1)), u=np.zeros((2, 1)), intensities=np.ones(1))
        report = check_signed_growth(spec, cloud)
        assert not report.passed
        assert report.worst == pytest.approx(1.0)


class TestRateNonnegative:
    def test_worst_is_the_minimum_on_the_times(self):
        spec = GeneratorSpec(f="0", g="0", rate="t - 0.25")
        report = check_rate_nonnegative(spec, np.linspace(0.0, 1.0, 5))
        assert not report.passed and report.name == "rate_nonnegative"
        assert report.worst == pytest.approx(-0.25)
        assert check_rate_nonnegative(spec, np.array([0.25, 1.0])).passed

    def test_constant_rate_spans_every_time(self):
        spec = GeneratorSpec(f="0", g="0", rate="0")
        report = check_rate_nonnegative(spec, np.linspace(0.0, 1.0, 4))
        assert report.passed and report.worst == 0.0


class TestSizeNorms:
    def test_intensity_weighted_jump_norm(self):
        y, z, u = np.array([-3.0]), np.array([[3.0, 4.0]]), np.array([[1.0, 2.0]])
        ay, zn, un = size_norms(y, z, u, np.array([4.0, 0.25]))
        assert (ay[0], zn[0]) == (3.0, 5.0)
        assert un[0] == pytest.approx(np.sqrt(4.0 + 1.0))


class TestSampleCloud:
    def test_shapes_and_ranges(self):
        cloud = sample_cloud(64, 5, 2, 3, t_max=2.0, radius=4.0)
        assert cloud.t.shape == (64,)
        assert cloud.z.shape == (64, 2)
        assert cloud.u.shape == (64, 3)
        assert cloud.t.min() >= 0.0 and cloud.t.max() <= 2.0
        assert np.abs(cloud.y).max() <= 4.0
        assert set(np.unique(cloud.j)) <= {0.0, 1.0, 2.0, 3.0}

    def test_reproducible(self):
        a = sample_cloud(32, 9, 1, 1)
        b = sample_cloud(32, 9, 1, 1)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)


Y_BOX = EnvelopeParams(n=2.0, box={"y": (-5.0, 5.0)}, grid_points=201)


def point(y, t=0.0, **kw):
    return EvalContext(t=t, y=y, **kw)


class TestEnvelopeClosedForms:
    def test_abs_is_its_own_inf_envelope(self):
        for y in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert inf_convolution("abs(y)", Y_BOX, point(y)) == pytest.approx(
                abs(y), abs=1e-12
            )

    def test_abs_is_its_own_sup_envelope(self):
        params = EnvelopeParams(n=1.0, box={"y": (-5.0, 5.0)}, grid_points=201)
        for y in (-2.0, 0.0, 1.5):
            assert sup_convolution("abs(y)", params, point(y)) == pytest.approx(
                abs(y), abs=1e-12
            )

    def test_quadratic_kink_formula(self):
        # inf over x of x^2 + n|y - x| = y^2 for |y| <= n/2, else n|y| - n^2/4
        params = EnvelopeParams(n=4.0, box={"y": (-10.0, 10.0)}, grid_points=201)
        for y in (-3.0, -2.0, -1.0, 0.0, 0.5, 1.9, 2.0, 2.5, 4.0, 8.0):
            expected = y * y if abs(y) <= 2.0 else 4.0 * abs(y) - 4.0
            got = inf_convolution("y*y", params, point(y))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_heaviside_inf_envelope(self):
        params = EnvelopeParams(n=5.0, box={"y": (-5.0, 5.0)}, grid_points=201)
        for y in (-1.0, -0.05, 0.0, 0.1, 0.15, 0.2, 0.3, 2.0):
            expected = min(1.0, 5.0 * max(y, 0.0))
            got = inf_convolution("indicator_pos(y)", params, point(y))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_heaviside_sup_envelope_matches_grid_oracle(self):
        n = 5.0
        grid = np.linspace(-5.0, 5.0, 201)
        params = EnvelopeParams(n=n, box={"y": (-5.0, 5.0)}, grid_points=201)
        f_grid = (grid > 0).astype(float)
        step = grid[1] - grid[0]
        for y in (-2.0, -0.15, -0.1, 0.0, 0.1, 1.0):
            oracle = (f_grid - n * np.abs(y - grid)).max()
            got = sup_convolution("indicator_pos(y)", params, point(y))
            assert got == pytest.approx(oracle, abs=1e-12)
            # closed form max(0, 1 - n*neg(y)) up to one grid cell
            closed = max(0.0, 1.0 - n * max(-y, 0.0))
            assert abs(got - closed) <= n * step + 1e-12

    def test_quadratic_sup_envelope_with_dominating_index(self):
        params = EnvelopeParams(n=10.0, box={"y": (-2.0, 2.0)}, grid_points=201)
        for y in (-2.0, -1.0, 0.0, 0.5, 2.0):
            assert sup_convolution("y*y", params, point(y)) == pytest.approx(
                y * y, abs=1e-9
            )

    def test_intensity_weighted_jump_axis(self):
        # penalty on the u-axis is n*sqrt(lambda)*|du|; with lambda = 0.04
        # the slope 0.2 loses to |u'| and the optimum sits at u' = 0
        params = EnvelopeParams(n=1.0, box={"u1": (-5.0, 5.0)}, grid_points=201)
        pt = EvalContext(t=0.0, y=0.0, u=np.array([2.0]), intensities=np.array([0.04]))
        got = inf_convolution("abs(u1)", params, pt)
        assert got == pytest.approx(0.2 * 2.0, abs=1e-12)

    def test_two_axis_envelope(self):
        params = EnvelopeParams(
            n=2.0, box={"y": (-2.0, 2.0), "z1": (-2.0, 2.0)}, grid_points=81
        )
        pt = EvalContext(t=0.0, y=0.5, z=np.array([0.25]))
        got = inf_convolution("abs(y) + znorm", params, pt)
        assert got == pytest.approx(0.75, abs=1e-12)


CATALOG = (
    ("min(abs(y), 2)", (-4.0, -1.0, 0.0, 0.8, 3.0)),
    ("y*y", (-4.0, -1.0, 0.0, 0.8, 3.0)),
    ("indicator_pos(y)", (-4.0, -1.0, 0.0, 0.8, 3.0)),
)


class TestEnvelopeOrdering:
    @pytest.mark.parametrize("source,queries", CATALOG)
    def test_order_chain_in_n(self, source, queries):
        box = {"y": (-5.0, 5.0)}
        f = parse_expr(source)
        for y in queries:
            fy = float(evaluate(f, EvalContext(t=0.0, y=y)))
            prev_inf, prev_sup = -np.inf, np.inf
            for n in (1.0, 2.0, 4.0, 8.0, 32.0):
                params = EnvelopeParams(n=n, box=box, grid_points=201)
                lo = inf_convolution(source, params, point(y))
                hi = sup_convolution(source, params, point(y))
                assert prev_inf <= lo + 1e-12
                assert lo <= fy + 1e-12
                assert hi >= fy - 1e-12
                assert hi <= prev_sup + 1e-12
                prev_inf, prev_sup = lo, hi

    def test_envelope_callable_is_n_lipschitz_with_grid_slack(self):
        params = EnvelopeParams(n=4.0, box={"y": (-5.0, 5.0)}, grid_points=201)
        env = EnvelopeFunction("y*y", params, "inf")
        ys = np.linspace(-4.0, 4.0, 161)
        vals = env(0.0, ys)
        slack = 2.0 * (10.0 / 201)
        diffs = np.abs(np.diff(vals))
        steps = np.abs(np.diff(ys))
        assert (diffs <= 4.0 * steps + slack).all()


class TestEnvelopeGuards:
    def test_params_validation(self):
        with pytest.raises(ConfigError, match="n must be >= 1"):
            EnvelopeParams(n=0.5, box={"y": (-1.0, 1.0)})
        with pytest.raises(ConfigError, match="grid_points"):
            EnvelopeParams(n=2.0, box={"y": (-1.0, 1.0)}, grid_points=1)
        with pytest.raises(ConfigError, match="lo < hi"):
            EnvelopeParams(n=2.0, box={"y": (1.0, 1.0)})

    def test_kind_checked(self):
        with pytest.raises(ConfigError, match="'inf' or 'sup'"):
            EnvelopeFunction("abs(y)", Y_BOX, "mid")

    def test_index_below_growth_constant(self):
        with pytest.raises(ConfigError, match="below the growth constant"):
            EnvelopeFunction("abs(y)", Y_BOX, "inf", growth_c=3.0)

    def test_missing_box_axis(self):
        with pytest.raises(ConfigError, match="missing an interval for 'z1'"):
            EnvelopeFunction("abs(y) + z1", Y_BOX, "inf")

    def test_state_free_expression_rejected(self):
        with pytest.raises(ConfigError, match="references none of"):
            EnvelopeFunction("1 + t", Y_BOX, "inf")

    def test_znorm_needs_explicit_dimension(self):
        with pytest.raises(ConfigError, match="pass dim_d explicitly"):
            EnvelopeFunction("znorm", Y_BOX, "inf")

    def test_query_outside_box(self):
        env = EnvelopeFunction("abs(y)", Y_BOX, "inf")
        with pytest.raises(EnvelopeError, match="outside the box"):
            env(0.0, np.array([6.0]))

    def test_boundary_optimum_raises_when_asked(self):
        # slope 2 beats the n = 1 penalty, so the minimizer runs to the edge
        params = EnvelopeParams(n=1.0, box={"y": (-1.0, 1.0)}, grid_points=41)
        env = EnvelopeFunction("-2*y", params, "inf", raise_on_boundary=True)
        with pytest.raises(EnvelopeError, match="box edge"):
            env(0.0, np.array([0.0]))

    def test_boundary_optimum_counted_when_tolerated(self):
        params = EnvelopeParams(n=1.0, box={"y": (-1.0, 1.0)}, grid_points=41)
        env = EnvelopeFunction("-2*y", params, "inf")
        env(0.0, np.array([0.0]))
        assert env.boundary_hits > 0

    def test_query_on_edge_is_legitimate(self):
        env = EnvelopeFunction("abs(y)", Y_BOX, "inf", raise_on_boundary=True)
        got = env(0.0, np.array([5.0]))
        assert got[0] == pytest.approx(5.0, abs=1e-12)
        assert env.boundary_hits == 0


class TestEnvelopeMembers:
    """Several indices n in one envelope, on a trailing member axis of the
    queries, cut into blocks that may run on a pool."""

    NS = [1.0, 2.0, 4.0, 8.0]
    PARAMS = EnvelopeParams(n=1.0, box={"y": (-1.0, 1.0)}, grid_points=41)
    # f drops by 1 at the box end y = 1 only, so an optimum lands on that
    # edge exactly when n * (1 - y) < 1
    F = "-indicator_pos(y - 0.97)"

    def queries(self, hits):
        """1000 nodes x 4 members, several blocks: every query at y = -0.5
        (no member reaches the edge) except the given (node, member) ones."""
        y = np.full((1000, len(self.NS)), -0.5)
        for (node, member), value in hits.items():
            y[node, member] = value
        assert y.size >= 3 * ENVELOPE_BLOCK_QUERIES
        return y

    def run(self, y, threads, raise_on_boundary=False):
        """One call, on a pool of `threads` threads when threads > 1, under
        a tight switch interval so that the blocks interleave."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
                env = EnvelopeFunction(
                    self.F, self.PARAMS, "inf", ns=self.NS,
                    raise_on_boundary=raise_on_boundary, pool=pool,
                )
                return env, env(0.0, y)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_members_equal_one_member_envelopes(self, threads):
        # edge optima in the first and the last block, members n = 1, 2, 4
        y = self.queries({(0, 0): 0.2, (0, 1): 0.7, (999, 1): 0.7, (999, 2): 0.9})
        env, got = self.run(y, threads)
        hits = 0
        for k, n in enumerate(self.NS):
            single = EnvelopeFunction(self.F, replace(self.PARAMS, n=n), "inf")
            assert got[:, k].tobytes() == single(0.0, y[:, k]).tobytes()
            hits += single.boundary_hits
        assert env.boundary_hits == hits == 4

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "hits,refusal",
        [
            # members n = 2 and 4 reach the edge in the last block; n = 1 does not
            (
                {(999, 1): 0.7, (999, 2): 0.9},
                r"^envelope optimum on the 'y' box edge at n = 2\.0; enlarge the box and rerun$",
            ),
            (
                {(999, 1): 1.5, (999, 3): -2.0},
                r"^envelope query for 'y' outside the box \[-1\.0, 1\.0\] at n = 2\.0: "
                r"range \[-0\.5, 1\.5\]$",
            ),
        ],
        ids=["box_edge", "outside_box"],
    )
    def test_refusal_names_the_lowest_member(self, hits, refusal, threads):
        with pytest.raises(EnvelopeError, match=refusal):
            self.run(self.queries(hits), threads, raise_on_boundary=True)

    def test_indices_checked(self):
        with pytest.raises(ConfigError, match="at least one index"):
            EnvelopeFunction(self.F, self.PARAMS, "inf", ns=[])
        with pytest.raises(ConfigError, match="n must be >= 1, got 0.5"):
            EnvelopeFunction(self.F, self.PARAMS, "inf", ns=[2.0, 0.5])
        with pytest.raises(ConfigError, match="n = 2.0 is below the growth constant 3"):
            EnvelopeFunction(self.F, self.PARAMS, "inf", ns=[4.0, 2.0], growth_c=3)

    def test_members_need_a_trailing_member_axis(self):
        env = EnvelopeFunction(self.F, self.PARAMS, "inf", ns=self.NS)
        with pytest.raises(ValueError, match="trailing axis of 4"):
            env(0.0, np.zeros((4, 3)))


class TestEnvelopeTable:
    def test_header_and_row_count(self):
        params = EnvelopeParams(n=2.0, box={"y": (-1.0, 1.0)}, grid_points=11)
        rows = list(envelope_table("abs(y)", params, "inf"))
        assert rows[0] == ["y", "value"]
        assert len(rows) == 1 + 11
        for y, value in rows[1:]:
            assert value == pytest.approx(abs(y), abs=1e-12)


def dense_envelope(env, t, y, z=None, u=None, w=None, j=None):
    """Reference envelope: the penalty n*(|dy| + |dz| + |du|) against every
    grid point as one dense (Q, G) matrix, then the first-index argmin
    (argmax for 'sup') over the C-ordered grid, each query with its
    member's n.  Returns the values and the boundary hits."""
    y = np.asarray(y, dtype=float)
    shape, Q = y.shape, y.size
    d, m = env.dim_d, env.num_marks
    yq = y.reshape(Q)
    zq = np.zeros((Q, d)) if z is None else np.broadcast_to(z, shape + (d,)).reshape(Q, d)
    uq = np.zeros((Q, m)) if u is None else np.broadcast_to(u, shape + (m,)).reshape(Q, m)
    G = env.coords.shape[0]
    gy, gz, gu = None, np.zeros((G, d)), np.zeros((G, m))
    dy, dz_sq, du_sq = np.zeros((Q, G)), np.zeros((Q, G)), np.zeros((Q, G))
    queries = []
    for col, name in enumerate(axis.name for axis in env.axes):
        gcol = env.coords[:, col]
        if name == "y":
            gy, vals = gcol, yq
            dy = np.abs(yq[:, None] - gcol[None, :])
        elif name[0] == "z":
            c = int(name[1:]) - 1
            gz[:, c], vals = gcol, zq[:, c]
            dz_sq += (vals[:, None] - gcol[None, :]) ** 2
        else:
            k = int(name[1:]) - 1
            gu[:, k], vals = gcol, uq[:, k]
            du_sq += env.intensities[k] * (vals[:, None] - gcol[None, :]) ** 2
        queries.append(vals)
    names = variables(env.f)
    w_q = None
    if any(n[0] == "w" for n in names) and w is not None:
        w_q = np.broadcast_to(w, shape + (d,)).reshape(Q, 1, d)
    j_q = None
    if any(n[0] == "j" for n in names) and j is not None:
        j_q = np.broadcast_to(j, shape + (m,)).reshape(Q, 1, m)
    fvals = evaluate(
        env.f, EvalContext(t=t, y=gy, z=gz, u=gu, w=w_q, j=j_q, intensities=env.intensities)
    )
    n = np.broadcast_to(env.ns, shape).reshape(Q, 1)
    penalty = n * (dy + np.sqrt(dz_sq) + np.sqrt(du_sq))
    if env.kind == "inf":
        total = fvals + penalty
        best = np.argmin(total, axis=-1)
    else:
        total = fvals - penalty
        best = np.argmax(total, axis=-1)
    values = total[np.arange(Q), best]
    P = env.params.grid_points
    multi = np.unravel_index(best, (P,) * len(env.axes))
    hits = 0
    for axis, vals, idx in zip(env.axes, queries, multi):
        lo, hi = env.params.box[axis.name]
        grid = np.linspace(float(lo), float(hi), P)
        nearest = np.clip(np.rint((vals - grid[0]) / (grid[1] - grid[0])).astype(int), 0, P - 1)
        hits += int((((idx == 0) | (idx == P - 1)) & (nearest != idx)).sum())
    return values.reshape(shape), hits


def dense_call(self, t, y, z=None, u=None, w=None, j=None):
    """EnvelopeFunction.__call__ through the dense reference."""
    values, hits = dense_envelope(self, t, y, z, u, w, j)
    if self.raise_on_boundary and hits:
        raise EnvelopeError("envelope optimum on the box edge")
    self.boundary_hits += hits
    return values


def _box_queries(rng, box, names, count):
    """Uniform queries, then queries on grid points, then on box ends."""
    cols = {}
    for name in names:
        lo, hi = box[name]
        grid = np.linspace(lo, hi, box["points"])
        cols[name] = np.concatenate(
            [
                rng.uniform(lo, hi, count),
                rng.choice(grid, count),
                rng.choice([lo, hi], count),
            ]
        )
    return cols


#: (expression, axes, box, n, dims, grid point counts, minimiser unique);
#: unique marks f Lipschitz below n on the box, or a strict slope to one end
ORACLE_CASES = [
    ("0.5*y*y", ("y",), (-2.0, 2.0), 4.0, (0, 0), (2, 3, 201), True),
    ("sqrt(abs(y))", ("y",), (-3.0, 3.0), 2.0, (0, 0), (2, 3, 201), False),
    ("-2*y", ("y",), (-1.0, 1.0), 1.0, (0, 0), (3, 41), True),
    ("sqrt(abs(y)) + abs(z1)", ("y", "z1"), (-6.0, 6.0), 2.0, (1, 0), (2, 3, 201), False),
    ("(1 + t)*(0.3*y - 0.5*z1)", ("y", "z1"), (-2.0, 2.0), 1.5, (1, 0), (3, 201), True),
    ("y*w1 + abs(z1)", ("y", "z1"), (-2.0, 2.0), 4.0, (1, 0), (2, 3, 201), True),
    ("indicator_pos(y) + abs(z1) + 0.5*u1", ("y", "z1", "u1"), (-2.0, 2.0), 3.0, (1, 1), (2, 3, 21), False),
    ("0.2*y + 0.3*z1 - 0.4*u1", ("y", "z1", "u1"), (-2.0, 2.0), 2.0, (1, 1), (2, 3, 21), True),
    ("sin(znorm)", ("z1", "z2"), (-2.0, 2.0), 2.0, (2, 0), (2, 3, 201), True),
    ("abs(y) + cos(znorm)", ("y", "z1", "z2"), (-2.0, 2.0), 3.0, (2, 0), (3, 21), True),
    ("sqrt(abs(y)) + unorm", ("y", "u1", "u2"), (-2.0, 2.0), 2.0, (0, 2), (3, 21), False),
]


class TestEnvelopeAgainstDenseOracle:
    """The block-wise reduction against a dense (Q, G) penalty matrix.

    Values agree to |delta| <= 1e-12*(1 + |value|).  Wherever the
    minimiser is unique, so that roundoff cannot move it, the values agree
    bitwise (signed zeros included) and so do the boundary hits."""

    @pytest.mark.parametrize("kind", ["inf", "sup"])
    @pytest.mark.parametrize(
        "source,names,interval,n,dims,sizes,unique",
        ORACLE_CASES,
        ids=[c[0] for c in ORACLE_CASES],
    )
    def test_matches_dense_penalty_matrix(
        self, kind, source, names, interval, n, dims, sizes, unique
    ):
        rng = np.random.default_rng(len(source))
        dim_d, num_marks = dims
        lam = np.array([0.4, 2.5])[:num_marks]
        for points in sizes:
            box = {name: interval for name in names}
            env = EnvelopeFunction(
                source,
                EnvelopeParams(n=n, box=box, grid_points=points),
                kind,
                dim_d=dim_d,
                num_marks=num_marks,
                intensities=lam,
            )
            cols = _box_queries(rng, dict(box, points=points), names, 12)
            Q = len(cols[names[0]])
            y = cols.get("y", np.zeros(Q))
            z = np.array([cols.get(f"z{c + 1}", np.zeros(Q)) for c in range(dim_d)]).T
            u = np.array([cols.get(f"u{k + 1}", np.zeros(Q)) for k in range(num_marks)]).T
            z, u = z.reshape(Q, dim_d), u.reshape(Q, num_marks)
            w = rng.uniform(-1.0, 1.0, (Q, dim_d))
            for t in (0.0, 0.25, 0.0):  # a repeated t reuses the grid tables
                got = env(t, y, z, u, w)
                want, hits = dense_envelope(env, t, y, z, u, w)
                assert (np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))).all()
                if unique:
                    # same minimiser, so the same value bit for bit
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                    assert env.boundary_hits == hits
                env.boundary_hits = 0

    @pytest.mark.parametrize(
        "source,query,edge_hits",
        [
            ("0.5*y", -0.25, 1),  # grid points -1 and 0 tie
            ("y", 1.0 + 2.0**-43, 1),  # all tie; the query is off the box within its slack
            ("-y - 3*indicator_pos(y + 0.5)", -1.0, 0),  # 0 and 1 tie, above the query
        ],
    )
    def test_exact_ties_go_to_the_first_index(self, source, query, edge_hits):
        # on the grid -1, 0, 1 every sum here is exact, so the dense argmin
        # sees the same tie; whether its first index is the box edge shows
        # in the boundary hits
        params = EnvelopeParams(n=1.0, box={"y": (-1.0, 1.0)}, grid_points=3)
        env = EnvelopeFunction(source, params, "inf")
        got = env(0.0, np.array([query]))
        want, hits = dense_envelope(env, 0.0, np.array([query]))
        np.testing.assert_array_equal(got, want)
        assert env.boundary_hits == hits == edge_hits


def four_table_tables(V, grid, s):
    """The lower-envelope tables as four arrays: the prefix and suffix
    minima, each with a table of the first index attaining it."""
    idx = np.arange(grid.size)[:, None]
    sx = s[:, None, None] * grid[:, None]
    down = V - sx
    up = V + sx
    pre = np.minimum.accumulate(down, axis=1)
    fresh = np.ones(down.shape, dtype=bool)
    fresh[:, 1:] = down[:, 1:] < pre[:, :-1]
    pre_idx = np.maximum.accumulate(np.where(fresh, idx, 0), axis=1)
    suf = np.minimum.accumulate(up[:, ::-1], axis=1)[:, ::-1]
    own = np.ones(down.shape, dtype=bool)
    own[:, :-1] = up[:, :-1] <= suf[:, 1:]
    suf_idx = np.minimum.accumulate(np.where(own, idx, idx[-1])[:, ::-1], axis=1)[:, ::-1]
    return pre, pre_idx, suf, suf_idx


def four_table_argmin(tables, batch, x, grid, s, r):
    """The first argmin and the minimum at r per query, read off the four
    tables."""
    pre, pre_idx, suf, suf_idx = tables
    k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    below = pre[batch, k, r] + s * x
    above = suf[batch, k + 1, r] - s * x
    take_below = below <= above
    argmin = np.where(take_below, pre_idx[batch, k, r], suf_idx[batch, k + 1, r])
    return argmin, np.where(take_below, below, above)


#: (expression, intensities): exact ties in the first block's tables
TIE_CASES = [
    ("2*abs(z1) + y", None),  # V - 2*x' (inf) or V + 2*x' (sup) is flat on a half axis at n = 2
    ("indicator_pos(z1) + abs(y)", None),
    ("indicator_pos(u1) + abs(y)", [2.25]),  # s = 1.5*n on the u axis
    ("0*y + 0.5", None),  # constant: every grid point ties
]


class TestFirstBlockTiesAndEdges:
    """The first block's minimiser without a prefix index table against
    the four tables that carried one, at every r, on exact ties and at
    the grid's edges.  The reference's running minima are sequential
    accumulate scans, so the P around the blocked scan's 32-row blocks
    (31, 32, 33, 65) check its grouping too."""

    NS = [2.0, 3.0, 6.0]

    def queries(self, grid):
        """Grid points, the first and last intervals, the box ends and
        just outside them within the domain slack, clipped as the
        envelope clips them."""
        lo, hi = grid[0], grid[-1]
        eps = 0.5e-12 * max(1.0, abs(lo), abs(hi))
        x = np.concatenate([
            grid,
            [(grid[0] + grid[1]) / 2, grid[1] - 2**-40, grid[-2] + 2**-40],
            [(grid[-2] + grid[-1]) / 2, lo - eps, hi + eps],
        ])
        return np.clip(x, lo, hi)

    @pytest.mark.parametrize("kind", ["inf", "sup"])
    @pytest.mark.parametrize("points", [2, 3, 9, 31, 32, 33, 65])
    @pytest.mark.parametrize("source,lam", TIE_CASES, ids=[c[0] for c in TIE_CASES])
    def test_same_first_index_as_the_four_tables(self, source, lam, points, kind):
        names = sorted(variables(parse_expr(source)) & {"y", "z1", "u1"})
        box = {name: (-2.0, 2.0) for name in names}
        env = EnvelopeFunction(
            source, EnvelopeParams(n=1.0, box=box, grid_points=points), kind, ns=self.NS,
            dim_d=1, num_marks=1, intensities=lam,
        )
        F, tables = env._shared_grid(0.0, None, None)
        first = env._order[0]
        axis = env.axes[first[0]]
        s = env.ns * np.sqrt(axis.weight)
        V = _block_view(F, list(range(len(env.axes))), first)
        reference = four_table_tables(V, axis.grid, s)
        pre, suf, suf_idx = tables
        for got, want in ((pre, reference[0]), (suf, reference[2]), (suf_idx, reference[3])):
            np.testing.assert_array_equal(got, want)
        x = np.repeat(self.queries(axis.grid), len(self.NS))
        batch = np.arange(x.size) % len(self.NS)
        values, argmin_at = _lower_envelope_lookup(tables, batch, x, axis.grid, s[batch])
        for r in range(V.shape[2]):
            rs = np.full(x.size, r)
            want, minimum = four_table_argmin(reference, batch, x, axis.grid, s[batch], rs)
            np.testing.assert_array_equal(argmin_at(rs), want)
            np.testing.assert_array_equal(values[:, r], minimum)
            # the tables' sums round apart from the chosen point's own sum
            # unless, as on the grids of 2, 3 and 9 points, both are exact
            chosen = V[0, want, r] + s[batch] * np.abs(x - axis.grid[want])
            np.testing.assert_allclose(values[:, r], chosen, rtol=0, atol=1e-12)
            if points in (2, 3, 9):
                np.testing.assert_array_equal(values[:, r], chosen)


    @pytest.mark.parametrize("points", [1, 2, 3, 5, 31, 32, 33, 64, 65, 201])
    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_blocked_scan_is_accumulate_bitwise(self, points, dtype):
        """Forward and reversed, on rows with ties, signed zeros and an
        infinity, with and without a separate source."""
        rng = np.random.default_rng(points)
        x = rng.integers(-3, 4, (3, points, 5)).astype(dtype)
        if dtype == np.float64:
            x[:, ::3] *= -0.0  # zeros of both signs
            x[1] += rng.normal(size=(points, 5))
            x[2, points // 2] = -np.inf
        for view in (lambda a: a, lambda a: a[:, ::-1]):
            want = np.minimum.accumulate(view(x.copy()), axis=1)
            got = x.copy()
            _min_scan(view(got))
            assert view(got).tobytes() == want.tobytes()
            out = np.empty_like(x)
            _min_scan(view(out), view(x))
            assert view(out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [2, 3, 5, 31, 32, 33, 64, 65, 201])
    def test_tables_equal_the_sequential_build_on_rough_rows(self, points):
        """Rows far from monotone, so every block carry matters, with
        ties: the three tables equal the sequential build bit for bit."""
        rng = np.random.default_rng(points)
        grid = np.linspace(-2.0, 2.0, points)
        V = np.round(4.0 * rng.normal(size=(1, points, 7))) / 4.0
        s = np.array([0.5, 2.0, 0.0])
        pre, _, suf, suf_idx = four_table_tables(V, grid, s)
        got = _lower_envelope_tables(V, grid, s)
        for a, b in zip(got, (pre, suf, suf_idx.astype(np.int32)), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _envelope_config(f, kind):
    return {
        "pipeline": f"{kind}_sequence",
        "grid": {"T": 0.5, "N": 4},
        "dims": {"d": 1},
        "problem": {"f": f, "growth_c": 2, "barrier": "-6", "terminal": "0.5*w1"},
        "envelope": {"box": {"y": [-6, 6], "z1": [-6, 6]}, "grid_points": 61},
        "outputs": {"formats": ["csv", "json"]},
    }


PIPELINE_DRIVERS = ["sqrt(abs(y)) + abs(z1)", "0.5*sqrt(abs(y - w1)) + abs(z1)"]


class TestEnvelopePipelineAgainstDenseOracle:
    @pytest.mark.parametrize("f", PIPELINE_DRIVERS)
    def test_sequences_bitwise_equal(self, f, monkeypatch):
        runs = {}
        for label in ("blockwise", "dense"):
            if label == "dense":
                monkeypatch.setattr(EnvelopeFunction, "__call__", dense_call)
            for kind, runner in (("inf", run_inf_envelope_sequence), ("sup", run_sup_envelope_sequence)):
                cfg = config_from_dict(_envelope_config(f, kind))
                run = runner(cfg.problem, cfg.envelope, ns=cfg.envelope_ns, tree=cfg.tree_model())
                runs[label, kind] = run
        for kind in ("inf", "sup"):
            a, b = runs["blockwise", kind], runs["dense", kind]
            assert a.y0_series == b.y0_series
            assert a.report["pair_margins"] == b.report["pair_margins"]
        assert runs["blockwise", "inf"].report["v_root"] == runs["dense", "inf"].report["v_root"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_report_bytes_equal(self, threads, tmp_path, monkeypatch):
        cfg = config_from_dict(_envelope_config(PIPELINE_DRIVERS[0], "inf"))
        contents = {}
        for label in ("blockwise", "dense"):
            if label == "dense":
                monkeypatch.setattr(EnvelopeFunction, "__call__", dense_call)
            ok, _, written = run_pipeline(cfg, out_dir=str(tmp_path / label), threads=threads)
            assert ok
            contents[label] = {
                os.path.basename(p): Path(p).read_bytes()
                for p in written
                if os.path.basename(p) != "manifest.json"
            }
        assert contents["blockwise"] == contents["dense"]
        assert len(contents["blockwise"]) >= 2
