"""Grids, marks and scenario generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsdep import drivers
from rbdsdep.drivers import (
    MAX_POISSON_MEAN,
    MarkSpace,
    ScenarioSet,
    build_time_grid,
    empty_marks,
    enumerate_scenarios,
    simulate_scenarios,
)
from rbdsdep.errors import ConfigError, SolverError
from rbdsdep.solver import TreeModel


class TestTimeGrid:
    def test_basic(self):
        grid = build_time_grid(1.0, 4)
        assert grid.dt == pytest.approx(0.25)
        assert grid.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_times_are_read_only(self):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(ValueError):
            grid.times[0] = 1.0

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match="horizon T must be positive"):
            build_time_grid(0.0, 4)
        with pytest.raises(ConfigError):
            build_time_grid(-1.0, 4)

    def test_bad_step_count(self):
        with pytest.raises(ConfigError, match="step count N"):
            build_time_grid(1.0, 0)


class TestMarkSpace:
    def test_empty_is_legal(self):
        marks = empty_marks()
        assert marks.m == 0
        assert marks.total_intensity == 0.0

    def test_fields(self):
        marks = MarkSpace(np.array([1.0, -0.5]), np.array([2.0, 3.0]))
        assert marks.m == 2
        assert marks.total_intensity == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="equal length"):
            MarkSpace(np.array([1.0]), np.array([1.0, 2.0]))

    def test_zero_mark_value(self):
        with pytest.raises(ConfigError, match="nonzero"):
            MarkSpace(np.array([0.0]), np.array([1.0]))

    def test_nonpositive_intensity(self):
        with pytest.raises(ConfigError, match="positive"):
            MarkSpace(np.array([1.0]), np.array([0.0]))


class TestValueEquality:
    """Grids, mark spaces and the trees built on them compare and hash by
    value, so separately built equal ones are interchangeable."""

    TWO = ((1.0, -0.5), (0.4, 0.7))

    def marks(self, values=TWO[0], intensities=TWO[1]):
        return MarkSpace(np.array(values), np.array(intensities))

    def test_separately_built_equal_objects(self):
        pairs = [
            (build_time_grid(1.0, 4), build_time_grid(1.0, 4)),
            (self.marks(), self.marks()),
            (empty_marks(), empty_marks()),
            (
                TreeModel(build_time_grid(1.0, 4), 2, self.marks()),
                TreeModel(build_time_grid(1.0, 4), 2, self.marks()),
            ),
        ]
        for a, b in pairs:
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_grids_differ_in_horizon_or_steps(self):
        grid = build_time_grid(1.0, 4)
        assert grid != build_time_grid(2.0, 4)
        assert grid != build_time_grid(1.0, 5)
        assert grid != (1.0, 4)

    def test_mark_spaces_differ_in_a_value_or_an_intensity(self):
        marks = self.marks()
        assert marks != self.marks(values=(1.0, 0.5))
        assert marks != self.marks(intensities=(0.4, 0.8))
        assert marks != self.marks(values=(1.0,), intensities=(0.4,))
        assert marks != empty_marks()

    def test_trees_differ_in_their_grid_or_marks(self):
        tree = TreeModel(build_time_grid(1.0, 4), 2, self.marks())
        assert tree != TreeModel(build_time_grid(0.5, 4), 2, self.marks())
        assert tree != TreeModel(build_time_grid(1.0, 3), 2, self.marks())
        assert tree != TreeModel(build_time_grid(1.0, 4), 2, self.marks(values=(1.0, 2.0)))
        assert tree != TreeModel(
            build_time_grid(1.0, 4), 2, self.marks(intensities=(0.4, 0.1))
        )


MARKS = MarkSpace(np.array([1.0]), np.array([0.4]))


class TestSimulate:
    def test_shapes(self):
        grid = build_time_grid(1.0, 5)
        scen = simulate_scenarios(grid, 2, MARKS, 7, seed=3)
        assert scen.dW.shape == (7, 5, 2)
        assert scen.dB.shape == (7, 5)
        assert scen.jump_counts.shape == (7, 5, 1)
        assert scen.path_count == 7
        assert scen.num_marks == 1

    def test_regeneration_is_bit_identical(self):
        grid = build_time_grid(1.0, 5)
        a = simulate_scenarios(grid, 1, MARKS, 16, seed=11)
        b = simulate_scenarios(grid, 1, MARKS, 16, seed=11)
        assert np.array_equal(a.dW, b.dW)
        assert np.array_equal(a.dB, b.dB)
        assert np.array_equal(a.jump_counts, b.jump_counts)

    def test_seed_changes_paths(self):
        grid = build_time_grid(1.0, 5)
        a = simulate_scenarios(grid, 1, MARKS, 16, seed=11)
        b = simulate_scenarios(grid, 1, MARKS, 16, seed=12)
        assert not np.array_equal(a.dW, b.dW)

    @given(
        small=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
        mode=st.sampled_from(["gaussian", "two-point"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_prefix_invariance(self, small, extra, seed, mode):
        # path p depends only on (seed, p), never on the batch size
        grid = build_time_grid(0.5, 3)
        a = simulate_scenarios(grid, 2, MARKS, small, seed, mode=mode)
        b = simulate_scenarios(grid, 2, MARKS, small + extra, seed, mode=mode)
        assert np.array_equal(a.dW, b.dW[:small])
        assert np.array_equal(a.dB, b.dB[:small])
        assert np.array_equal(a.jump_counts, b.jump_counts[:small])

    def test_two_point_values(self):
        grid = build_time_grid(1.0, 4)
        scen = simulate_scenarios(grid, 2, MARKS, 50, seed=5, mode="two-point")
        root = np.sqrt(grid.dt)
        assert set(np.unique(scen.dW)) <= {-root, root}
        assert set(np.unique(scen.dB)) <= {-root, root}
        assert set(np.unique(scen.jump_counts)) <= {0.0, 1.0}

    def test_two_point_rejects_heavy_jumps(self):
        grid = build_time_grid(1.0, 2)  # dt = 0.5
        heavy = MarkSpace(np.array([1.0]), np.array([2.5]))
        with pytest.raises(ConfigError, match="total_intensity \\* dt < 1"):
            simulate_scenarios(grid, 1, heavy, 4, seed=1, mode="two-point")

    def test_gaussian_counts_are_nonnegative_integers(self):
        grid = build_time_grid(1.0, 4)
        scen = simulate_scenarios(grid, 1, MARKS, 64, seed=9, mode="gaussian")
        counts = scen.jump_counts
        assert (counts >= 0).all()
        assert np.array_equal(counts, np.round(counts))

    def test_bad_mode(self):
        grid = build_time_grid(1.0, 2)
        with pytest.raises(ConfigError, match="mode"):
            simulate_scenarios(grid, 1, MARKS, 4, seed=1, mode="sobol")

    def test_uniform_weights_when_sampled(self):
        grid = build_time_grid(1.0, 2)
        scen = simulate_scenarios(grid, 1, MARKS, 8, seed=1)
        assert scen.weights is None
        assert scen.path_weights().tolist() == [0.125] * 8


BLOCK = drivers._BLOCK_PATHS


def _poisson_pmf(mean, k):
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


class TestSampler:
    """The counter-based sampler: layout, block independence and the law of
    every drawn value."""

    @pytest.mark.parametrize("mode", ["gaussian", "two-point"])
    def test_prefix_and_block_invariance(self, mode, monkeypatch):
        grid = build_time_grid(1.0, 2)
        full = simulate_scenarios(grid, 1, MARKS, 2 * BLOCK + 1, seed=8, mode=mode)
        for P in (BLOCK - 3, BLOCK + 5):
            part = simulate_scenarios(grid, 1, MARKS, P, seed=8, mode=mode)
            for name in ("dW", "dB", "jump_counts"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[:P])
        monkeypatch.setattr(drivers, "_BLOCK_PATHS", 1000)
        rechunked = simulate_scenarios(grid, 1, MARKS, 2 * BLOCK + 1, seed=8, mode=mode)
        for name in ("dW", "dB", "jump_counts"):
            assert np.array_equal(getattr(rechunked, name), getattr(full, name))

    def test_gaussian_moments(self):
        grid = build_time_grid(1.0, 3)
        P = 20000
        scen = simulate_scenarios(grid, 2, empty_marks(), P, seed=21)
        z = np.concatenate((scen.dW.reshape(P, -1), scen.dB), axis=1) / np.sqrt(grid.dt)
        n = z.size
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
        # every pair of values of a path, Box-Muller partners included
        corr = np.corrcoef(z, rowvar=False)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.abs(off).max() < 5.0 / np.sqrt(P)

    def test_poisson_count_frequencies(self):
        means = (0.04, 3.0, 50.0)
        grid = build_time_grid(2.0, 2)  # dt = 1
        marks = MarkSpace(np.ones(3), np.array(means))
        scen = simulate_scenarios(grid, 1, marks, 20000, seed=33)
        for k, mean in enumerate(means):
            counts = scen.jump_counts[:, :, k].ravel()
            n = counts.size
            for c in range(int(counts.max()) + 5):
                p = _poisson_pmf(mean, c)
                freq = np.count_nonzero(counts == c) / n
                assert abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n), (mean, c)

    def test_very_large_poisson_mean(self):
        mean = 1e8
        grid = build_time_grid(1.0, 2)
        marks = MarkSpace(np.array([1.0]), np.array([2.0 * mean]))
        scen = simulate_scenarios(grid, 1, marks, 500, seed=4)
        counts = scen.jump_counts.ravel()
        assert np.array_equal(counts, np.round(counts))
        assert abs(counts.mean() - mean) < 5.0 * np.sqrt(mean / counts.size)
        too_heavy = MarkSpace(np.array([1.0]), np.array([4.0 * MAX_POISSON_MEAN]))
        with pytest.raises(ConfigError, match="intensity \\* dt <= 2\\*\\*30"):
            simulate_scenarios(grid, 1, too_heavy, 4, seed=4)

    def test_two_point_frequencies(self):
        grid = build_time_grid(1.0, 3)
        marks = MarkSpace(np.array([1.0, -1.0]), np.array([0.6, 1.5]))
        P = 20000
        scen = simulate_scenarios(grid, 2, marks, P, seed=17, mode="two-point")
        plus = np.concatenate((scen.dW.ravel(), scen.dB.ravel())) > 0
        assert abs(plus.mean() - 0.5) < 5.0 * np.sqrt(0.25 / plus.size)
        for k, lam in enumerate(marks.intensities):
            p = lam * grid.dt
            fired = scen.jump_counts[:, :, k].ravel()
            assert abs(fired.mean() - p) < 5.0 * np.sqrt(p * (1.0 - p) / fired.size)

    # path BLOCK + 4 of seed 2024, on 2 steps with d = 2 and two marks
    GOLDEN_MARKS = MarkSpace(np.array([1.0, -1.0]), np.array([0.4, 0.9]))

    def test_golden_gaussian_path(self):
        grid = build_time_grid(1.0, 2)
        scen = simulate_scenarios(grid, 2, self.GOLDEN_MARKS, BLOCK + 5, seed=2024)
        p = BLOCK + 4
        np.testing.assert_allclose(
            scen.dW[p],
            [[-0.6341621785730366, 0.5736922606534627],
             [-1.007058358304713, -0.058791555827949066]],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            scen.dB[p], [0.021940837702234428, 0.15096217536614845], rtol=1e-12
        )
        assert scen.jump_counts[p].tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_two_point_path_reads_its_own_philox_words(self):
        """Path p's K = 12 words (6 signs, 4 jump words, 2 pad) start at
        Philox counter 3p of the key SeedSequence(seed) gives."""
        grid = build_time_grid(1.0, 2)
        p = BLOCK + 4
        scen = simulate_scenarios(
            grid, 2, self.GOLDEN_MARKS, p + 1, seed=2024, mode="two-point"
        )
        key = np.random.SeedSequence(2024).generate_state(2, np.uint64)
        bitgen = np.random.Philox(key=key)
        bitgen.advance(3 * p)
        words = bitgen.random_raw(12)
        signs = [1.0 - 2.0 * int(w >> np.uint64(63)) for w in words[:6]]
        root = np.sqrt(grid.dt)
        assert scen.dW[p].ravel().tolist() == [s * root for s in signs[:4]]
        assert scen.dB[p].tolist() == [s * root for s in signs[4:6]]
        u = [int(w >> np.uint64(11)) * 2.0**-53 for w in words[6:10]]
        lam_dt = self.GOLDEN_MARKS.intensities * grid.dt
        expected = [[float(u[2 * i + k] < lam_dt[k]) for k in range(2)] for i in range(2)]
        assert scen.jump_counts[p].tolist() == expected


class TestCumulativePaths:
    def test_brownian_paths(self):
        grid = build_time_grid(1.0, 3)
        scen = simulate_scenarios(grid, 2, empty_marks(), 5, seed=2)
        W = scen.brownian_paths()
        assert W.shape == (5, 4, 2)
        assert np.array_equal(W[:, 0, :], np.zeros((5, 2)))
        assert np.allclose(W[:, 1:, :] - W[:, :-1, :], scen.dW)

    def test_jump_paths(self):
        grid = build_time_grid(1.0, 3)
        scen = simulate_scenarios(grid, 1, MARKS, 5, seed=2)
        J = scen.jump_paths()
        assert np.array_equal(J[:, 0, :], np.zeros((5, 1)))
        assert np.allclose(J[:, -1, :], scen.jump_counts.sum(axis=1))

    def test_b_remaining_suffix_sums(self):
        grid = build_time_grid(1.0, 3)
        scen = simulate_scenarios(grid, 1, MARKS, 5, seed=2)
        R = scen.b_remaining()
        assert np.array_equal(R[:, -1], np.zeros(5))
        for i in range(4):
            assert np.allclose(R[:, i], scen.dB[:, i:].sum(axis=1))


class TestEnumerate:
    def test_path_count_and_weights(self):
        grid = build_time_grid(1.0, 2)
        marks = MarkSpace(np.array([1.0]), np.array([0.4]))
        scen = enumerate_scenarios(grid, 1, marks)
        # (2^d * 2 * 2^m)^N = 8^2
        assert scen.path_count == 64
        assert scen.weights is not None
        assert scen.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_branch_probabilities_exact(self):
        grid = build_time_grid(1.0, 1)  # dt = 1, lambda*dt = 0.4
        marks = MarkSpace(np.array([1.0]), np.array([0.4]))
        scen = enumerate_scenarios(grid, 1, marks)
        assert scen.path_count == 8
        fire = scen.jump_counts[:, 0, 0] > 0
        w = scen.weights
        # each (sign_W, sign_B) pair carries 1/4; jump splits it 0.4 / 0.6
        assert np.allclose(w[fire], 0.25 * 0.4)
        assert np.allclose(w[~fire], 0.25 * 0.6)
        assert fire.sum() == 4

    def test_first_and_second_moments_exact(self):
        grid = build_time_grid(0.5, 2)
        marks = MarkSpace(np.array([1.0, -1.0]), np.array([0.4, 0.8]))
        scen = enumerate_scenarios(grid, 2, marks)
        w = scen.weights
        dt = grid.dt
        for i in range(2):
            assert np.dot(w, scen.dW[:, i, 0]) == pytest.approx(0.0, abs=1e-15)
            assert np.dot(w, scen.dW[:, i, 0] ** 2) == pytest.approx(dt)
            assert np.dot(w, scen.dB[:, i]) == pytest.approx(0.0, abs=1e-15)
            assert np.dot(w, scen.dB[:, i] ** 2) == pytest.approx(dt)
            got = w @ scen.jump_counts[:, i, :]
            assert got == pytest.approx(marks.intensities * dt)

    def test_paths_are_distinct(self):
        grid = build_time_grid(1.0, 2)
        scen = enumerate_scenarios(grid, 1, MARKS)
        flat = np.column_stack(
            [
                scen.dW.reshape(scen.path_count, -1),
                scen.dB,
                scen.jump_counts.reshape(scen.path_count, -1),
            ]
        )
        assert np.unique(flat, axis=0).shape[0] == scen.path_count

    def test_budget_guard(self):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(SolverError, match="budget"):
            enumerate_scenarios(grid, 1, MARKS, max_paths=100)

    def test_heavy_jumps_rejected(self):
        grid = build_time_grid(1.0, 1)
        heavy = MarkSpace(np.array([1.0]), np.array([1.5]))
        with pytest.raises(ConfigError, match="total_intensity"):
            enumerate_scenarios(grid, 1, heavy)


class TestScenarioSetValidation:
    def test_shape_mismatch_rejected(self):
        grid = build_time_grid(1.0, 2)
        with pytest.raises(SolverError, match="dW shape"):
            ScenarioSet(
                grid,
                dim_d=1,
                mode="gaussian",
                seed=0,
                dW=np.zeros((4, 3, 1)),
                dB=np.zeros((4, 2)),
                jump_counts=np.zeros((4, 2, 0)),
            )
