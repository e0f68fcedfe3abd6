"""Backward solvers for reflected equations driven by two Brownian motions
and a marked Poisson stream.

The information structure is two-sided: the conditional expectation E_i at
time t_i sees the forward history of W and of the jumps up to t_i together
with the remaining increments of B on [t_i, T].  Both solvers run the same
explicit backward recursion on a uniform grid

    Ytilde_i = E_i[ Y_{i+1} + f(t_{i+1}, Y_{i+1}, Z_{i+1}, U_{i+1}) * dt
                            + g(t_{i+1}, Y_{i+1}, Z_{i+1}, U_{i+1}) * dB_i ]
    Z_i      = E_i[ Y_{i+1} * dW_i ] / dt
    U_{i,k}  = E_i[ Y_{i+1} * (count_k - lambda_k*dt) ] / Var(count_k - lambda_k*dt)
    Y_i      = max(Ytilde_i, S_i),    dK_i = Y_i - Ytilde_i

so the  constraint Y >= S is enforced by reflection alone and dK is never
regression noise.  f and g are evaluated at the time-(i+1) values (explicit
scheme; dB_i is E_i-measurable, so the g term is dB_i * E_i[g]).

``solve_tree_exact`` computes every E_i exactly on the finite two-point
probability space (each dW component and dB equal to +-sqrt(dt), each mark
firing with probability lambda_k*dt).  ``TreeModel`` is that tree: its node
layout, its state probabilities, its path view and its backward step,
which computes the continuation value on a slice.  The exact solve
reflects it, and ``tree_balance_residual`` reruns the same step on the
stored slices to check Y_i - dK_i against it.

``solve_lsmc`` replaces E_i by cross-sectional least squares on scenario
paths; it shares the coefficient defaults and the terminal/barrier
evaluation, with its ill-posedness check, with the tree.  Run on an
exhaustively enumerated two-point set with the saturated indicator basis
it reproduces the tree bit-for-bit up to float summation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional

import numpy as np

from .drivers import (
    MAX_PATHS,
    MarkSpace,
    ScenarioSet,
    TimeGrid,
    _jump_pattern_probs,
    _jump_patterns,
    _sign_patterns,
    check_two_point_law,
)
from .errors import ConfigError, SolverError
from .expr import EvalContext, evaluate, variables
from .generator import GeneratorSpec, ensure_expr
from .table import CsvTable

#: coefficient callables receive (next_step_index, t_next, y, z, u, w, j)
CoefficientFn = Callable[..., np.ndarray]

#: how far Y may sit below the barrier S before validate() rejects it
_BARRIER_TOL = 1e-12


def coefficient_from_expr(expr, intensities) -> CoefficientFn:
    expr = ensure_expr(expr)

    def fn(i_next, t, y, z, u, w, j):
        return evaluate(
            expr, EvalContext(t=t, y=y, z=z, u=u, w=w, j=j, intensities=intensities)
        )

    return fn


def _indexed_vars_ok(expr, dim_d, num_marks, label):
    for name in sorted(variables(expr)):
        if name[0] in "zw" and name[1:].isdigit() and int(name[1:]) > dim_d:
            raise ConfigError(f"{label} references '{name}' but d = {dim_d}")
        if name[0] in "uj" and name[1:].isdigit() and int(name[1:]) > num_marks:
            raise ConfigError(f"{label} references '{name}' but m = {num_marks}")


def _vars_within(expr, allowed, label):
    extra = variables(expr) - allowed
    if extra:
        raise ConfigError(f"{label} must not reference {sorted(extra)}")


@dataclass(frozen=True)
class ProblemSpec:
    """One reflected problem: drivers, coefficients, barrier and terminal.

    The barrier is a function of (t, w1..wd); the terminal condition a
    function of the Brownian endpoint (w1..wd) and the per-mark jump totals
    (j1..jm).  The barrier must not exceed the terminal value anywhere on
    the terminal states (checked at solve time; violation is a hard
    configuration error).
    """

    grid: TimeGrid
    dim_d: int
    marks: MarkSpace
    generator: GeneratorSpec
    barrier: object
    terminal: object

    def __post_init__(self):
        if self.dim_d < 1:
            raise ConfigError(f"dim_d must be >= 1, got {self.dim_d}")
        object.__setattr__(self, "barrier", ensure_expr(self.barrier))
        object.__setattr__(self, "terminal", ensure_expr(self.terminal))
        d, m = self.dim_d, self.marks.m
        allowed_w = {f"w{c}" for c in range(1, d + 1)}
        allowed_j = {f"j{k}" for k in range(1, m + 1)}
        _vars_within(self.barrier, {"t"} | allowed_w, "barrier")
        _vars_within(self.terminal, allowed_w | allowed_j, "terminal condition")
        for expr, label in (
            (self.generator.f, "generator f"),
            (self.generator.g, "coefficient g"),
        ):
            _indexed_vars_ok(expr, d, m, label)
        if self.generator.pi is not None:
            _indexed_vars_ok(self.generator.pi, d, m, "lower modulus pi")
        if self.generator.rate is not None:
            _indexed_vars_ok(self.generator.rate, d, m, "dominating rate f_t")

    def coefficient_fns(self):
        lam = self.marks.intensities
        return (
            coefficient_from_expr(self.generator.f, lam),
            coefficient_from_expr(self.generator.g, lam),
        )


def reflect_step(y_tilde: np.ndarray, barrier_values: np.ndarray):
    """Push the continuation value onto the barrier.

    Returns (y, dk) with y = max(y_tilde, s) and dk = y - y_tilde, so dk >= 0
    and (y - s) * dk == 0 hold bitwise: either dk is exactly zero or y was
    set to exactly s.
    """
    y = np.maximum(y_tilde, barrier_values)
    return y, y - y_tilde


def jump_variances(marks: MarkSpace, dt: float, mode: str) -> np.ndarray:
    """Variance of (one-step count - lambda*dt) under the driving law.

    This is the divisor in the U extraction: lambda*dt*(1 - lambda*dt) for
    the two-point/Bernoulli law, lambda*dt for gaussian/Poisson counts.
    """
    lam_dt = marks.intensities * dt
    if mode == "two-point":
        return lam_dt * (1.0 - lam_dt)
    return lam_dt


def extract_zu(y_next, dw, jump_counts, lam_dt, dt, jump_var):
    """Per-sample projection targets for the martingale integrands.

    The conditional mean of the returned arrays is (Z_i, U_{i,k}):
    z = y * dW / dt componentwise and u_k = y * (count_k - lambda_k*dt)
    divided by the variance of the compensated increment.  Marks with a
    vanishing compensator are excluded (target 0) with a warning.
    """
    y_next = np.asarray(y_next, dtype=float)
    z = y_next[..., None] * dw / dt
    comp = jump_counts - lam_dt
    jump_var = np.asarray(jump_var, dtype=float)
    safe = np.where(jump_var > 0.0, jump_var, 1.0)
    u = y_next[..., None] * comp / safe
    if np.any(jump_var <= 0.0):
        warnings.warn("mark with zero compensator excluded from U extraction")
        u = np.where(jump_var > 0.0, u, 0.0)
    return z, u


@dataclass
class SolutionGrid:
    """Path-indexed solution arrays on a common grid.

    Y and K have shape (P, N+1); Z has shape (P, N+1, d) and U (P, N+1, m)
    with the terminal integrands set to zero.  S holds the barrier values
    along each path.  weights are per-path probabilities summing to one.
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    K: np.ndarray
    S: np.ndarray
    weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def path_count(self) -> int:
        return self.Y.shape[0]

    def root_value(self) -> float:
        return float(self.weights @ self.Y[:, 0])

    def root_se(self) -> float:
        """Cross-sectional standard error of the weighted per-path Y_0: how
        much the fitted Y_0 varies across paths, not the estimator's error.
        The seed-to-seed spread of gaussian LSMC roots measured 25-63x it."""
        mu = self.root_value()
        var = float(self.weights @ (self.Y[:, 0] - mu) ** 2)
        return float(np.sqrt(var * (self.weights**2).sum()))

    def terminal_k(self) -> np.ndarray:
        return self.K[:, -1]

    def validate(self):
        """Raise SolverError if the structural invariants fail."""
        for name, arr in (("Y", self.Y), ("Z", self.Z), ("U", self.U), ("K", self.K)):
            if not np.isfinite(arr).all():
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise SolverError(f"non-finite {name} at (path, step) {tuple(bad[:2])}")
        if np.any(self.K[:, 0] != 0.0):
            raise SolverError("K does not start at zero")
        if np.any(np.diff(self.K, axis=1) < 0.0):
            raise SolverError("K is not nondecreasing")
        if np.any(self.Y < self.S - _BARRIER_TOL):
            bad = np.argwhere(self.Y < self.S - _BARRIER_TOL)[0]
            raise SolverError(f"Y below the barrier at (path, step) {tuple(bad)}")
        dk = np.diff(self.K, axis=1)
        products = (self.Y[:, :-1] - self.S[:, :-1]) * dk
        if np.any(products != 0.0):
            bad = np.argwhere(products != 0.0)[0]
            raise SolverError(
                f"reflection is not complementary at (path, step) {tuple(bad)}"
            )
        return self


def solution_csv_rows(sol: SolutionGrid) -> CsvTable:
    """Header plus one row per path-step (terminal step included)."""
    P, steps, d = sol.Z.shape
    m = sol.U.shape[2]
    header = (
        ["path", "step", "y"]
        + [f"z{c + 1}" for c in range(d)]
        + [f"u{k + 1}" for k in range(m)]
        + ["k"]
    )
    columns = (
        [np.repeat(np.arange(P), steps), np.tile(np.arange(steps), P), sol.Y.ravel()]
        + [sol.Z[:, :, c].ravel() for c in range(d)]
        + [sol.U[:, :, k].ravel() for k in range(m)]
        + [sol.K.ravel()]
    )
    return CsvTable(header, columns)


@dataclass(frozen=True)
class TreeModel:
    """The exhaustive two-point tree: its budget, its node layout and its
    backward step.

    Per step a node branches into 2**d W-sign patterns, 2 B signs and 2**m
    jump patterns, mark k firing with probability lambda_k*dt.  Values
    never depend on past B signs, so slice i holds arrays shaped
    (2**(d*i), 2**(m*i), 2**(N-i)), plus a component axis for Z and U: the
    W-sign and jump histories of steps 0..i-1 and the B signs of steps
    i..N-1, each index reading its per-step patterns as digits, step 0 the
    most significant, + and no jump as digit 0.  dK has one slice per step
    i < N.  A full path is a slice-N node with all N B signs, indexed by
    (W digits, jump digits, B digits).  Going from slice i to slice i+1
    drops the step-i B sign, the high digit of axis 2, and adds the step-i
    W and jump digits as the low digits of axes 0 and 1.

    max_steps guards the default desk scale; max_states bounds the stored
    slice sizes.  The step patterns and histories are built on first use,
    after ``ensure_budget``; ``==`` and the hash read the five fields only.
    """

    grid: TimeGrid
    dim_d: int
    marks: MarkSpace
    max_steps: int = 6
    max_states: int = 4_000_000

    def __post_init__(self):
        if self.dim_d < 1:
            raise ConfigError(f"dim_d must be >= 1, got {self.dim_d}")
        if self.grid.N > self.max_steps:
            raise ConfigError(
                f"tree depth N = {self.grid.N} exceeds max_steps = {self.max_steps}; "
                "raise max_steps explicitly or use solve_lsmc"
            )
        check_two_point_law(self.marks, self.grid.dt)

    @property
    def nw(self) -> int:
        return 2**self.dim_d

    @property
    def nj(self) -> int:
        return 2**self.marks.m

    def slice_shape(self, i: int):
        """(W histories, jump histories, future B signs) of slice i."""
        return self.nw**i, self.nj**i, 2 ** (self.grid.N - i)

    def slice_states(self, i: int) -> int:
        return math.prod(self.slice_shape(i))

    def total_states(self) -> int:
        return sum(self.slice_states(i) for i in range(self.grid.N + 1))

    def path_count(self) -> int:
        """Full paths: each slice-N node with each of its 2**N B paths."""
        return self.slice_states(self.grid.N) * 2**self.grid.N

    def ensure_budget(self):
        total = self.total_states()
        if total > self.max_states:
            raise SolverError(
                f"tree budget exceeded: {total} states > {self.max_states}; "
                "use solve_lsmc for this problem size"
            )

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
        (2**(m*i), m) and the jump-history probabilities (2**(m*i),).
        Builds are bitwise equal, so threads sharing a tree may race."""
        w_step, j_step, pj = self._steps
        d, m = self.dim_d, self.marks.m
        w_vals, j_vals, j_prob = [np.zeros((1, d))], [np.zeros((1, m))], [np.ones(1)]
        for i in range(self.grid.N):
            w_vals.append((w_vals[i][:, None] + w_step).reshape(-1, d))
            j_vals.append((j_vals[i][:, None] + j_step).reshape(self.nj ** (i + 1), m))
            j_prob.append((j_prob[i][:, None] * pj).reshape(-1))
        return w_vals, j_vals, j_prob

    def context(self, i: int):
        """(w, j) broadcastable against slice-i arrays."""
        w_vals, j_vals, _ = self._histories
        return w_vals[i][:, None, None, :], j_vals[i][None, :, None, :]

    def children(self, i: int, values: np.ndarray) -> np.ndarray:
        """Slice-(i+1) values with the step-i W and jump branches split out:
        shape (2**(d*i), 2**d, 2**(m*i), 2**m, 2**(N-i-1))."""
        nb1 = 2 ** (self.grid.N - i - 1)
        return values.reshape(self.nw**i, self.nw, self.nj**i, self.nj, nb1)

    def expectation(self, i: int, y1, z1, u1, f_fn, g_fn) -> np.ndarray:
        """E_i[Y_{i+1} + f*dt + g*dB_i] on slice i, with f and g evaluated
        on the slice-(i+1) values (y1, z1, u1)."""
        t_next, dt = self.grid.times[i + 1], self.grid.dt
        f1, g1 = _coefficient_values(
            (f_fn, g_fn), i + 1, t_next, y1, z1, u1, *self.context(i + 1)
        )
        _, _, pj = self._steps
        Ar = self.children(i, y1 + f1 * dt)
        EA = np.einsum("awbjn,j->abn", Ar, pj) / self.nw
        Eg = np.einsum("awbjn,j->abn", self.children(i, g1), pj) / self.nw
        g_db = np.sqrt(dt) * Eg
        # the step-i B sign is the high digit of axis 2: + first, then -
        return np.concatenate((EA + g_db, EA - g_db), axis=2)

    def integrands(self, i: int, y1) -> tuple:
        """(Z_i, U_i) on slice i: E_i[Y_{i+1} dW_i] / dt and
        E_i[Y_{i+1} (count_k - lambda_k*dt)] / Var(count_k), the same for
        both step-i B signs."""
        w_step, j_step, pj = self._steps
        dt = self.grid.dt
        Yr = self.children(i, y1)
        Zc = np.einsum("awbjn,wc,j->abnc", Yr, w_step, pj) / (self.nw * dt)
        ju_weights = pj[:, None] * (j_step - self.marks.intensities * dt)
        Uc = np.einsum("awbjn,jk->abnk", Yr, ju_weights) / self.nw
        if self.marks.m:
            Uc = Uc / jump_variances(self.marks, dt, "two-point")
        return np.concatenate((Zc, Zc), axis=2), np.concatenate((Uc, Uc), axis=2)

    def state_probs(self, i: int) -> np.ndarray:
        """Exact probability of each slice-i node, as a read-only
        broadcast; sums to one."""
        pw = self.nw ** (-float(i))
        pb = 0.5 ** (self.grid.N - i)
        j_prob = self._histories[2][i]
        return np.broadcast_to(pw * pb * j_prob[None, :, None], self.slice_shape(i))

    def weighted_sum(self, i: int, values: np.ndarray):
        """Weighted slice sum: sum over the slice-i nodes of state_probs(i)
        times values, one sum per trailing z/u component if any."""
        return np.tensordot(self.state_probs(i), values, axes=3)

    def forward(self, i: int, values: np.ndarray) -> np.ndarray:
        """Slice-i values carried to slice i+1: averaged over the step-i B
        sign, which slice i+1 no longer holds, then copied to every step-i
        W and jump child, which slice-i values do not depend on."""
        a, b, n = self.slice_shape(i)
        # the step-i B sign is the high digit of axis 2: + first, then -
        mean = 0.5 * (values[:, :, : n // 2] + values[:, :, n // 2 :])
        kids = (a, self.nw, b, self.nj, n // 2)
        spread = np.broadcast_to(mean[:, None, :, None, :], kids)
        return spread.reshape(self.slice_shape(i + 1))

    def on_paths(self, i: int, values: np.ndarray) -> np.ndarray:
        """Slice-i values, with any trailing z/u axis, copied onto every
        full path: shape (paths,) + trailing axes."""
        a, b, n = self.slice_shape(i)
        rest = values.shape[3:]
        lost = self.grid.N - i
        cube = (a, self.nw**lost, b, self.nj**lost, 2**i, n)
        spread = np.broadcast_to(values.reshape((a, 1, b, 1, 1, n) + rest), cube + rest)
        return spread.reshape((math.prod(cube),) + rest)


@dataclass
class TreeSolution:
    """Slice-indexed exact solution on ``tree``, in its slice layout."""

    problem: ProblemSpec
    tree: TreeModel
    Y: List[np.ndarray]
    Z: List[np.ndarray]
    U: List[np.ndarray]
    dK: List[np.ndarray]
    S: List[np.ndarray]

    @property
    def grid(self) -> TimeGrid:
        return self.problem.grid

    def state_probs(self, i: int) -> np.ndarray:
        """Exact probability of each slice-i state; sums to one."""
        return self.tree.state_probs(i)

    def root_value(self) -> float:
        return float(self.Y[0].mean())

    def validate(self):
        """Raise SolverError if a reflection invariant fails on a node.

        The node-wise form of ``SolutionGrid.validate``: Y, Z, U and dK
        finite, dK >= 0, Y >= S - _BARRIER_TOL and (Y - S) * dK == 0
        bitwise.  Errors name the (slice, node), node being the flat index
        into the slice's (W, jump, B) axes.
        """
        for name, slices in (("Y", self.Y), ("Z", self.Z), ("U", self.U), ("dK", self.dK)):
            for i, arr in enumerate(slices):
                _raise_at(~np.isfinite(arr), f"non-finite {name}", i)
        for i, dk in enumerate(self.dK):
            _raise_at(dk < 0.0, "negative dK", i)
        for i, (y, s) in enumerate(zip(self.Y, self.S)):
            _raise_at(y < s - _BARRIER_TOL, "Y below the barrier", i)
        for i, dk in enumerate(self.dK):
            products = (self.Y[i] - self.S[i]) * dk
            _raise_at(products != 0.0, "reflection is not complementary", i)
        return self

    def k_moments(self):
        """(E[K_T], E[K_T^2]) by a forward pass over the first two moments
        of K_i given the slice-i node: K_{i+1} = K_i + dK_i, so
        (m1, m2) <- (m1 + dK_i, m2 + 2*m1*dK_i + dK_i^2), carried to slice
        i+1 by ``TreeModel.forward``."""
        tree = self.tree
        m1 = m2 = np.zeros(tree.slice_shape(0))
        for i, dk in enumerate(self.dK):
            m1, m2 = m1 + dk, m2 + 2.0 * m1 * dk + dk * dk
            m1, m2 = tree.forward(i, m1), tree.forward(i, m2)
        N = self.grid.N
        return float(tree.weighted_sum(N, m1)), float(tree.weighted_sum(N, m2))

    def sup_y_sq(self) -> float:
        """E[max_i Y_i^2] over the full paths, the one path functional of
        the sequence reports.  The running max of Y^2 is carried from slice
        to slice on (W history, jump history, all N B signs): each slice-i
        node's max splits into its W and jump children and meets their
        Y^2, so slice i holds path_count / (2**(d+m))**(N-i) values."""
        tree, N = self.tree, self.grid.N
        top = self.Y[0] ** 2
        for i in range(N):
            a, b, n = tree.slice_shape(i)
            kids = tree.children(i, self.Y[i + 1] ** 2)[:, :, :, :, None, :]
            # the step-i B sign moves from the future axis to the past one
            top = np.maximum(top.reshape(a, 1, b, 1, 2 ** (i + 1), n // 2), kids)
        # each B path of a slice-N node has probability 0.5**N
        weights = tree.on_paths(N, tree.state_probs(N) * 0.5**N)
        return float(weights @ top.reshape(-1))

    def to_solution_grid(self, max_paths: int = MAX_PATHS) -> SolutionGrid:
        """Materialize every full history as a weighted path, in the path
        order of ``TreeModel``."""
        tree, N = self.tree, self.grid.N
        P = tree.path_count()
        if P > max_paths:
            raise SolverError(f"path materialization needs {P} paths (> {max_paths})")
        Y = np.empty((P, N + 1))
        K = np.zeros((P, N + 1))
        S = np.empty((P, N + 1))
        Z = np.zeros((P, N + 1, tree.dim_d))
        U = np.zeros((P, N + 1, tree.marks.m))
        for i in range(N + 1):
            Y[:, i] = tree.on_paths(i, self.Y[i])
            S[:, i] = tree.on_paths(i, self.S[i])
            Z[:, i, :] = tree.on_paths(i, self.Z[i])
            U[:, i, :] = tree.on_paths(i, self.U[i])
            if i < N:
                K[:, i + 1] = K[:, i] + tree.on_paths(i, self.dK[i])
        # each B path of a slice-N node has probability 0.5**N
        weights = tree.on_paths(N, tree.state_probs(N)) * 0.5**N
        return SolutionGrid(
            grid=self.grid,
            Y=Y,
            Z=Z,
            U=U,
            K=K,
            S=S,
            weights=weights,
            diagnostics={"source": "tree"},
        )


def _raise_at(bad: np.ndarray, what: str, i: int):
    """Raise SolverError naming the first slice-i node where bad holds (on
    any z/u component)."""
    if bad.ndim > 3:
        bad = bad.any(axis=tuple(range(3, bad.ndim)))
    if bad.any():
        raise SolverError(f"{what} at (slice, node) ({i}, {int(np.flatnonzero(bad)[0])})")


def _node_margin(a: TreeSolution, b: TreeSolution) -> float:
    """Node-wise min of (b.Y - a.Y) over every slice and time."""
    return min(float((yb - ya).min()) for ya, yb in zip(a.Y, b.Y))


def _coefficients(problem: ProblemSpec, f_fn, g_fn):
    """(f_fn, g_fn) with each missing callable taken from the problem."""
    default_f, default_g = problem.coefficient_fns()
    return f_fn or default_f, g_fn or default_g


def _coefficient_values(fns, i_next, t, y, z, u, w, j):
    """Each coefficient at the time-t_{i_next} values, broadcast to y's
    shape: the explicit scheme's f and g, shared by both solvers."""
    return [
        np.broadcast_to(np.asarray(fn(i_next, t, y, z, u, w, j), float), y.shape)
        for fn in fns
    ]


def _barrier_values(problem: ProblemSpec, t, w, shape) -> np.ndarray:
    values = evaluate(problem.barrier, EvalContext(t=t, w=w))
    return np.broadcast_to(np.asarray(values, dtype=float), shape).copy()


def _terminal_values(problem: ProblemSpec, w, j, shape):
    """Terminal condition and barrier at T on the given terminal states.

    Raises ConfigError when the barrier exceeds the terminal condition
    anywhere: the reflected problem is then ill-posed.
    """
    ctx = EvalContext(w=w, j=j, intensities=problem.marks.intensities)
    y_term = np.broadcast_to(
        np.asarray(evaluate(problem.terminal, ctx), dtype=float), shape
    ).copy()
    s_term = _barrier_values(problem, problem.grid.T, w, shape)
    if np.any(s_term > y_term + 1e-12):
        worst = float((s_term - y_term).max())
        raise ConfigError(
            "barrier exceeds the terminal condition on a terminal state "
            f"(worst excess {worst:.3g}); the problem is ill-posed"
        )
    return y_term, s_term


def solve_tree_exact(
    problem: ProblemSpec,
    tree: Optional[TreeModel] = None,
    f_fn: Optional[CoefficientFn] = None,
    g_fn: Optional[CoefficientFn] = None,
) -> TreeSolution:
    """Exact dynamic programming over every two-point branch.

    tree defaults to the problem's own with the default budget.  f_fn and
    g_fn default to the problem's parsed coefficients; schemes pass
    wrapped callables (envelopes, frozen iterates, growth bounds) with the
    same signature.
    """
    if tree is None:
        tree = TreeModel(problem.grid, problem.dim_d, problem.marks)
    if tree.grid != problem.grid:
        raise SolverError("tree grid differs from the problem grid")
    if tree.dim_d != problem.dim_d:
        raise SolverError(f"tree has d = {tree.dim_d} but the problem has d = {problem.dim_d}")
    if not np.array_equal(tree.marks.intensities, problem.marks.intensities):
        raise SolverError(
            f"tree mark intensities {tree.marks.intensities.tolist()} differ from "
            f"the problem's {problem.marks.intensities.tolist()}"
        )
    f_fn, g_fn = _coefficients(problem, f_fn, g_fn)

    N = tree.grid.N
    Y, Z, U, S = ([None] * (N + 1) for _ in range(4))
    dK = [None] * N

    w_ctx, j_ctx = tree.context(N)
    Y[N], S[N] = _terminal_values(problem, w_ctx, j_ctx, tree.slice_shape(N))
    Z[N] = np.zeros(Y[N].shape + (tree.dim_d,))
    U[N] = np.zeros(Y[N].shape + (tree.marks.m,))

    for i in range(N - 1, -1, -1):
        y_tilde = tree.expectation(i, Y[i + 1], Z[i + 1], U[i + 1], f_fn, g_fn)
        Z[i], U[i] = tree.integrands(i, Y[i + 1])
        w_ctx, _ = tree.context(i)
        S[i] = _barrier_values(problem, tree.grid.times[i], w_ctx, y_tilde.shape)
        Y[i], dK[i] = reflect_step(y_tilde, S[i])

    return TreeSolution(problem, tree, Y, Z, U, dK, S)


def tree_balance_residual(
    sol: TreeSolution,
    f_fn: Optional[CoefficientFn] = None,
    g_fn: Optional[CoefficientFn] = None,
) -> float:
    """Max over nodes of |Y_i - dK_i - E_i[Y_{i+1} + f*dt + g*dB_i]|.

    The martingale terms Z*dW and U*(count - lambda*dt) have exact
    conditional mean zero, so this is the full discrete balance in
    conditional mean.  The expectation is the solver's own step, rerun on
    the stored slices, so the residual catches faults in the reflection
    and in the bookkeeping of Y and dK, and must vanish to float
    roundoff; it cannot catch an error in the expectation itself, which
    both sides share.  That error is covered by
    ``test_acceptance.test_01_exact_tree_equals_saturated_regression``,
    which checks the tree against an independent indicator regression.
    """
    f_fn, g_fn = _coefficients(sol.problem, f_fn, g_fn)
    worst = 0.0
    for i in range(sol.tree.grid.N - 1, -1, -1):
        cont = sol.tree.expectation(
            i, sol.Y[i + 1], sol.Z[i + 1], sol.U[i + 1], f_fn, g_fn
        )
        worst = max(worst, float(np.abs(sol.Y[i] - sol.dK[i] - cont).max()))
    return worst


@dataclass(frozen=True)
class SchemeParams:
    """Regression settings for the Monte Carlo solver.

    basis 'poly' regresses on polynomials of degree <= degree in each
    conditioning feature (W_{t_i} components, cumulative jump counts,
    B_T - B_{t_i}) plus the barrier value, with a fixed ridge weight,
    dropping the powers and the barrier column that would repeat a
    column already in the basis;
    'indicator' groups paths by their exact conditioning atom (meant for
    exhaustively enumerated two-point sets, where it reproduces the exact
    conditional expectation).
    """

    basis: str = "poly"
    degree: int = 2
    ridge: float = 1e-8
    max_condition: float = 1e14

    def __post_init__(self):
        if self.basis not in ("poly", "indicator"):
            raise ConfigError(f"basis must be 'poly' or 'indicator', got {self.basis!r}")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.ridge < 0.0:
            raise ConfigError("ridge must be >= 0")


def _distinct_count(values: np.ndarray) -> int:
    """Number of distinct values, merging neighbours closer than 1e-9 of
    the range: sums of the same two-point steps taken in another order
    can differ in the last bits."""
    v = np.sort(values)
    return 1 + int(np.count_nonzero(np.diff(v) > 1e-9 * (v[-1] - v[0])))


def _poly_fit(features, s_col, wts, targets, params: SchemeParams, step: int):
    """Weighted ridge regression; returns the fitted values for every
    target column, the basis size and the condition number of the Gram
    matrix.

    A feature with v distinct values (see ``_distinct_count``) enters with
    powers 1..min(degree, v - 1): on v points the higher powers are
    combinations of the lower ones and the intercept.  The barrier column enters only when its
    weighted least-squares distance from the span of the other columns
    exceeds max_condition**-0.5 of its weighted norm; any closer and it
    alone would push the Gram condition past max_condition.
    """
    cols = [np.ones_like(s_col)]
    for feat in features:
        top = min(params.degree, _distinct_count(feat) - 1)
        cols += [feat**power for power in range(1, top + 1)]
    if s_col.max() != s_col.min():  # a constant barrier is in the intercept's span
        sw = np.sqrt(wts)
        A = np.array(cols).T * sw[:, None]
        coef = np.linalg.lstsq(A, sw * s_col, rcond=None)[0]
        resid = np.linalg.norm(sw * s_col - A @ coef)
        if resid > params.max_condition**-0.5 * np.linalg.norm(sw * s_col):
            cols.append(s_col)
    # column-major: the BLAS summation order below, and so the fitted
    # bits, depend on the layout
    X = np.array(cols).T
    gram = X.T @ (X * wts[:, None])
    eigs = np.linalg.eigvalsh(gram)
    cond = np.inf if eigs[0] <= 0.0 else float(eigs[-1] / eigs[0])
    if cond > params.max_condition:
        raise SolverError(
            f"regression ill-conditioned at step {step} with basis 'poly' "
            f"(condition {cond:.3g})"
        )
    rhs = X.T @ (targets * wts[:, None])
    beta = np.linalg.solve(gram + params.ridge * np.eye(X.shape[1]), rhs)
    return X @ beta, X.shape[1], cond


def _atom_ids(scen: ScenarioSet, step: int):
    """Conditioning atom of each path at t_step: forward W/jump history and
    the remaining B signs."""
    P, N, d = scen.dW.shape
    m = scen.num_marks
    parts = [
        (scen.dW[:, :step, :] > 0).reshape(P, step * d).astype(np.int8),
        scen.jump_counts[:, :step, :].reshape(P, step * m).astype(np.int64),
        (scen.dB[:, step:] > 0).astype(np.int8),
    ]
    key = np.column_stack([p.astype(np.int64) for p in parts])
    _, ids = np.unique(key, axis=0, return_inverse=True)
    return ids


def _group_means(ids, wts, targets):
    """Per-atom weighted means; returns them with the atom count and the
    condition number of the (diagonal) indicator Gram matrix."""
    n = int(ids.max()) + 1
    den = np.bincount(ids, weights=wts, minlength=n)
    out = np.empty_like(targets)
    for c in range(targets.shape[1]):
        num = np.bincount(ids, weights=wts * targets[:, c], minlength=n)
        out[:, c] = (num / den)[ids]
    return out, n, float(den.max() / den.min())


def solve_lsmc(
    problem: ProblemSpec,
    scenarios: ScenarioSet,
    scheme: SchemeParams = SchemeParams(),
    f_fn: Optional[CoefficientFn] = None,
    g_fn: Optional[CoefficientFn] = None,
) -> SolutionGrid:
    """Backward least-squares Monte Carlo on scenario paths."""
    grid = problem.grid
    if scenarios.grid.N != grid.N or scenarios.grid.T != grid.T:
        raise SolverError("scenario grid differs from the problem grid")
    if scenarios.dim_d != problem.dim_d or scenarios.num_marks != problem.marks.m:
        raise SolverError("scenario dimensions differ from the problem's")
    f_fn, g_fn = _coefficients(problem, f_fn, g_fn)

    N, dt = grid.N, grid.dt
    d, m = problem.dim_d, problem.marks.m
    P = scenarios.path_count
    if scheme.basis == "poly":
        declared = 2 + scheme.degree * (d + m + 1)
        if P < 10 * declared:
            raise ConfigError(
                f"need at least {10 * declared} paths for a basis of size "
                f"{declared}, got {P}"
            )
    wts = scenarios.path_weights()
    W = scenarios.brownian_paths()
    J = scenarios.jump_paths()
    B_rem = scenarios.b_remaining()
    lam_dt = problem.marks.intensities * dt
    jvar = jump_variances(problem.marks, dt, scenarios.mode)

    Y = np.empty((P, N + 1))
    Z = np.zeros((P, N + 1, d))
    U = np.zeros((P, N + 1, m))
    K = np.zeros((P, N + 1))
    S = np.empty((P, N + 1))

    Y[:, N], S[:, N] = _terminal_values(problem, W[:, N, :], J[:, N, :], (P,))

    resid_rms = []
    basis_sizes = []
    conditions = []
    dk_cols = np.empty((P, N))
    for i in range(N - 1, -1, -1):
        f1, g1 = _coefficient_values(
            (f_fn, g_fn), i + 1, grid.times[i + 1], Y[:, i + 1], Z[:, i + 1],
            U[:, i + 1], W[:, i + 1, :], J[:, i + 1, :],
        )
        target_y = Y[:, i + 1] + f1 * dt + g1 * scenarios.dB[:, i]
        zt, ut = extract_zu(
            Y[:, i + 1], scenarios.dW[:, i, :], scenarios.jump_counts[:, i, :],
            lam_dt, dt, jvar,
        )
        targets = np.column_stack([target_y, zt, ut])
        S[:, i] = _barrier_values(problem, grid.times[i], W[:, i, :], (P,))
        if scheme.basis == "indicator":
            ids = _atom_ids(scenarios, i)
            fitted, n_basis, cond = _group_means(ids, wts, targets)
        else:
            features = [W[:, i, c] for c in range(d)]
            features += [J[:, i, k] for k in range(m)]
            features.append(B_rem[:, i])
            fitted, n_basis, cond = _poly_fit(features, S[:, i], wts, targets, scheme, i)
        y_tilde = fitted[:, 0]
        Z[:, i, :] = fitted[:, 1 : 1 + d]
        U[:, i, :] = fitted[:, 1 + d :]
        Y[:, i], dk_cols[:, i] = reflect_step(y_tilde, S[:, i])
        resid_rms.append(float(np.sqrt(wts @ (target_y - y_tilde) ** 2)))
        basis_sizes.append(n_basis)
        conditions.append(cond)

    np.cumsum(dk_cols, axis=1, out=K[:, 1:])
    return SolutionGrid(
        grid=grid,
        Y=Y,
        Z=Z,
        U=U,
        K=K,
        S=S,
        weights=wts,
        diagnostics={
            "basis": scheme.basis,
            "basis_sizes": basis_sizes[::-1],
            "regression_rms": resid_rms[::-1],
            "regression_condition": conditions[::-1],
            "mode": scenarios.mode,
        },
    )
