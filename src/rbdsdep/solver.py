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
firing with probability lambda_k*dt), held by ``TreeModel`` as a
recombining lattice.  Its backward step computes the continuation value
on a slice; the exact solve reflects it, and ``tree_balance_residual``
reruns the same step on the stored slices to check Y_i - dK_i against it.

``solve_lsmc`` replaces E_i by cross-sectional least squares on scenario
paths; it shares the coefficient evaluation and the terminal/barrier
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
    check_two_point_law,
    enumerate_scenarios,
)
from .errors import ConfigError, SolverError
from .expr import EvalContext, Num, evaluate
from .generator import GeneratorSpec, check_variables, ensure_expr
from .table import CsvTable

#: a generator: called as f(t, y, z, u, w, j) on a slice's values, the
#: signature of ``EnvelopeFunction``; it receives no step index
CoefficientFn = Callable[..., np.ndarray]

#: how far Y may sit below the barrier S before validate() rejects it
_BARRIER_TOL = 1e-12

#: most node steps, (distinct values of Y^2) x (stored nodes), that the
#: E sup Y^2 pass of ``backward_reductions`` makes for one solution: about
#: 1 s at the 6-17 ns per step measured on a shared 2-core Xeon VM (numpy 2.4)
SUP_Y_SQ_WORK = 100_000_000


def coefficient_from_expr(expr, intensities) -> CoefficientFn:
    expr = ensure_expr(expr)

    def fn(t, y, z, u, w, j):
        return evaluate(
            expr, EvalContext(t=t, y=y, z=z, u=u, w=w, j=j, intensities=intensities)
        )

    return fn


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
        check_variables(self.barrier, "barrier", {"t"}, "w", d, m)
        check_variables(self.terminal, "terminal condition", (), "wj", d, m)
        for rule in self.generator.variable_rules():
            check_variables(*rule, d, m)

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


def lattice_csv_rows(sol: TreeSolution) -> CsvTable:
    """Header plus one row per lattice node of slices 0..N, each slice's
    nodes in flat C order (the node index of ``TreeSolution.validate``'s
    errors): the slice, the node's coordinates (per W axis its count of
    minus signs, per mark its jump count, then its B column), its
    probability, and Y, Z, U, dK (0.0 on slice N) and S at the node."""
    tree, N = sol.tree, sol.grid.N
    d, m = tree.dim_d, tree.marks.m
    header = (
        ["slice"]
        + [f"w{c + 1}_minus" for c in range(d)]
        + [f"j{k + 1}" for k in range(m)]
        + ["b_column", "prob", "y"]
        + [f"z{c + 1}" for c in range(d)]
        + [f"u{k + 1}" for k in range(m)]
        + ["dk", "s"]
    )
    slices = []
    for i in range(N + 1):
        shape = tree.slice_shape(i)
        n = math.prod(shape)
        dk = sol.dK[i] if i < N else np.zeros(shape)
        slices.append(
            [np.full(n, i)]
            + list(np.indices(shape).reshape(len(shape), n))
            + [tree.state_probs(i).ravel(), sol.Y[i].ravel()]
            + list(sol.Z[i].reshape(n, d).T)
            + list(sol.U[i].reshape(n, m).T)
            + [dk.ravel(), sol.S[i].ravel()]
        )
    return CsvTable(header, [np.concatenate(column) for column in zip(*slices)])


#: values of ``TreeModel.b_axis``
B_AXES = ("exhaustive", "collapsed")


def b_axis_for(problem: ProblemSpec) -> str:
    """The B axis a problem's own tree uses: collapsed exactly when g
    parses to the constant 0 (see ``TreeModel``)."""
    g = problem.generator.g
    return "collapsed" if isinstance(g, Num) and g.value == 0.0 else "exhaustive"


@dataclass(frozen=True)
class TreeModel:
    """The recombining two-point lattice: its budget, its node layout and
    its backward step.

    Histories with equal W and jump counts share a node (the recombination
    of Cox, Ross and Rubinstein).  Slice i holds arrays shaped
    (i+1,)*d + (i+1,)*m + (b_columns(i),), plus a component axis for Z and
    U: per W component the count k_c of minus signs in steps 0..i-1 (w_c =
    (i - 2*k_c)*sqrt(dt)), per mark its jump count, then the B axis.  dK
    has one slice per step i < N.  Full paths are those of
    ``enumerate_scenarios``, each gathered from its node on every slice
    (``path_nodes``).

    The B axis is one of ``B_AXES``:

    * exhaustive: all 2**(N-i) future B sign patterns of steps i..N-1 as
      digits, step i the most significant, + as digit 0.  g*dB_i makes Y
      depend on their order, so they do not recombine.
    * collapsed: one column.  B enters only through g*dB, and the
      expression grammar has no B variable, so with g = 0 no value
      depends on B.  ``b_axis_for`` chooses it exactly when g parses to
      the constant 0 (the config default); a g that is zero only in
      value, such as ``0*y``, stays exhaustive.  The config's tree and
      ``solve_tree_exact``'s default tree use ``b_axis_for``; a tree
      built by hand is exhaustive unless it says otherwise, and
      ``expectation`` refuses a g that is not exactly 0 on a collapsed
      axis.  The path views spread the one column over every B sign,
      so they read the same on both axes.  ``lattice.csv`` (schema
      ``rbdsdep.lattice.v2``) writes one row per stored node: its
      ``b_column`` is 0 and its ``prob`` the lattice point's.

    Only ``b_columns`` and ``_onto_b_columns`` branch on the axis; the
    rest of the layout, ``path_nodes`` included, reads ``b_columns``.

    ``_points`` keeps each slice per axis, as its law is a product of
    per-axis binomials: w over the W axes, j over the mark axes and one
    probability vector per axis, which ``state_probs`` multiplies only
    when asked.  It and the one-step probabilities are built on first
    use, after ``ensure_budget``, and kept for the tree's lifetime (a
    config's one tree is shared by its runs).

    max_steps guards the default desk scale; max_states bounds the stored
    lattice nodes (lattice points times B columns, summed over slices).
    ``==`` and the hash read the six fields only.
    """

    grid: TimeGrid
    dim_d: int
    marks: MarkSpace
    max_steps: int = 6
    max_states: int = 4_000_000
    b_axis: str = "exhaustive"

    def __post_init__(self):
        if self.dim_d < 1:
            raise ConfigError(f"dim_d must be >= 1, got {self.dim_d}")
        if self.b_axis not in B_AXES:
            raise ConfigError(f"b_axis must be one of {B_AXES}, got {self.b_axis!r}")
        if self.grid.N > self.max_steps:
            raise ConfigError(
                f"tree depth N = {self.grid.N} exceeds max_steps = {self.max_steps}; "
                "raise scheme.tree_max_steps or use solve_lsmc"
            )
        check_two_point_law(self.marks, self.grid.dt)

    @property
    def node_axes(self) -> int:
        """Axes of a slice before any z/u component axis: d + m + 1."""
        return self.dim_d + self.marks.m + 1

    def b_columns(self, i: int) -> int:
        """Stored B columns of slice i: 2**(N-i) exhaustive, 1 collapsed."""
        return 1 if self.b_axis == "collapsed" else 2 ** (self.grid.N - i)

    def slice_shape(self, i: int):
        """(W minus counts..., jump counts..., B columns) of slice i."""
        return (i + 1,) * (self.node_axes - 1) + (self.b_columns(i),)

    def slice_states(self, i: int) -> int:
        return math.prod(self.slice_shape(i))

    def total_states(self) -> int:
        return sum(self.slice_states(i) for i in range(self.grid.N + 1))

    def ensure_budget(self):
        total = self.total_states()
        if total > self.max_states:
            raise SolverError(
                f"tree budget exceeded: {total} lattice nodes > {self.max_states}; "
                "raise scheme.tree_max_states or lower grid.N"
            )

    @cached_property
    def _axis_probs(self) -> np.ndarray:
        """Per lattice axis, the one-step probability of moving up: 1/2 (a
        minus sign) on each W axis, lambda_k*dt on mark axis k.  Builds
        are bitwise equal, so threads sharing a tree may race."""
        self.ensure_budget()
        return np.concatenate((np.full(self.dim_d, 0.5), self.marks.intensities * self.grid.dt))

    @cached_property
    def _points(self):
        """Per slice i: w, shaped (i+1,)*d + (1,)*(m+1) + (d,); j, shaped
        (1,)*d + (i+1,)*m + (1, m); and per lattice axis the law of its
        count, shaped along that axis, by the two-point recurrence (stay
        with 1-p, move up with p).  Builds are bitwise equal."""
        d, m, p, out = self.dim_d, self.marks.m, self._axis_probs, []
        laws = [np.ones(1)] * (d + m)
        for i in range(self.grid.N + 1):
            n = i + 1
            cw, cj = (np.moveaxis(np.indices((n,) * k, float), 0, -1) for k in (d, m))
            w = (i - 2.0 * cw.reshape((n,) * d + (1,) * (m + 1) + (d,))) * np.sqrt(self.grid.dt)
            j = cj.reshape((1,) * d + (n,) * m + (1, m))
            shaped = [v.reshape((1,) * a + (n,) + (1,) * (d + m - a)) for a, v in enumerate(laws)]
            out.append((w, j, shaped))
            laws = [np.append(v * (1.0 - q), 0.0) + np.append(0.0, v * q) for v, q in zip(laws, p)]
        return out

    def context(self, i: int):
        """(w, j) broadcastable against slice-i arrays."""
        return self._points[i][:2]

    def _step_mean(self, values: np.ndarray, diff_axis: Optional[int] = None) -> np.ndarray:
        """E over the step-i W and jump branches of slice-(i+1) values: on
        each lattice axis the two-point mean (1-p)*lo + p*hi of a node's
        children at coordinates k and k+1; on diff_axis the difference
        hi - lo instead.  Trailing axes (B, components) pass through."""
        for axis, p in enumerate(self._axis_probs):
            head = (slice(None),) * axis
            lo, hi = values[head + (slice(None, -1),)], values[head + (slice(1, None),)]
            values = hi - lo if axis == diff_axis else (1.0 - p) * lo + p * hi
        return values

    def _onto_b_columns(self, mean: np.ndarray, g1: Optional[np.ndarray] = None) -> np.ndarray:
        """A step mean of slice-(i+1) values put onto slice i's B columns,
        plus g*dB_i when g1, g on slice i+1, is given.

        Exhaustive: the step-i B sign is the high digit of slice i's B
        axis, + first, then -, so mean is repeated once per sign, plus
        that sign times sqrt(dt)*E_i[g].  Collapsed: mean is slice i's one
        column; there is no dB term, so g1 must be exactly 0."""
        if self.b_axis == "collapsed":
            if g1 is not None and np.any(g1 != 0.0):
                raise SolverError(
                    "g is not 0 on a tree with a collapsed B axis; "
                    "solve it on an exhaustive one"
                )
            return mean
        axis = self.node_axes - 1
        if g1 is None:
            return np.concatenate((mean, mean), axis=axis)
        g_db = np.sqrt(self.grid.dt) * self._step_mean(g1)
        return np.concatenate((mean + g_db, mean - g_db), axis=axis)

    def step_mean(self, i: int, values: np.ndarray) -> np.ndarray:
        """E_i of slice-(i+1) node values (no component axis), on slice i."""
        return self._onto_b_columns(self._step_mean(values))

    def expectation(self, i: int, y1, z1, u1, f_fn, g_fn) -> np.ndarray:
        """E_i[Y_{i+1} + f*dt + g*dB_i] on slice i, with f and g evaluated
        on the slice-(i+1) values (y1, z1, u1), which may carry a trailing
        member axis (see ``solve_tree_exact``)."""
        t_next, dt = self.grid.times[i + 1], self.grid.dt
        ctx = _context(self, i + 1, y1.ndim > self.node_axes)
        f1, g1 = _coefficient_values((f_fn, g_fn), t_next, y1, z1, u1, *ctx)
        return self._onto_b_columns(self._step_mean(y1 + f1 * dt), g1)

    def integrands(self, i: int, y1) -> tuple:
        """(Z_i, U_i) on slice i: E_i[Y_{i+1} dW_i] / dt and E_i[Y_{i+1}
        (count_k - lambda_k*dt)] / Var(count_k), the same for both step-i B
        signs.  A minus sign moves W axis c up, so Z_c = -E_i[hi - lo] /
        (2 sqrt(dt)); the variance cancels: U_k = E_i[hi - lo] on axis d+k."""
        d = self.dim_d
        scale = [-0.5 / np.sqrt(self.grid.dt)] * d + [1.0] * self.marks.m
        zu = np.stack([self._step_mean(y1, a) * c for a, c in enumerate(scale)], axis=-1)
        zu = self._onto_b_columns(zu)
        return zu[..., :d].copy(), zu[..., d:].copy()

    def state_probs(self, i: int) -> np.ndarray:
        """Exact probability of each slice-i node, as a read-only
        broadcast; sums to one.  A collapsed B column carries its lattice
        point's whole probability.  The per-axis laws are multiplied in
        axis order."""
        probs = math.prod(self._points[i][2]) / self.b_columns(i)
        return np.broadcast_to(probs, self.slice_shape(i))

    def path_nodes(self, scen: ScenarioSet) -> list:
        """Per slice i, the index tuple of each path's node in a two-point
        ``ScenarioSet`` on this grid: per W axis the count of minus signs
        of dW in steps 0..i-1, per mark its jump count, then the signs of
        dB in steps i..N-1 as digits, step i the most significant, + as
        digit 0, taken modulo ``b_columns(i)``."""
        P, N = scen.dB.shape
        steps = np.concatenate((scen.dW < 0, scen.jump_counts > 0), axis=2)
        counts = np.zeros((P, N + 1, steps.shape[2]), np.int64)
        np.cumsum(steps, axis=1, out=counts[:, 1:])
        # the B digits from step i on: suffix sums of the sign bits, step s at 2**(N-1-s)
        bits = (scen.dB < 0) << np.arange(N - 1, -1, -1)
        b_digits = np.zeros((P, N + 1), np.int64)
        b_digits[:, :N] = bits[:, ::-1].cumsum(axis=1)[:, ::-1]
        return [tuple(counts[:, i].T) + (b_digits[:, i] % self.b_columns(i),) for i in range(N + 1)]


@dataclass
class TreeSolution:
    """Node-indexed exact solution on the lattice ``tree``, in its layout;
    its K moments, Z/U norms and E sup Y^2 come from one pass."""

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

    def root_value(self) -> float:
        return float(self.Y[0].mean())

    @property
    def members(self) -> Optional[int]:
        """The member count of a solve with members (the trailing axis of
        every slice, see ``solve_tree_exact``); None for one problem."""
        return self.Y[0].shape[-1] if self.Y[0].ndim > self.tree.node_axes else None

    def node_failures(self) -> list:
        """The first node check of ``validate`` that fails, per member (one
        entry without members), as "what at (slice, node) (i, n)" with n a
        flat index of the member's own slice; None where every check holds.

        The checks run once over the batched slices, in ``validate``'s
        order: Y, Z, U and dK finite, dK >= 0, Y >= S - _BARRIER_TOL and
        (Y - S) * dK == 0 bitwise."""
        count = self.members or 1
        axes = self.tree.node_axes + (self.members is not None)
        found = [None] * count

        def check(what, i, bad):
            if bad.ndim > axes:  # any z/u component
                bad = bad.any(axis=tuple(range(axes, bad.ndim)))
            rows = bad.reshape(-1, count)
            for k in np.flatnonzero(rows.any(axis=0)):
                if found[k] is None:
                    found[k] = f"{what} at (slice, node) ({i}, {int(rows[:, k].argmax())})"

        for name, slices in (("Y", self.Y), ("Z", self.Z), ("U", self.U), ("dK", self.dK)):
            for i, arr in enumerate(slices):
                check(f"non-finite {name}", i, ~np.isfinite(arr))
        for i, dk in enumerate(self.dK):
            check("negative dK", i, dk < 0.0)
        for i, (y, s) in enumerate(zip(self.Y, self.S)):
            check("Y below the barrier", i, y < s - _BARRIER_TOL)
        for i, (y, s, dk) in enumerate(zip(self.Y, self.S, self.dK)):
            check("reflection is not complementary", i, (y - s) * dk != 0.0)
        return found

    def validate(self):
        """Raise SolverError if a reflection invariant fails on a node.

        The node-wise form of ``SolutionGrid.validate`` (see
        ``node_failures``).  Errors name the (slice, node), node a flat
        slice index.  With members, the error is that of the first
        failing member, and it ends with "of member k"."""
        for k, failure in enumerate(self.node_failures()):
            if failure is not None:
                raise SolverError(failure if self.members is None else f"{failure} of member {k}")
        return self

    @cached_property
    def reductions(self) -> "Reductions":
        """``backward_reductions`` of every member, on first use."""
        return backward_reductions(self.tree, self.Z, self.U, self.dK, self.Y)

    @cached_property
    def _sums(self) -> tuple:
        """((E[K_T], E[K_T^2]), (sum_i E|Z_i|^2 dt, sum_i E|U_i|^2_lambda dt)),
        each a list per entry with members: off the reductions once taken,
        else off a pass without E sup Y^2 (no work for it)."""
        red = self.__dict__.get("reductions") or backward_reductions(
            self.tree, self.Z, self.U, self.dK, self.Y, work=0
        )
        pick = (lambda v: v) if self.members else (lambda v: v[0])
        return tuple(tuple(pick(v) for v in s) for s in (red.k_moments, red.zu_norms))

    k_moments = property(lambda self: self._sums[0])
    zu_norms = property(lambda self: self._sums[1])

    def sup_y_sq(self) -> float:
        """E[max_i Y_i^2] of one problem; SolverError past ``SUP_Y_SQ_WORK``
        and on a solve with members, whose values are reductions.sup_y_sq."""
        if self.members is not None:
            raise SolverError("a solve with members has one E sup Y^2 per member")
        value = self.reductions.sup_y_sq[0]
        if isinstance(value, str):
            raise SolverError(value)
        return value

    def member_solutions(self) -> List["TreeSolution"]:
        """The solutions of a solve with members (see ``solve_tree_exact``),
        one per member, each of contiguous arrays in a one-member solve's
        layout, so every reduction over them sums in that solve's order:
        each reads its own pass, bitwise its values in the members' pass."""

        def rows(slices, axis):  # member k's slice is row k, C-ordered
            return [np.ascontiguousarray(np.moveaxis(v, axis, 0)) for v in slices]

        fields = [rows(self.Y, -1), rows(self.Z, -2), rows(self.U, -2)]
        fields += [rows(self.dK, -1), rows(self.S, -1)]
        return [
            TreeSolution(self.problem, self.tree, *([v[k] for v in f] for f in fields))
            for k in range(self.members)
        ]

    def to_solution_grid(self, max_paths: int = MAX_PATHS) -> SolutionGrid:
        """Materialize every full history as a weighted path: the paths and
        weights of ``enumerate_scenarios``, each field gathered from the
        path's node on every slice (``TreeModel.path_nodes``)."""
        tree = self.tree
        scen = enumerate_scenarios(self.grid, tree.dim_d, tree.marks, max_paths)
        nodes, P = tree.path_nodes(scen), scen.path_count

        def gather(slices):
            return np.stack([v[n] for v, n in zip(slices, nodes)], axis=1)

        K = np.concatenate((np.zeros((P, 1)), np.cumsum(gather(self.dK), axis=1)), axis=1)
        Y, Z, U, S = (gather(v) for v in (self.Y, self.Z, self.U, self.S))
        return SolutionGrid(self.grid, Y, Z, U, K, S, scen.path_weights(), {"source": "tree"})


def _slice0_means(values: np.ndarray, members: int) -> list:
    """The slice-0 means of node values with a trailing member axis, one
    float per member, each reduced over the member's own contiguous row,
    so bitwise its one-member mean."""
    rows = np.ascontiguousarray(np.moveaxis(values, -1, 0)).reshape(members, -1)
    return rows.mean(axis=1).tolist()


def _node_margins(Y, lower: slice, upper: slice) -> list:
    """Per pair of members (lower[p], upper[p]) of slices Y with a member
    axis, the node-wise min of Y_upper - Y_lower over every slice and
    time; upper may be one member, paired with each of lower."""
    rows = np.concatenate([y.reshape(-1, y.shape[-1]) for y in Y]).T  # one per member
    return np.subtract(rows[upper], rows[lower], order="C").min(axis=1).tolist()


@dataclass(frozen=True)
class Reductions:
    """What ``backward_reductions`` reads off its pass, one list entry per
    chain member: (E[K_T], E[K_T^2]), the (Z, U) norms, the (Z, U)
    distances (one entry per successive pair) and E sup Y^2, a float or,
    past the work budget, the refusal text."""

    k_moments: tuple
    zu_norms: tuple
    diffs: tuple
    sup_y_sq: list

    def norms(self, k: int) -> dict:
        """Member k's squared norms, named as ``analysis.norm_report``'s;
        with a refusal, "sup_y_sq" is None and "sup_y_sq_skipped" says why."""
        (z, u), (_, k_sq), sup = self.zu_norms, self.k_moments, self.sup_y_sq[k]
        out = {"sup_y_sq": sup, "z_norm_sq": z[k], "u_norm_sq": u[k], "k_t_sq": k_sq[k]}
        if isinstance(sup, str):
            out.update(sup_y_sq=None, sup_y_sq_skipped=sup)
        return out


def backward_reductions(
    tree: TreeModel, Z, U, dK, Y, chain=slice(None), work=SUP_Y_SQ_WORK
) -> Reductions:
    """The ``Reductions`` of the members in chain, a non-empty slice of a
    solve's members (one problem is one member), in one pass: one
    ``tree.step_mean`` per slice on a state stacked on a trailing axis,
    from zeros on slice N, of

    * per member, A_i = E_i[K_T - K_i] = dK_i + E_i[A_{i+1}] and B_i =
      E_i[(K_T - K_i)^2] = dK_i^2 + 2*dK_i*E_i[A_{i+1}] + E_i[B_{i+1}];
    * per member, then per successive pair (Z' - Z, U' - U), |Z_i|^2
      (|U_i|^2_lambda, carried only with marks) plus E_i of its sum from
      slice i+1 on;
    * per member and per c of its own sorted distinct Y^2 values, q_i =
      E_i[q_{i+1}] * 1{Y_i^2 <= c}, from q_N = 1{Y_N^2 <= c}.

    A, B and the sums (times dt) are slice-0 means (``_slice0_means``).
    q's slice-0 column mean is F(c) = P(max_i Y_i^2 <= c), and E max_i
    Y_i^2 = c_1 + sum_k (c_k - c_{k-1}) (1 - F(c_{k-1})); a member whose
    (distinct values) x (stored nodes) exceeds work has no q.  Past
    MAX_PATHS values a slice, the sums take a pass of their own and the
    thresholds go in blocks of about MAX_PATHS // (largest slice) columns,
    and of at least two, a pass each.  A column mean over two or more
    columns sums each column in the order of the whole, so every value is
    bitwise the member's reduced alone."""
    if Z[0].ndim == tree.node_axes + 1:  # one problem: one member
        Z, U = ([v[..., None, :] for v in s] for s in (Z, U))
        dK, Y = ([v[..., None] for v in s] for s in (dK, Y))
    Z, U = ([v[..., chain, :] for v in s] for s in (Z, U))
    dK, Y = ([v[..., chain] for v in s] for s in (dK, Y))
    M, lam, dt = Z[0].shape[-2], tree.marks.intensities, tree.grid.dt
    # state columns: A, B (M each), Z then U sums (half each: members, pairs), q
    half, u_half = 2 * M - 1, (2 * M - 1 if lam.size else 0)
    sums = 2 * M + half + u_half
    rows = np.concatenate([y.reshape(-1, M).T for y in Y], axis=1)  # one per member
    rows **= 2
    rows.sort(axis=1)
    fresh = np.concatenate((np.ones((M, 1), bool), rows[:, 1:] != rows[:, :-1]), axis=1)
    nodes, distinct = rows.shape[1], fresh.sum(axis=1)
    sizes = np.where(distinct * nodes > work, 0, distinct)  # 0: refused
    c_all = rows[fresh & (sizes > 0)[:, None]]  # the carried members' c, in member order
    del rows, fresh
    sup = [  # each member's refusal, replaced below by its value where q is carried
        f"E sup Y^2 carries {n} distinct values of Y^2 over {nodes} stored nodes: "
        f"{n * nodes} node steps (> {work})"
        for n in distinct.tolist()
    ]
    y_sq = [y**2 for y in Y] if c_all.size else None
    ends = np.cumsum(sizes)
    starts = ends - sizes
    largest = max(z.size for z in Z) // (M * tree.dim_d)
    blocks = [(sums, 0, c_all.size)]  # per pass: its sum columns, its thresholds lo:hi
    if c_all.size and (sums + c_all.size) * largest > MAX_PATHS:  # the sums, then q blocks
        count = max(1, min(-(-c_all.size * largest // MAX_PATHS), c_all.size // 2))
        cuts = np.cumsum([0] + [p.size for p in np.array_split(c_all, count)]).tolist()
        blocks = [(sums, 0, 0)] + [(0, lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def carry(width: int, lo: int, hi: int):
        """The slice-0 means of the first width sum columns and F, the
        column means of the (nodes, thresholds) q of c_all[lo:hi]."""
        c, runs = c_all[lo:hi], np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0, None)
        state = np.zeros(Z[-1].shape[:-2] + (width + hi - lo,))
        if hi > lo:  # each member's Y^2 repeated once per threshold of its own
            state[..., width:] = np.repeat(y_sq[-1], runs, axis=-1) <= c
        for i in range(tree.grid.N - 1, -1, -1):
            state = tree.step_mean(i, state)
            if width:
                dk, z, u = dK[i], Z[i], U[i]
                zs = np.concatenate((z, z[..., 1:, :] - z[..., :-1, :]), axis=-2)
                # A, B, Z and U addends, B's read before A's is added
                add = (dk, dk * dk + 2.0 * dk * state[..., :M], (zs**2).sum(axis=-1))
                if u_half:
                    us = np.concatenate((u, u[..., 1:, :] - u[..., :-1, :]), axis=-2)
                    add += ((lam * us**2).sum(axis=-1),)
                state[..., :sums] += np.concatenate(add, axis=-1)
            if hi > lo:
                state[..., width:] *= np.repeat(y_sq[i], runs, axis=-1) <= c
        q = np.ascontiguousarray(state[..., width:])
        F = q.reshape(math.prod(q.shape[:-1]), hi - lo).mean(axis=0)
        return (_slice0_means(state[..., :sums], sums) if width else None), F

    passes = [carry(*block) for block in blocks]
    means, F = passes[0][0], np.concatenate([F for _, F in passes])
    for k in np.flatnonzero(sizes):
        c = c_all[starts[k] : ends[k]]
        sup[k] = float(c[0] + np.diff(c) @ (1.0 - F[starts[k] : ends[k] - 1]))
    z = [v * dt for v in means[2 * M : 2 * M + half]]
    u = [v * dt for v in means[2 * M + half :]] or [0.0] * half
    return Reductions((means[:M], means[M : 2 * M]), (z[:M], u[:M]), (z[M:], u[M:]), sup)


def _context(tree: TreeModel, i: int, members: bool):
    """tree's (w, j) on slice i, broadcastable against slices with a
    member axis when members is set."""
    ctx = tree.context(i)
    return tuple(c[..., None, :] for c in ctx) if members else ctx


def _coefficient_values(fns, t, y, z, u, w, j):
    """Each coefficient at the time-t values, broadcast to y's shape: the
    explicit scheme's f and g, shared by both solvers."""
    return [np.broadcast_to(np.asarray(fn(t, y, z, u, w, j), float), y.shape) for fn in fns]


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


def _require_finite_continuation(y_tilde, i: int, members: Optional[int], label: str):
    """Refuse a non-finite continuation value at slice i: reflecting it
    would give dK = inf - inf."""
    bad = ~np.isfinite(y_tilde)
    if bad.any():
        where = ""
        if members is not None:
            where = f" of member {int(bad.reshape(-1, members).any(axis=0).argmax())}"
        raise SolverError(f"{label} has a non-finite Y at slice {i}{where}")


def solve_tree_exact(
    problem: ProblemSpec,
    tree: Optional[TreeModel] = None,
    f_fn: Optional[CoefficientFn] = None,
    members: Optional[int] = None,
    label: str = "the solution",
) -> TreeSolution:
    """Exact dynamic programming over every two-point branch.

    tree defaults to the problem's own with the default budget and the B
    axis of ``b_axis_for``.  f_fn, a ``CoefficientFn``, defaults to the
    problem's parsed f; the schemes pass their own generators (an
    ``EnvelopeFunction``, the bracketing members, the growth bound).  g is
    always the problem's.

    members, if given, solves that many problems in one backward pass:
    every slice gets a trailing member axis of that length (before the
    component axis of Z and U); g, the barrier and the terminal condition
    are shared.  At step i, f_fn receives every member's slice-(i+1)
    values and returns each member's f along the axis; it may read any
    member's values, not only its own, and that is how a bracketing pass
    freezes iterate k's source at iterate k-1 (see ``schemes``).  When
    member k's f reads only values a separate solve would have had, it
    does the floating-point operations of that solve, and
    ``TreeSolution.member_solutions`` splits the result.

    A continuation value that overflows (or is NaN) stops the pass before
    it is reflected: SolverError "<label> has a non-finite Y at slice i",
    ending in "of member k" for the lowest such member of a pass.
    """
    if tree is None:
        tree = TreeModel(problem.grid, problem.dim_d, problem.marks, b_axis=b_axis_for(problem))
    if tree.grid != problem.grid:
        raise SolverError("tree grid differs from the problem grid")
    if tree.dim_d != problem.dim_d:
        raise SolverError(f"tree has d = {tree.dim_d} but the problem has d = {problem.dim_d}")
    if not np.array_equal(tree.marks.intensities, problem.marks.intensities):
        raise SolverError(
            f"tree mark intensities {tree.marks.intensities.tolist()} differ from "
            f"the problem's {problem.marks.intensities.tolist()}"
        )
    default_f, g_fn = problem.coefficient_fns()
    f_fn = default_f if f_fn is None else f_fn

    N = tree.grid.N
    Y, Z, U, S = ([None] * (N + 1) for _ in range(4))
    dK = [None] * N

    batched = members is not None
    w_ctx, j_ctx = _context(tree, N, batched)
    shape = tree.slice_shape(N) + ((members,) if batched else ())
    Y[N], S[N] = _terminal_values(problem, w_ctx, j_ctx, shape)
    Z[N] = np.zeros(Y[N].shape + (tree.dim_d,))
    U[N] = np.zeros(Y[N].shape + (tree.marks.m,))

    for i in range(N - 1, -1, -1):
        y_tilde = tree.expectation(i, Y[i + 1], Z[i + 1], U[i + 1], f_fn, g_fn)
        _require_finite_continuation(y_tilde, i, members, label)
        Z[i], U[i] = tree.integrands(i, Y[i + 1])
        w_ctx, _ = _context(tree, i, batched)
        S[i] = _barrier_values(problem, tree.grid.times[i], w_ctx, y_tilde.shape)
        Y[i], dK[i] = reflect_step(y_tilde, S[i])

    return TreeSolution(problem, tree, Y, Z, U, dK, S)


def tree_balance_residual(sol: TreeSolution) -> float:
    """Max over nodes of |Y_i - dK_i - E_i[Y_{i+1} + f*dt + g*dB_i]|, with
    the problem's own f and g.

    The martingale terms Z*dW and U*(count - lambda*dt) have exact
    conditional mean zero, so this is the full discrete balance in
    conditional mean.  The expectation is the solver's own step, rerun on
    the stored slices, so the residual catches faults in the reflection
    and in the bookkeeping of Y and dK, and must vanish to float
    roundoff; it cannot catch an error in the expectation itself, which
    both sides share.  The tests check that against an independent
    indicator regression and against the exponential tree.
    """
    f_fn, g_fn = sol.problem.coefficient_fns()
    worst = 0.0
    for i in range(sol.tree.grid.N - 1, -1, -1):
        cont = sol.tree.expectation(i, sol.Y[i + 1], sol.Z[i + 1], sol.U[i + 1], f_fn, g_fn)
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
) -> SolutionGrid:
    """Backward least-squares Monte Carlo on scenario paths, with the
    problem's own f and g."""
    grid = problem.grid
    if scenarios.grid.N != grid.N or scenarios.grid.T != grid.T:
        raise SolverError("scenario grid differs from the problem grid")
    if scenarios.dim_d != problem.dim_d or scenarios.num_marks != problem.marks.m:
        raise SolverError("scenario dimensions differ from the problem's")
    f_fn, g_fn = problem.coefficient_fns()

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
            (f_fn, g_fn), grid.times[i + 1], Y[:, i + 1], Z[:, i + 1],
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
