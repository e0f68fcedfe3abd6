"""Validators that turn the structural theorems into pass/fail reports.

Each validator is a pure function of its inputs: comparison of ordered
problems, the reflection complementarity check, positivity under a signed
generator split, the discrete second-moment identity for semimartingales
driven by (W, B, jumps), and the empirical norm report.  Premise checks are
``generator.Certificate`` records, sampled on ``problem_cloud`` clouds and
never proofs; a failed premise marks the report "premises-not-met" and the
conclusion is not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .drivers import MarkSpace, ScenarioSet
from .errors import ConfigError, SolverError
from .expr import EvalContext, Expr, evaluate, to_string
from .generator import (
    PREMISE_SLACK,
    Certificate,
    check_rate_nonnegative,
    ensure_expr,
    problem_cloud,
)
from .solver import (
    ProblemSpec,
    SolutionGrid,
    TreeModel,
    TreeSolution,
    _node_margins,
    solve_tree_exact,
)

# (size, seed) of the certificate clouds and the verdict tolerances of the
# comparison and the positivity check
_COMPARE_CLOUD = (512, 2024)
_COMPARE_TOL = 1e-12
_POSITIVITY_CLOUD = (256, 511)
_POSITIVITY_TOL = 1e-10


@dataclass
class ComparisonReport:
    """Ordered-data comparison on a shared tree.

    margin is the node-wise minimum of (Y2 - Y1) over every slice and time;
    verdict is 'pass' only when every premise certificate passed and the
    margin clears -tolerance.
    """

    premises: List[Certificate]
    margin: float
    root_gap: float
    verdict: str
    tolerance: float

    def premises_ok(self) -> bool:
        return all(c.passed for c in self.premises)

    def as_dict(self):
        return {
            "premises": [c.as_dict() for c in self.premises],
            "margin": self.margin,
            "root_gap": self.root_gap,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
        }


def _verdict(premises, holds: bool) -> str:
    """'premises-not-met' unless every premise passed, then whether the
    conclusion holds."""
    if not all(c.passed for c in premises):
        return "premises-not-met"
    return "pass" if holds else "fail"


def _require_finite(label: str, **fields):
    """Refuse a solution with a non-finite value in one of its fields, each
    a list of arrays: no certificate cloud can be sized to cover it."""
    for name, arrays in fields.items():
        if not all(np.isfinite(a).all() for a in arrays):
            raise SolverError(f"{label} has a non-finite {name}; no certificate cloud covers it")


def _solution_radius(sols) -> float:
    r = 1.0
    for sol in sols:
        for arr in (sol.Y, sol.Z, sol.U):
            for a in arr:
                r = max(r, float(np.abs(a).max(initial=0.0)))
    return r


def compare_solutions(
    p1: ProblemSpec,
    p2: ProblemSpec,
    tree: Optional[TreeModel] = None,
) -> ComparisonReport:
    """Certify ordered data, solve both problems on one tree, report margin.

    The coefficient g must be structurally identical (the ordering statement
    fixes g); grid, dimensions and marks must match.  The f ordering is
    certified on a sampled cloud sized to cover both solutions' ranges; a
    solution with a non-finite Y, Z or U raises SolverError naming it.
    """
    if p1.grid != p2.grid:
        raise ConfigError("compared problems must share the time grid")
    if p1.dim_d != p2.dim_d:
        raise ConfigError("compared problems must share dim_d")
    if p1.marks != p2.marks:
        raise ConfigError("compared problems must share the mark space")
    if to_string(p1.generator.g) != to_string(p2.generator.g):
        raise ConfigError("the comparison fixes g: both problems need the same g")

    sol1 = solve_tree_exact(p1, tree, label="the solution of problem 1")
    sol2 = solve_tree_exact(p2, tree, label="the solution of problem 2")
    for k, sol in enumerate((sol1, sol2), 1):
        _require_finite(f"the solution of problem {k}", Y=sol.Y, Z=sol.Z, U=sol.U)

    premises = []
    # terminal ordering is exact on the enumerated terminal states
    xi_worst = float((sol1.Y[-1] - sol2.Y[-1]).max())
    premises.append(
        Certificate("terminal_ordered", xi_worst <= PREMISE_SLACK, xi_worst)
    )
    s_worst = max(float((s1 - s2).max()) for s1, s2 in zip(sol1.S, sol2.S))
    premises.append(
        Certificate("barrier_ordered", s_worst <= PREMISE_SLACK, s_worst)
    )
    radius = _solution_radius((sol1, sol2)) * 1.5
    ctx = problem_cloud(p1, *_COMPARE_CLOUD, radius)
    f_worst = float(
        (np.asarray(evaluate(p1.generator.f, ctx)) - evaluate(p2.generator.f, ctx)).max()
    )
    premises.append(
        Certificate("generator_ordered", f_worst <= PREMISE_SLACK, f_worst)
    )

    pair = [np.stack(ys, axis=-1) for ys in zip(sol1.Y, sol2.Y)]  # members 0 and 1
    margin = _node_margins(pair, slice(1), slice(1, 2))[0]
    root_gap = sol2.root_value() - sol1.root_value()
    verdict = _verdict(premises, margin >= -_COMPARE_TOL)
    return ComparisonReport(premises, margin, root_gap, verdict, _COMPARE_TOL)


def skorokhod_check(sol: SolutionGrid) -> np.ndarray:
    """Per-path |sum_i (Y_i - S_i) * dK_i|.

    reflect_step makes every summand bitwise zero, so artifact-produced
    solutions return exact zeros; a positive entry flags an injected
    complementarity violation.
    """
    dk = np.diff(sol.K, axis=1)
    return np.abs(((sol.Y[:, :-1] - sol.S[:, :-1]) * dk).sum(axis=1))


@dataclass
class PositivityReport:
    min_y: float
    premises: List[Certificate]
    verdict: str

    def premises_ok(self) -> bool:
        return all(c.passed for c in self.premises)

    def as_dict(self):
        return {
            "min_y": self.min_y,
            "premises": [c.as_dict() for c in self.premises],
            "verdict": self.verdict,
        }


def positivity_check(
    sol: SolutionGrid,
    problem: ProblemSpec,
) -> PositivityReport:
    """Minimum of Y under the signed generator split f = pi + h.

    Premises certified: the modulus pi and the rate h are present, f agrees
    with pi + h on a sampled cloud, h >= 0 on the grid times, and the
    terminal values are nonnegative.  Only then is min Y >= -_POSITIVITY_TOL
    asserted.  A solution with a non-finite Y, Z or U raises SolverError.
    """
    _require_finite("the solution", Y=[sol.Y], Z=[sol.Z], U=[sol.U])
    premises = []
    gen = problem.generator
    have_split = gen.pi is not None and gen.rate is not None
    premises.append(
        Certificate("split_present", have_split, 0.0 if have_split else 1.0)
    )
    if have_split:
        radius = max(1.0, float(np.abs(sol.Y).max()), float(np.abs(sol.Z).max(initial=0.0)))
        ctx = problem_cloud(problem, *_POSITIVITY_CLOUD, radius * 1.5)
        split = np.asarray(evaluate(gen.pi, ctx)) + np.asarray(evaluate(gen.rate, ctx))
        gap = float(np.abs(np.asarray(evaluate(gen.f, ctx)) - split).max())
        premises.append(Certificate("generator_is_pi_plus_h", gap <= PREMISE_SLACK, gap))
        premises.append(check_rate_nonnegative(gen, problem.grid.times))
    xi_min = float(sol.Y[:, -1].min())
    premises.append(Certificate("terminal_nonnegative", xi_min >= -1e-12, xi_min))

    min_y = float(sol.Y.min())
    verdict = _verdict(premises, min_y >= -_POSITIVITY_TOL)
    return PositivityReport(min_y, premises, verdict)


ComponentLike = Union[Expr, str, float, int, np.ndarray, None]


@dataclass
class ItoComponents:
    """Discrete semimartingale data.

    alpha evolves forward as
        alpha_{i+1} = alpha_i + beta_i*dt + eta_i . dW_i + gamma_{i+1}*dB_i
                      + dk_i + sum_k sigma_{k,i} * (count_{k,i} - lambda_k*dt)
    with gamma read at the right endpoint (backward integral convention).
    Expression components may reference t, w1..wd, j1..jm and are evaluated
    on the path state at t_i (t_{i+1} for gamma); array components give the
    per-step values directly, shape (P, N) (eta: (P, N, d); sigma: (P, N, m)).
    """

    alpha0: float = 0.0
    beta: ComponentLike = None
    gamma: ComponentLike = None
    eta: ComponentLike = None
    sigma: ComponentLike = None
    dk: Optional[np.ndarray] = None


@dataclass
class ItoReport:
    residual_max: float
    decomposition: dict
    martingale_stats: dict
    alpha_terminal_sq_mean: float
    alpha_terminal_sq_se: float
    expected_terminal_sq: Optional[float] = None
    terminal_sq_within_5se: Optional[bool] = None

    def as_dict(self):
        out = {
            "residual_max": self.residual_max,
            "decomposition": self.decomposition,
            "martingale_stats": self.martingale_stats,
            "alpha_terminal_sq_mean": self.alpha_terminal_sq_mean,
            "alpha_terminal_sq_se": self.alpha_terminal_sq_se,
        }
        if self.expected_terminal_sq is not None:
            out["expected_terminal_sq"] = self.expected_terminal_sq
            out["terminal_sq_within_5se"] = bool(self.terminal_sq_within_5se)
        return out


def _component_values(comp, scen: ScenarioSet, step_indices, width=None):
    """Per-step values of one component, shape (P, N) or (P, N, width)."""
    P, N, d = scen.dW.shape
    shape = (P, N) if width is None else (P, N, width)
    if comp is None:
        return np.zeros(shape)
    if isinstance(comp, (int, float)):
        return np.full(shape, float(comp))
    if isinstance(comp, np.ndarray):
        if comp.shape != shape:
            raise ConfigError(
                f"component array has shape {comp.shape}, expected {shape}"
            )
        return np.asarray(comp, dtype=float)
    if isinstance(comp, str):
        comp = ensure_expr(comp)
    W = scen.brownian_paths()
    J = scen.jump_paths()
    times = scen.grid.times
    out = np.empty(shape)
    for col, i in enumerate(step_indices):
        ctx = EvalContext(t=times[i], w=W[:, i, :], j=J[:, i, :])
        vals = np.asarray(evaluate(comp, ctx), dtype=float)
        if width is None:
            out[:, col] = np.broadcast_to(vals, (P,))
        else:
            out[:, col, :] = np.broadcast_to(vals[..., None], (P, width))
    return out


def ito_residual_check(
    scenarios: ScenarioSet,
    components: ItoComponents,
    marks: Optional[MarkSpace] = None,
    expected_terminal_sq: Optional[float] = None,
) -> ItoReport:
    """Exact discrete second-moment identity plus martingale statistics.

    Builds alpha from the components, splits each increment into
    F_i = beta*dt + eta.dW + dk + sigma.(count - lambda*dt) and
    G_i = gamma_{i+1}*dB_i, and checks the algebraic identity

        |alpha_N|^2 - |alpha_0|^2
            = sum_i [ 2*alpha_i*F_i + 2*alpha_{i+1}*G_i + F_i^2 - G_i^2 ]

    path by path; the residual is pure float roundoff for any component
    set.  The statistical part centers each martingale family at the left
    endpoint (alpha_i * eta dW, alpha_i * gamma_{i+1} dB,
    alpha_i * sigma (count - lambda dt)) and reports whether each sample
    mean sits within 5 standard errors of zero.
    """
    grid = scenarios.grid
    P, N, d = scenarios.dW.shape
    m = scenarios.num_marks
    dt = grid.dt
    if marks is None:
        if m:
            raise ConfigError("marks are required when scenarios carry jumps")
        marks = MarkSpace(np.empty(0), np.empty(0))
    lam_dt = marks.intensities * dt

    fwd = list(range(N))
    beta = _component_values(components.beta, scenarios, fwd)
    eta = _component_values(components.eta, scenarios, fwd, width=d)
    sigma = _component_values(components.sigma, scenarios, fwd, width=m)
    gamma = _component_values(components.gamma, scenarios, [i + 1 for i in fwd])
    dk = components.dk
    if dk is None:
        dk = np.zeros((P, N))
    elif dk.shape != (P, N):
        raise ConfigError(f"dk has shape {dk.shape}, expected {(P, N)}")

    comp_jump = scenarios.jump_counts - lam_dt[None, None, :]
    w_part = (eta * scenarios.dW).sum(axis=2)
    jump_part = (sigma * comp_jump).sum(axis=2)
    F = beta * dt + w_part + dk + jump_part
    G = gamma * scenarios.dB

    alpha = np.empty((P, N + 1))
    alpha[:, 0] = components.alpha0
    np.cumsum(F + G, axis=1, out=alpha[:, 1:])
    alpha[:, 1:] += components.alpha0

    a_left = alpha[:, :-1]
    a_right = alpha[:, 1:]
    rhs = (2.0 * a_left * F + 2.0 * a_right * G + F**2 - G**2).sum(axis=1)
    lhs = alpha[:, -1] ** 2 - alpha[:, 0] ** 2
    residual_max = float(np.abs(lhs - rhs).max())

    wts = scenarios.path_weights()
    decomposition = {
        "drift": float(wts @ (2.0 * a_left * beta * dt).sum(axis=1)),
        "reflection": float(wts @ (2.0 * a_left * dk).sum(axis=1)),
        "w_martingale": float(wts @ (2.0 * a_left * w_part).sum(axis=1)),
        "b_term": float(wts @ (2.0 * a_right * G).sum(axis=1)),
        "jump_martingale": float(wts @ (2.0 * a_left * jump_part).sum(axis=1)),
        "square_F": float(wts @ (F**2).sum(axis=1)),
        "square_G": float(wts @ (G**2).sum(axis=1)),
    }

    stats = {}
    for name, per_step in (
        ("w", a_left * w_part),
        ("b", a_left * G),
        ("jump", a_left * jump_part),
    ):
        per_path = per_step.sum(axis=1)
        mean = float(wts @ per_path)
        var = float(wts @ (per_path - mean) ** 2)
        se = float(np.sqrt(var * (wts**2).sum()))
        within = bool(abs(mean) <= 5.0 * se) if se > 0.0 else bool(mean == 0.0)
        stats[name] = {"mean": mean, "se": se, "within_5se": within}

    term_sq = alpha[:, -1] ** 2
    t_mean = float(wts @ term_sq)
    t_var = float(wts @ (term_sq - t_mean) ** 2)
    t_se = float(np.sqrt(t_var * (wts**2).sum()))
    within_term = None
    if expected_terminal_sq is not None:
        within_term = bool(abs(t_mean - expected_terminal_sq) <= 5.0 * t_se)
    return ItoReport(
        residual_max=residual_max,
        decomposition=decomposition,
        martingale_stats=stats,
        alpha_terminal_sq_mean=t_mean,
        alpha_terminal_sq_se=t_se,
        expected_terminal_sq=expected_terminal_sq,
        terminal_sq_within_5se=within_term,
    )


def norm_report(sol: SolutionGrid, marks: MarkSpace) -> dict:
    """Empirical squared norms: E sup Y^2, sum E|Z|^2 dt, sum E|U|^2_lam dt,
    E K_T^2.  Any NaN is a hard failure naming the first offending index."""
    for name, arr in (("Y", sol.Y), ("Z", sol.Z), ("U", sol.U), ("K", sol.K)):
        nan = np.isnan(arr)
        if nan.any():
            where = np.argwhere(nan)[0]
            raise SolverError(
                f"NaN in {name} at (path, step) {tuple(int(v) for v in where[:2])}"
            )
    wts = sol.weights
    dt = sol.grid.dt
    sup_y2 = float(wts @ (sol.Y**2).max(axis=1))
    z_norm = float(wts @ (sol.Z[:, :-1, :] ** 2).sum(axis=(1, 2)) * dt)
    lam = marks.intensities[None, None, :]
    u_norm = float(wts @ (lam * sol.U[:, :-1, :] ** 2).sum(axis=(1, 2)) * dt)
    k_t2 = float(wts @ sol.K[:, -1] ** 2)
    return {"sup_y_sq": sup_y2, "z_norm_sq": z_norm, "u_norm_sq": u_norm, "k_t_sq": k_t2}


def tree_norm_report(sol: TreeSolution) -> dict:
    """``norm_report``'s squared norms on the tree slices of one problem,
    carried backward in one pass (``TreeSolution.reductions``): past
    ``SUP_Y_SQ_WORK`` node steps (distinct Y^2 values x stored nodes),
    E sup Y^2 is None and "sup_y_sq_skipped" says why.  The norms of a
    solution that fails ``TreeSolution.validate`` may be non-finite."""
    return sol.reductions.norms(0)
