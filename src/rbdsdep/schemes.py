"""Approximation pipelines built on the exact tree solver.

Three pipelines, one per construction:

* inf-envelope sequence: replace f by its grid inf-convolution f_n and
  solve for an increasing list of n; roots grow toward the minimal
  solution and stay below the companion upper bound V driven by
  C(1 + |y| + |z| + |u|).
* bracketing iteration for discontinuous f: two anchor solves with the
  signed growth bound +-(C(|y|+|z|+|u|) + f_t), then iterates whose
  generator freezes the previous iterate's (Y, Z, U) node-wise inside f
  and adds the modulus pi of the increment; the iterates are sandwiched
  between the anchors.
* sup-envelope sequence: the mirror construction from above, decreasing
  toward the maximal solution.

Each run solves its solutions in one backward pass: the tree slices
carry a trailing member axis, one entry per solution.  Every generator
here is a ``solver.CoefficientFn``, called as f(t, y, z, u, w, j), and
g is always the problem's.  An envelope sequence has one member per
index n, and its ``EnvelopeFunction`` evaluates f_n for all of them at
each step; an inf sequence adds the upper bound V as the last member,
driven by C(1 + |y| + |z| + |u|) (``_inf_envelope_coefficient``).  The
threads of a run, at most the CPUs available to the process, split each
envelope call into query blocks (see ``EnvelopeFunction``), and the pool
lives for one sequence call.  A bracketing run has the lower anchor, the
iterates and the upper anchor as members, and iterate k reads iterate
k-1's values of the step before, which the pass has already made.
Either way each solution is bitwise its own separate solve.

The per-solution work runs on the pass with its member axis, each
result bitwise the solution's own: the node-wise check of the
reflection invariants (V after the indices), the roots, the node
margins, and one ``solver.backward_reductions`` pass over the reported
solutions (the indices kept, or the iterates) for their K moments, Z/U
norms, E sup Y^2 (each on its own thresholds) and successive Z/U
distances.  ``SequenceRun`` splits the solutions out of its solve only
when one is first read, which no CLI pipeline does; paths come from
``TreeSolution.to_solution_grid``, within the ``MAX_PATHS`` budget.
Premise checks are ``generator`` certificates on ``problem_cloud``
clouds: linear growth for the envelope sequences; signed growth, the sign
of f_t, the modulus pi and the contraction of g for bracketing.  A failed
certificate aborts the run with a ConfigError before any solve.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import ConfigError, SolverError
from .expr import EvalContext, evaluate, size_norms
from .generator import (
    DEFAULT_ENVELOPE_NS,
    Certificate,
    EnvelopeFunction,
    EnvelopeParams,
    check_envelope_ns,
    check_g_contraction,
    check_linear_growth,
    check_pi_minorant,
    check_rate_nonnegative,
    check_signed_growth,
    problem_cloud,
)
from .solver import (
    CoefficientFn,
    ProblemSpec,
    Reductions,
    TreeModel,
    TreeSolution,
    _node_margins,
    _slice0_means,
    backward_reductions,
    solve_tree_exact,
)
from .table import CsvTable

_CERT_CLOUD_SIZE = 512
_CERT_RADIUS = 5.0
# seeds of the certificate clouds, and the slack a node margin between
# successive solutions may fall below zero before monotonicity fails
_ENVELOPE_CERT_SEED = 977
_BRACKETING_CERT_SEED = 1789
MARGIN_TOL = 1e-10


@dataclass
class SequenceRun:
    """One pipeline run: its JSON-serializable report, the solve pass of
    its solutions (each validated node-wise on it) and their reductions.
    roles maps tree_solutions to a slice of the members and each
    companion (upper_tree for V, lower_anchor_tree, upper_anchor_tree) to
    one; they are split into solutions of their own on first read
    (``TreeSolution.member_solutions``).  Paths are not kept."""

    mode: str
    index_set: List[float]
    y0_series: List[float]
    report: dict
    solve: TreeSolution = field(repr=False)
    reductions: Reductions = field(repr=False)
    roles: dict = field(repr=False)

    @cached_property
    def _members(self) -> List[TreeSolution]:
        return self.solve.member_solutions()

    def _role(self, name: str):
        return None if name not in self.roles else self._members[self.roles[name]]

    tree_solutions = property(lambda self: self._role("tree_solutions"))
    upper_tree = property(lambda self: self._role("upper_tree"))
    lower_anchor_tree = property(lambda self: self._role("lower_anchor_tree"))
    upper_anchor_tree = property(lambda self: self._role("upper_anchor_tree"))


def _checked_pass(batched: TreeSolution, labels, order=None) -> list:
    """The slice-0 means of a pass's Y, its members' roots, after every
    member is checked node-wise once (``node_failures``): a failure raises
    SolverError naming its solution, labels[k], the first failing one in
    order (member order by default)."""
    failures = batched.node_failures()
    for k in range(len(labels)) if order is None else order:
        if failures[k] is not None:
            raise SolverError(f"{failures[k]} of {labels[k]}")
    return _slice0_means(batched.Y[0], len(labels))


#: the refusal of each certificate a run requires, formatted with its worst
_REFUSALS = {
    "linear-growth": "linear growth certificate failed: |f| exceeds "
    "C(1+|y|+|z|+|u|) on the sample cloud (worst ratio {:.4g})",
    "signed-growth": "signed growth certificate failed: |f| exceeds "
    "f_t + C(|y|+|z|+|u|) on the sample cloud (worst excess {:.4g})",
    "rate_nonnegative": "dominating rate f_t is negative (min {:.4g})",
    "pi-minorant": "modulus certificate failed: f differences dip below pi on the "
    "sample pairs (worst {:.4g})",
    "pi-growth": "modulus growth certificate failed: |pi| exceeds "
    "growth_c*(|dy|+|dz|+|du|) on the sample pairs (worst excess {:.4g})",
    "g-contraction": "contraction certificate failed for g on the sample pairs "
    "(worst {:.4g})",
}


def _required(cert: Certificate) -> float:
    """cert's worst value; a ConfigError naming the premise if it failed."""
    if not cert.passed:
        raise ConfigError(_REFUSALS[cert.name].format(cert.worst))
    return cert.worst


def _cloud(problem: ProblemSpec, seed: int):
    return problem_cloud(problem, _CERT_CLOUD_SIZE, seed, _CERT_RADIUS)


def _paired_clouds(problem: ProblemSpec, seed: int):
    a = _cloud(problem, seed)
    b = _cloud(problem, seed + 1)
    b.t = a.t  # the pair checks condition on a shared time
    return a, b


def _rate_at(problem: ProblemSpec):
    rate = problem.generator.rate

    def value(t):
        return float(np.asarray(evaluate(rate, EvalContext(t=float(t)))))

    return value


def _available_cpus() -> int:
    """The CPUs this process may run on: more threads than that gain
    nothing and each holds its own block temporaries."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def envelope_workers(threads: int) -> int:
    """The pool size of an envelope sequence run with `threads`: at most
    the CPUs available to the process."""
    return min(threads, _available_cpus())


def _effective_indices(ns, growth_c):
    eff = []
    for n in ns:
        ne = max(float(n), float(growth_c))
        if not eff or ne != eff[-1]:
            eff.append(ne)
    return eff


def _truncate_at_tol(values, tol):
    """Index one past the first successive pair within tol (no stop: len)."""
    for k in range(1, len(values)):
        if abs(values[k] - values[k - 1]) < tol:
            return k + 1
    return len(values)


def upper_bound_coefficient(problem: ProblemSpec) -> CoefficientFn:
    """The dominating generator C(1 + |y| + |z| + |u|_lambda)."""
    C = problem.generator.growth_C
    lam = problem.marks.intensities

    def fn(t, y, z, u, w, j):
        ay, zn, un = size_norms(y, z, u, lam)
        return C * (1.0 + ay + zn + un)

    return fn


def solve_upper_bound_tree(
    problem: ProblemSpec, tree: Optional[TreeModel] = None
) -> TreeSolution:
    """V on its own: an inf-envelope run solves it as the last member of
    its pass (``_inf_envelope_coefficient``), bitwise this solve."""
    return solve_tree_exact(problem, tree, f_fn=upper_bound_coefficient(problem))


def _inf_envelope_coefficient(
    problem: ProblemSpec, envelope: EnvelopeFunction
) -> CoefficientFn:
    """The generators of an inf-envelope pass with M + 1 members: members
    0..M-1 are the envelope's indices, evaluated together by one call of
    the ``EnvelopeFunction``; member M is the upper bound V, driven by
    ``upper_bound_coefficient``.  Each member gets the values of its own
    solve."""
    bound = upper_bound_coefficient(problem)

    def fn(t, y, z, u, w, j):
        out = np.empty(y.shape)
        out[..., :-1] = envelope(t, y[..., :-1], z[..., :-1, :], u[..., :-1, :], w, j)
        out[..., -1] = bound(t, y[..., -1], z[..., -1, :], u[..., -1, :], w, j)
        return out

    return fn


def _chain_run(mode, index_set, batched, roots, report, roles, descending=False):
    """Complete report with the ordering evidence, norms and successive
    Z/U distances of the solutions, the members roles["tree_solutions"]
    (a slice) of the pass batched, from one ``backward_reductions``, and
    return their run.  The chain is the lower anchor, if any (the member
    just before the solutions), then the solutions: each successive pair
    gives one node margin (from the later one when descending), the later
    one's CSV row margin (0.0 for a first row without a predecessor)."""
    chain = roles["tree_solutions"]
    reduced = backward_reductions(batched.tree, batched.Z, batched.U, batched.dK, batched.Y, chain)
    ids = range(len(roots))[chain]  # the reductions' entries follow them
    anchor = roles.get("lower_anchor_tree")
    first = ids.start if anchor is None else anchor
    pairs = slice(first, ids.stop - 1), slice(first + 1, ids.stop)
    pair_margins = _node_margins(batched.Y, *(pairs[::-1] if descending else pairs))
    report.update(
        pair_margins=pair_margins,
        monotone_ok=all(mg >= -MARGIN_TOL for mg in pair_margins),
        norms=[reduced.norms(k) for k in range(len(ids))],
        z_diffs=reduced.diffs[0],
        u_diffs=reduced.diffs[1],
        row_margins=pair_margins if anchor is not None else [0.0] + pair_margins,
    )
    return SequenceRun(mode, index_set, [roots[k] for k in ids], report, batched, reduced, roles)


def _run_envelope(
    problem: ProblemSpec,
    env: EnvelopeParams,
    ns,
    kind: str,
    tree: Optional[TreeModel],
    threads: int,
    early_stop_tol: float,
) -> SequenceRun:
    ns = DEFAULT_ENVELOPE_NS if ns is None else ns
    check_envelope_ns(ns, "ns")
    cloud = _cloud(problem, _ENVELOPE_CERT_SEED)
    worst_growth = _required(check_linear_growth(problem.generator, cloud))
    eff = _effective_indices(ns, problem.generator.growth_C)
    workers = envelope_workers(threads)
    pool = ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()
    with pool as executor:
        envelope = EnvelopeFunction(
            problem.generator.f, env, kind, ns=eff, dim_d=problem.dim_d,
            num_marks=problem.marks.m, intensities=problem.marks.intensities,
            growth_c=problem.generator.growth_C, raise_on_boundary=True, pool=executor,
        )
        f_fn, labels = envelope, [f"index n = {n:g}" for n in eff]
        if kind == "inf":  # V is the pass's last member
            f_fn = _inf_envelope_coefficient(problem, envelope)
            labels.append("the upper bound V")
        batched = solve_tree_exact(problem, tree, f_fn=f_fn, members=len(labels))
    del envelope, f_fn  # its grid tables serve the solve only, not the reductions
    roots = _checked_pass(batched, labels)
    cut = _truncate_at_tol(roots[: len(eff)], early_stop_tol)
    report = {"index_set": eff[:cut], "truncated": cut < len(eff)}
    report["growth_worst_ratio"] = worst_growth
    roles = {"tree_solutions": slice(cut)}
    if kind == "sup":
        return _chain_run("sup_envelope", eff[:cut], batched, roots, report, roles, True)
    v = roles["upper_tree"] = len(eff)
    report["v_root"] = roots[v]
    report["v_node_margin"] = min(_node_margins(batched.Y, slice(cut), slice(v, v + 1)))
    return _chain_run("inf_envelope", eff[:cut], batched, roots, report, roles)


def run_inf_envelope_sequence(
    problem: ProblemSpec,
    env: EnvelopeParams,
    ns=None,
    tree: Optional[TreeModel] = None,
    threads: int = 1,
    early_stop_tol: float = 1e-9,
) -> SequenceRun:
    """Monotone-from-below sequence of envelope solves, bounded by V.

    ns, non-empty and nondecreasing, defaults to ``DEFAULT_ENVELOPE_NS``;
    it is clipped up to the growth constant and deduplicated.  The series
    is cut after the first successive pair of roots within early_stop_tol
    (computation order does not depend on the thread count, so parallel
    runs report the identical truncation).
    """
    return _run_envelope(problem, env, ns, "inf", tree, threads, early_stop_tol)


def run_sup_envelope_sequence(
    problem: ProblemSpec,
    env: EnvelopeParams,
    ns=None,
    tree: Optional[TreeModel] = None,
    threads: int = 1,
    early_stop_tol: float = 1e-9,
) -> SequenceRun:
    """Mirror of the inf sequence: nonincreasing roots from above."""
    return _run_envelope(problem, env, ns, "sup", tree, threads, early_stop_tol)


def _bracketing_coefficient(problem: ProblemSpec, count: int) -> CoefficientFn:
    """The generators of a bracketing pass with count + 2 members.

    Member 0 is the lower anchor, -(C(|y|+|z|+|u|_lambda) + f_t); member
    count + 1 the upper anchor, its mirror.  Member k in between is
    iterate k: f at member k-1's values (an exogenous source; for k = 1
    the lower anchor's), plus pi at the increment of member k's values
    over them.  Each member gets the values of its own chained solve.
    """
    gen = problem.generator
    C, lam = gen.growth_C, problem.marks.intensities
    rate_at = _rate_at(problem)

    def fn(t, y, z, u, w, j):
        out = np.empty(y.shape)
        ends = [0, -1]
        ay, zn, un = size_norms(y[..., ends], z[..., ends, :], u[..., ends, :], lam)
        bound = C * (ay + zn + un) + rate_at(t)
        out[..., 0], out[..., -1] = -bound[..., 0], bound[..., 1]
        py, pz, pu = y[..., :-2], z[..., :-2, :], u[..., :-2, :]
        base = evaluate(gen.f, EvalContext(t=t, y=py, z=pz, u=pu, w=w, j=j, intensities=lam))
        inc = evaluate(
            gen.pi,
            EvalContext(
                t=t, y=y[..., 1:-1] - py, z=z[..., 1:-1, :] - pz, u=u[..., 1:-1, :] - pu,
                intensities=lam,
            ),
        )
        out[..., 1:-1] = np.asarray(base, dtype=float) + np.asarray(inc, dtype=float)
        return out

    return fn


def run_bracketing_sequence(
    problem: ProblemSpec,
    ns_count: int = 5,
    tree: Optional[TreeModel] = None,
) -> SequenceRun:
    """Anchor solves plus the frozen-source iteration, in one backward
    pass.

    The lower anchor uses -(C(|y|+|z|+|u|) + f_t), the upper its mirror;
    iterate n solves with f at iterate n-1's node values plus pi of the
    increment (iterate 0 is the lower anchor).  All ns_count + 2 solves
    are the members of one ``solve_tree_exact`` pass (see
    ``_bracketing_coefficient``): at step i, iterate n reads iterate
    n-1's slice-(i+1) values, which the pass has already made, so each
    solution is bitwise its own chained solve.  Every member is checked
    node-wise on the pass; a failure names its solution, the first in
    the chained order (lower anchor, upper anchor, iterates).  The
    node-wise sandwich lower <= iterate n <= iterate n+1 <= upper is
    recorded with its worst node; a violation beyond MARGIN_TOL marks
    the report failed rather than raising.
    """
    gen = problem.generator
    if gen.pi is None:
        raise ConfigError("bracketing needs the increment modulus pi")
    if gen.rate is None:
        raise ConfigError("bracketing needs the dominating rate f_t")
    if ns_count < 1:
        raise ConfigError("ns_count must be >= 1")
    cloud = _cloud(problem, _BRACKETING_CERT_SEED)
    certs = {"signed_growth_excess": _required(check_signed_growth(gen, cloud))}
    _required(check_rate_nonnegative(gen, problem.grid.times))
    cloud_a, cloud_b = _paired_clouds(problem, _BRACKETING_CERT_SEED + 10)
    certs["pi_worst"] = _required(check_pi_minorant(gen, cloud_a, cloud_b))
    certs["g_worst"] = _required(check_g_contraction(gen, cloud_a, cloud_b))

    f_fn, upper = _bracketing_coefficient(problem, ns_count), ns_count + 1
    batched = solve_tree_exact(problem, tree, f_fn=f_fn, members=upper + 1)
    labels = ["the lower anchor", *(f"iterate {n}" for n in range(1, upper)), "the upper anchor"]
    roots = _checked_pass(batched, labels, order=[0, upper, *range(1, upper)])
    upper_margins = _node_margins(batched.Y, slice(upper), slice(upper, upper + 1))
    report = {
        "index_set": list(range(1, ns_count + 1)),
        "certificates": certs,
        "lower_root": roots[0],
        "upper_root": roots[upper],
        "upper_margins": upper_margins,
    }
    # the iterates are the reported solutions: norms and distances are theirs only
    roles = {"tree_solutions": slice(1, upper), "lower_anchor_tree": 0, "upper_anchor_tree": upper}
    index_set = [float(n) for n in range(1, upper)]
    run = _chain_run("bracketing", index_set, batched, roots, report, roles)
    report["sandwich_worst"] = min(report["pair_margins"] + upper_margins)
    report["sandwich_ok"] = report["sandwich_worst"] >= -MARGIN_TOL
    return run


def sequence_csv_rows(run: SequenceRun) -> CsvTable:
    """Header plus one row per computed index.

    margin is the node-wise ordering margin against the previous element
    of the chain (the lower anchor for the first bracketing iterate; 0.0
    for the first envelope row, which has no predecessor).
    """
    header = ["n", "y0", "k_t_mean", "z_norm_sq", "u_norm_sq", "margin"]
    norms = run.report["norms"]
    columns = [
        run.index_set,
        run.y0_series,
        run.reductions.k_moments[0],
        [nr["z_norm_sq"] for nr in norms],
        [nr["u_norm_sq"] for nr in norms],
        run.report["row_margins"],
    ]
    return CsvTable(header, columns)
