"""Generator descriptions, structural checks and Lipschitz envelopes.

A generator bundle holds the driver f, the backward diffusion coefficient g,
an optional lower modulus pi, an optional dominating rate f_t, a linear
growth constant C and a contraction weight alpha in (0, 1).  The check_*
functions certify the structural conditions numerically on sampled clouds:

* linear growth:   |f(t,y,z,u)| <= C * (1 + |y| + |z| + |u|)
* contraction:     |g(a) - g(b)|^2 <= C*|dy|^2 + alpha*(|dz|^2 + |du|^2)
* lower modulus:   f(t,y,z,u) - f(t,y',z',u') >= pi(t, y-y', z-z', u-u')
                   whenever y >= y', with |pi| <= C*(|dy| + |dz| + |du|)
* signed growth:   |f(t,y,z,u)| <= f_t(t) + C * (|y| + |z| + |u|)
* rate sign:       f_t(t) >= 0 on the grid times

Throughout, |z| is the Euclidean norm and |u| the intensity-weighted norm
sqrt(sum_k lambda_k u_k^2).  Each check returns one Certificate; a cloud
check fails when a sample breaks its bound by more than PREMISE_SLACK.
problem_cloud is the one rule for the cloud of a problem.

The envelopes replace a rough f by its Lipschitz regularizations

    inf-convolution   f_n(x) = min over x' of f(x') + n * dist(x, x')
    sup-convolution   f^n(x) = max over x' of f(x') - n * dist(x, x')

with dist(x, x') = |dy| + |dz| + |du| over a user-declared box, optimized
over a regular grid.  dist is a sum of block norms, so EnvelopeFunction
takes the grid optimum one block at a time (a lower-envelope pass for a
one-axis block, a dense pass within a Euclidean block) and evaluates the
dense expression at the chosen grid point.  The tests keep the dense
(queries x grid) penalty matrix as the reference it must match; closed
forms, where known, are cross-checks.  Only the variables the expression
references are gridded: for an unreferenced variable the exact optimum
sits at the query point with zero penalty, so skipping the axis is exact
(and avoids off-grid offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, EnvelopeError, SolverError
from .expr import EvalContext, Expr, evaluate, parse_expr, size_norms, to_string, variables
from .table import CsvTable


def ensure_expr(source) -> Expr:
    if isinstance(source, str):
        return parse_expr(source)
    return source


def _expr_or_none(source):
    if source is None:
        return None
    return ensure_expr(source)


_COEFF_VARS = {"t", "y", "znorm", "unorm"}
_RATE_VARS = {"t"}


def check_variables(expr: Expr, label: str, names, families: str, d=None, m=None):
    """Allow the plain names plus the indexed families (letters of 'zuwj')
    in families; given the dimensions, z*/w* indices up to d and u*/j*
    indices up to m."""
    for name in sorted(variables(expr)):
        if name in names:
            continue
        if name[0] not in families or not name[1:].isdigit():
            raise ConfigError(f"{label} must not reference '{name}'")
        dim, bound = ("d", d) if name[0] in "zw" else ("m", m)
        if bound is not None and int(name[1:]) > bound:
            raise ConfigError(f"{label} references '{name}' but {dim} = {bound}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Coefficient bundle (f, g, pi, f_t) with its structural constants."""

    f: Expr
    g: Expr
    pi: Optional[Expr] = None
    rate: Optional[Expr] = None
    growth_C: float = 1.0
    contraction_alpha: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "f", ensure_expr(self.f))
        object.__setattr__(self, "g", ensure_expr(self.g))
        object.__setattr__(self, "pi", _expr_or_none(self.pi))
        object.__setattr__(self, "rate", _expr_or_none(self.rate))
        if not self.growth_C > 0.0:
            raise ConfigError(f"growth constant C must be positive, got {self.growth_C}")
        if not 0.0 < self.contraction_alpha < 1.0:
            raise ConfigError(
                f"contraction weight alpha must lie in (0, 1), got {self.contraction_alpha}"
            )
        for rule in self.variable_rules():
            check_variables(*rule)

    def variable_rules(self):
        """(expression, label, plain names, indexed families) of each
        coefficient present, for check_variables; the dominating rate is a
        deterministic function of time only."""
        rules = (
            (self.f, "generator f", _COEFF_VARS, "zuwj"),
            (self.g, "coefficient g", _COEFF_VARS, "zuwj"),
            (self.pi, "lower modulus pi", _COEFF_VARS, "zu"),
            (self.rate, "dominating rate f_t", _RATE_VARS, ""),
        )
        return [rule for rule in rules if rule[0] is not None]


def sample_cloud(
    size: int,
    seed: int,
    dim_d: int,
    num_marks: int,
    t_max: float = 1.0,
    radius: float = 5.0,
    intensities=None,
) -> EvalContext:
    """A sample cloud for the structural checks: t shaped (size,) on [0,
    t_max], y (size,), z and w (size, d) and u (size, m) on [-radius,
    radius], j (size, m) in {0..3}, and the intensities (shape (m,),
    default ones) that weight the u-norm."""
    rng = np.random.default_rng(seed)
    return EvalContext(
        t=rng.uniform(0.0, t_max, size),
        y=rng.uniform(-radius, radius, size),
        z=rng.uniform(-radius, radius, (size, dim_d)),
        u=rng.uniform(-radius, radius, (size, num_marks)),
        w=rng.uniform(-radius, radius, (size, dim_d)),
        j=rng.integers(0, 4, (size, num_marks)).astype(float),
        intensities=np.ones(num_marks) if intensities is None else np.asarray(intensities, float),
    )


def problem_cloud(problem, size: int, seed: int, radius: float) -> EvalContext:
    """The certificate cloud of a problem: its dimensions, marks and
    horizon, with y, z, u and w uniform on [-radius, radius].  Refuses a
    radius whose interval is too wide to sample (SolverError)."""
    if not np.isfinite(2.0 * radius):
        raise SolverError(f"a certificate cloud of radius {radius:.3g} is too wide to sample")
    return sample_cloud(
        size, seed, problem.dim_d, problem.marks.m, t_max=problem.grid.T,
        radius=radius, intensities=problem.marks.intensities,
    )


@dataclass(frozen=True)
class Certificate:
    """One premise check: its name, whether it passed, and its worst value
    (an excess for a cloud check, a minimum for a sign check)."""

    name: str
    passed: bool
    worst: float

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed), "worst": self.worst}


#: how far a sampled premise may be violated before its certificate fails
PREMISE_SLACK = 1e-9


def check_linear_growth(spec: GeneratorSpec, cloud: EvalContext) -> Certificate:
    """Certify |f| <= C*(1 + |y| + |z| + |u|) on the cloud; worst is the
    largest ratio |f| / bound."""
    fvals = np.abs(np.asarray(evaluate(spec.f, cloud), dtype=float))
    ay, zn, un = size_norms(cloud.y, cloud.z, cloud.u, cloud.intensities)
    bound = spec.growth_C * (1.0 + ay + zn + un)
    fvals = np.broadcast_to(fvals, bound.shape)  # constant f stays per-sample
    worst = float((fvals / bound).max()) if fvals.size else 0.0
    return Certificate("linear-growth", not (fvals - bound > PREMISE_SLACK).any(), worst)


def check_g_contraction(
    spec: GeneratorSpec, cloud_a: EvalContext, cloud_b: EvalContext
) -> Certificate:
    """Certify |g(a)-g(b)|^2 <= C*|dy|^2 + alpha*(|dz|^2 + |du|^2) on paired
    samples; both clouds must share t (the condition is per time point)."""
    if cloud_a.t.shape != cloud_b.t.shape or np.any(cloud_a.t != cloud_b.t):
        raise ConfigError("contraction check needs paired clouds with equal t")
    ga = np.broadcast_to(np.asarray(evaluate(spec.g, cloud_a), dtype=float), cloud_a.y.shape)
    gb = np.broadcast_to(np.asarray(evaluate(spec.g, cloud_b), dtype=float), cloud_b.y.shape)
    dy = cloud_a.y - cloud_b.y
    dz = cloud_a.z - cloud_b.z
    du = cloud_a.u - cloud_b.u
    lam = cloud_a.intensities
    lhs = (ga - gb) ** 2
    rhs = (
        spec.growth_C * dy**2
        + spec.contraction_alpha * ((dz**2).sum(axis=1) + (lam * du**2).sum(axis=1))
    )
    excess = lhs - rhs
    return Certificate(
        "g-contraction",
        not (excess > PREMISE_SLACK).any(),
        float(excess.max()) if excess.size else 0.0,
    )


def check_pi_minorant(
    spec: GeneratorSpec, cloud_a: EvalContext, cloud_b: EvalContext
) -> Certificate:
    """Certify the lower-modulus condition on ordered pairs.

    Pairs are reordered per sample so the first argument has the larger y;
    then f(a) - f(b) >= pi(t, a-b) is required, together with the growth
    bound |pi| <= C*(|dy| + |dz| + |du|).  worst is the largest shortfall
    of f(a) - f(b) below pi; a growth breach fails instead as "pi-growth",
    whose worst is the largest excess of |pi| over the bound.
    """
    if spec.pi is None:
        raise ConfigError("generator has no lower modulus pi to check")
    if cloud_a.t.shape != cloud_b.t.shape or np.any(cloud_a.t != cloud_b.t):
        raise ConfigError("minorant check needs paired clouds with equal t")
    swap, hi, lo = cloud_b.y > cloud_a.y, {}, {}
    for name in ("y", "z", "u", "w", "j"):
        a, b = getattr(cloud_a, name), getattr(cloud_b, name)
        if a is not None:
            flip = swap.reshape(swap.shape + (1,) * (np.ndim(a) - 1))
            hi[name], lo[name] = np.where(flip, b, a), np.where(flip, a, b)
    # both sides keep cloud_a's t and intensities
    ctx_hi, ctx_lo = replace(cloud_a, **hi), replace(cloud_a, **lo)
    lam, t = cloud_a.intensities, cloud_a.t
    fa = np.broadcast_to(np.asarray(evaluate(spec.f, ctx_hi), dtype=float), t.shape)
    fb = np.broadcast_to(np.asarray(evaluate(spec.f, ctx_lo), dtype=float), t.shape)
    dy, dz, du = hi["y"] - lo["y"], hi["z"] - lo["z"], hi["u"] - lo["u"]
    pivals = evaluate(spec.pi, EvalContext(t=t, y=dy, z=dz, u=du, intensities=lam))
    pivals = np.broadcast_to(np.asarray(pivals, dtype=float), t.shape)
    gap = (fa - fb) - pivals
    ady, dzn, dun = size_norms(dy, dz, du, lam)
    excess = np.abs(pivals) - spec.growth_C * (ady + dzn + dun)
    if (excess > PREMISE_SLACK).any():
        return Certificate("pi-growth", False, float(excess.max()))
    passed = not (gap < -PREMISE_SLACK).any()
    return Certificate("pi-minorant", passed, float(-gap.min()) if gap.size else 0.0)


def check_signed_growth(spec: GeneratorSpec, cloud: EvalContext) -> Certificate:
    """Certify |f| <= f_t + C*(|y| + |z| + |u|) on the cloud; worst is the
    largest excess."""
    fvals = np.abs(np.asarray(evaluate(spec.f, cloud), dtype=float))
    rate = np.asarray(evaluate(spec.rate, EvalContext(t=cloud.t)), dtype=float)
    ay, zn, un = size_norms(cloud.y, cloud.z, cloud.u, cloud.intensities)
    bound = np.broadcast_to(rate, cloud.t.shape) + spec.growth_C * (ay + zn + un)
    worst = float((fvals - bound).max())
    return Certificate("signed-growth", not worst > PREMISE_SLACK, worst)


def check_rate_nonnegative(spec: GeneratorSpec, times) -> Certificate:
    """Certify f_t >= 0 at the given times, to 1e-12 (the rate is evaluated,
    not sampled); worst is the minimum of f_t."""
    rate = np.asarray(evaluate(spec.rate, EvalContext(t=times)), dtype=float)
    low = float(np.broadcast_to(rate, np.shape(times)).min())
    return Certificate("rate_nonnegative", low >= -1e-12, low)


#: the envelope indices of a sequence run whose config or call gives none
DEFAULT_ENVELOPE_NS = (1.0, 2.0, 4.0, 8.0, 16.0)


def check_envelope_ns(ns, name: str):
    """Refuse an empty or decreasing index list: a later n below an earlier
    one would show as a monotonicity failure of correct solutions."""
    if len(ns) == 0 or any(b < a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"{name} must be a non-empty nondecreasing list, got {list(ns)}")


@dataclass(frozen=True)
class EnvelopeParams:
    """Search box and resolution for the envelope minimization.

    box maps variable names ('y', 'z1', ..., 'u1', ...) to (lo, hi)
    intervals; every variable the expression references in the (y, z, u)
    families must have an entry.  n is the envelope index.
    """

    n: float
    box: dict
    grid_points: int = 201

    def __post_init__(self):
        if not self.n >= 1.0:
            raise ConfigError(f"envelope index n must be >= 1, got {self.n}")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be >= 2")
        for name, interval in self.box.items():
            lo, hi = float(interval[0]), float(interval[1])
            if not lo < hi:
                raise ConfigError(f"box for '{name}' must satisfy lo < hi")


@dataclass(frozen=True)
class EnvelopeAxis:
    """One gridded envelope axis: the variable it grids (name, its family
    'y', 'z' or 'u', and the component index within z or u), the weight of
    its squared offset inside the block norm (lambda_k for a u axis, 1
    otherwise) and its grid points."""

    name: str
    family: str
    index: int
    weight: float
    grid: np.ndarray

    def column(self, y, z, u):
        """This axis' coordinates out of y (Q,), z (Q, d) and u (Q, m)."""
        if self.family == "y":
            return y
        return (z if self.family == "z" else u)[:, self.index]


#: queries per block of an envelope call, rounded down to whole nodes: the
#: unit a pool runs, and the bound on one block's temporaries.  At 512 the
#: (queries x 201) temporaries of a two-axis 201-point grid are 0.8 MB
#: each; 1,024 ran 1.1-1.5x slower per N = 12 sequence on a 2-core Xeon
#: with a 2 MB L2 cache
ENVELOPE_BLOCK_QUERIES = 512


class EnvelopeFunction:
    """Callable grid envelope of an expression, usable as a generator.

    kind 'inf' builds the inf-convolution (approximation from below), the
    grid minimum of f(x') + n*dist(x, x'); 'sup' the sup-convolution (from
    above), the grid maximum of f(x') - n*dist(x, x').

    Members: ns lists the indices n computed together, one member each;
    it defaults to params.n alone, and params.n is otherwise unused.  With
    M > 1 members every query array carries a trailing member axis of
    length M (y shaped (..., M), z and u (..., M, d) and (..., M, m)), and
    query k along it uses ns[k].  w and j are per node: the members share
    them, and the first member's are read.  The grid values of f are
    built once for all members; each member does the floating-point
    operations of a one-member envelope of its n, so its values are
    bitwise that envelope's.

    Query blocks: a call is cut into blocks of ENVELOPE_BLOCK_QUERIES queries,
    rounded down to whole nodes, which bound the call's temporaries.  With
    a pool (an executor's ``map``) the blocks run on it.  The grid values
    of a state-free f and their tables are built in the calling thread
    before any block runs, and boundary_hits is summed there after the
    blocks return, so neither values nor counts depend on the pool.

    Refusals: a query outside the declared box raises EnvelopeError, and
    so, when raise_on_boundary is set, does an interior optimum landing on
    the box edge (the box is too small).  A call checks the box before it
    minimises, and each refusal names the lowest member that breaks it,
    with its n and its first such axis.

    dist is a sum of block norms: |dy|, the Euclidean |dz| over the gridded
    z axes and |du|_lambda over the gridded u axes.  The grid optimum is
    therefore taken one block at a time, for every grid point of the blocks
    not yet reduced:

    * the first block, when it has one axis and one row of grid values
      serves every query (f reads neither w nor j, or the call has one
      node), by the lower-envelope trick (Felzenszwalb and Huttenlocher,
      "Distance Transforms of Sampled Functions", 2012): with s = n
      (n*sqrt(lambda_k) on a u axis), the prefix minima of f - s*x' and
      the suffix minima of f + s*x' along the axis, built per member once
      per distinct t and read at the grid interval holding the query, give
      the minimum in O(1) per query and grid point of the other axes.  A
      third table holds the first index attaining each suffix minimum;
      the first index attaining a prefix minimum is found by a binary
      search over the prefix minima, only at the grid point the other
      blocks choose, in O(log P) per query;
    * every other block densely, over the block's own grid points.  Its
      rows differ per query, so tables would cost as much as the dense
      pass they replace.

    One-axis blocks go first, so with P points per axis and G = P**axes
    grid points a query costs O(G/P), against O(G) for a dense penalty
    matrix.  A Euclidean block (znorm with d > 1, unorm with m > 1)
    reduced first stays at O(G), and so does an f that reads w or j: it
    has one row of grid values per node, carried as a batch axis through
    the same code.

    The returned value is the dense expression f(x') + n*(|dy| + |dz| +
    |du|) (minus for 'sup') at the chosen grid point, so it equals the
    dense grid optimum bitwise whenever both pick the same minimiser.  Ties
    go to the first grid index along each axis, but block-wise sums round
    differently from dense ones: on a plateau of exact ties the chosen
    minimiser, and with it boundary_hits, may differ from a dense argmin
    over the whole grid.
    """

    def __init__(
        self,
        f,
        params: EnvelopeParams,
        kind: str = "inf",
        *,
        ns=None,
        dim_d: Optional[int] = None,
        num_marks: Optional[int] = None,
        intensities=None,
        growth_c: Optional[float] = None,
        raise_on_boundary: bool = False,
        pool=None,
    ):
        if kind not in ("inf", "sup"):
            raise ConfigError(f"envelope kind must be 'inf' or 'sup', got {kind!r}")
        self.f = ensure_expr(f)
        self.params = params
        self.kind = kind
        self.raise_on_boundary = raise_on_boundary
        self.pool = pool
        self.boundary_hits = 0
        self.ns = np.array([params.n] if ns is None else ns, dtype=float).reshape(-1)
        if self.ns.size == 0:
            raise ConfigError("an envelope needs at least one index n")
        for n in self.ns:
            if not n >= 1.0:
                raise ConfigError(f"envelope index n must be >= 1, got {n}")
            if growth_c is not None and n < growth_c:
                raise ConfigError(
                    f"envelope index n = {n} is below the growth constant {growth_c}"
                )
        self._names = variables(self.f)
        dim_d, num_marks = _infer_dims(self._names, dim_d, num_marks)
        self.dim_d, self.num_marks = dim_d, num_marks
        self.intensities = (
            np.ones(num_marks) if intensities is None else np.asarray(intensities, float)
        )
        self.axes = envelope_axes(self._names, dim_d, num_marks, self.intensities, params)
        mesh = np.meshgrid(*(axis.grid for axis in self.axes), indexing="ij")
        self.coords = np.stack([m.ravel() for m in mesh], axis=1)  # (G, n_axes)
        blocks = [
            [col for col, axis in enumerate(self.axes) if axis.family == family]
            for family in "yzu"
        ]
        # one-axis blocks first, as they cut the grid by a factor P cheaply;
        # the last axis first within each group keeps ties on the first
        # C-order index of the grid
        self._order = sorted((b for b in reversed(blocks) if b), key=lambda b: len(b) > 1)
        self._cache = None  # (t key, grid values and first tables) of a state-free f

    def _scatter(self, columns):
        """(y, z, u) holding one column per axis; the rest stays zero."""
        size = columns[0].shape[0]
        y = np.zeros(size)
        z = np.zeros((size, self.dim_d))
        u = np.zeros((size, self.num_marks))
        for axis, col in zip(self.axes, columns):
            if axis.family == "y":
                y = col
            else:
                (z if axis.family == "z" else u)[:, axis.index] = col
        return y, z, u

    def _check_domain(self, columns, member):
        """Refuse a query outside the box (within a relative slack)."""
        out = []
        for axis, vals in zip(self.axes, columns):
            lo, hi = self.params.box[axis.name]
            eps = 1e-12 * max(1.0, abs(lo), abs(hi))
            out.append((vals < lo - eps) | (vals > hi + eps))
        offender = _first_offender(out, member)
        if offender is not None:
            k, a = offender
            axis, vals = self.axes[a], columns[a][member == k]
            lo, hi = self.params.box[axis.name]
            raise EnvelopeError(
                f"envelope query for '{axis.name}' outside the box [{lo}, {hi}] at "
                f"n = {self.ns[k]}: range [{vals.min():.6g}, {vals.max():.6g}]"
            )

    def _note_boundary(self, best, columns, member):
        """Flag optima on the box edge, unless the query itself sits there."""
        bad = []
        for axis, vals, idx in zip(self.axes, columns, best.T):
            grid = axis.grid
            last = grid.size - 1
            at_edge = (idx == 0) | (idx == last)
            step = grid[1] - grid[0]
            nearest = np.clip(np.rint((vals - grid[0]) / step).astype(int), 0, last)
            bad.append(at_edge & (nearest != idx))
        offender = _first_offender(bad, member) if self.raise_on_boundary else None
        if offender is not None:
            k, a = offender
            raise EnvelopeError(
                f"envelope optimum on the '{self.axes[a].name}' box edge at "
                f"n = {self.ns[k]}; enlarge the box and rerun"
            )
        self.boundary_hits += int(sum(b.sum() for b in bad))

    def _node_rows(self, values, family: str, shape, width: int):
        """w or j per node, shape (nodes, 1, width), if f reads the family."""
        if values is None or not any(n[0] == family for n in self._names):
            return None
        full = np.broadcast_to(values, shape + (width,))
        return full.reshape(-1, self.ns.size, width)[:, :1]

    def _grid_values(self, t, w_rows, j_rows):
        """Signed grid values F, shape (B, P, ..., P): f for 'inf' and -f
        for 'sup', so both kinds minimise F + n*dist.  B is 1 for a
        state-free f and the node count for one that reads w or j."""
        y, z, u = self._scatter(self.coords.T)
        fvals = evaluate(
            self.f,
            EvalContext(t=t, y=y, z=z, u=u, w=w_rows, j=j_rows, intensities=self.intensities),
        )
        if self.kind == "sup":
            fvals = -fvals
        return fvals.reshape((-1,) + (self.params.grid_points,) * len(self.axes))

    def _shared_grid(self, t, w_rows, j_rows):
        """F with one row for every query, and the first block's
        lower-envelope tables, one row per member (None for a Euclidean
        block); cached per distinct t for a state-free f."""
        cacheable = w_rows is None and j_rows is None and np.ndim(t) == 0
        if cacheable:
            key = float(t) if "t" in self._names else None
            if self._cache is not None and self._cache[0] == key:
                return self._cache[1]
        F = self._grid_values(t, w_rows, j_rows)
        first = self._order[0]
        tables = None
        if len(first) == 1:
            axis = self.axes[first[0]]
            V = _block_view(F, list(range(len(self.axes))), first)
            tables = _lower_envelope_tables(V, axis.grid, self.ns * np.sqrt(axis.weight))
        if cacheable:
            self._cache = (key, (F, tables))
        return F, tables

    def _minimiser(self, F, first_tables, columns, rows, member):
        """Grid multi-index, shape (Q, n_axes), of the minimum of F + n*dist
        for each query: on F row rows[q], with its member's n and table."""
        Q = member.size
        P = self.params.grid_points
        n = self.ns[member]
        batch, R, remaining, picks = rows, F, list(range(len(self.axes))), []
        for step, block in enumerate(self._order):
            V = _block_view(R, remaining, block)
            if step == 0 and first_tables is not None:
                axis = self.axes[block[0]]
                # off-box queries (within the domain slack) see the same
                # minimiser from the nearest box end
                x = np.clip(columns[block[0]], axis.grid[0], axis.grid[-1])
                R, arg_at = _lower_envelope_lookup(
                    first_tables, member, x, axis.grid, n * np.sqrt(axis.weight)
                )
            else:
                penalty = self._block_penalty(block, columns, n)[:, :, None]
                # with no axes left after this block the sum fits in the
                # penalty's own array: one (Q, P) temporary less per block
                out = penalty if V.shape[2] == 1 else None
                total = np.add(V[batch], penalty, out=out)
                arg = np.argmin(total, axis=1)
                R = np.take_along_axis(total, arg[:, None, :], axis=1)[:, 0, :]
                arg_at = _row_picker(arg)
            remaining = [a for a in remaining if a not in block]
            picks.append((block, remaining, arg_at))
            R = R.reshape((Q,) + (P,) * len(remaining))
            batch = slice(None)  # one row of R per query from here on
        best = np.empty((Q, len(self.axes)), dtype=np.intp)
        for block, rest, arg_at in reversed(picks):
            flat = np.zeros(Q, dtype=np.intp)
            for a in rest:
                flat = flat * P + best[:, a]
            chosen = arg_at(flat)
            best[:, block] = np.stack(np.unravel_index(chosen, (P,) * len(block)), axis=1)
        return best

    def _block_penalty(self, block, columns, n):
        """n * |x - x'| in the block's norm against each of the block's grid
        points, shape (Q, P**len(block)) in C order, n per query."""
        mesh = np.meshgrid(*(self.axes[col].grid for col in block), indexing="ij")
        sq = None
        for col, points in zip(block, mesh):
            # weight * diff**2 summed over the axes, in place: each term is
            # >= +0, so leaving out the leading 0.0 + changes no bit
            diff = columns[col][:, None] - points.ravel()[None, :]
            diff *= diff
            diff *= self.axes[col].weight
            sq = diff if sq is None else np.add(sq, diff, out=sq)
        np.sqrt(sq, out=sq)
        sq *= n[:, None]
        return sq

    def _value_at(self, F, best, columns, rows, n):
        """f(x') + n*(|dy| + |dz| + |du|) at the chosen grid points (minus
        for 'sup'), in the dense expression's order of operations."""
        Q = best.shape[0]
        flat = np.zeros(Q, dtype=np.intp)
        dy = np.zeros(Q)
        sq = {"z": np.zeros(Q), "u": np.zeros(Q)}
        for axis, vals, idx in zip(self.axes, columns, best.T):
            flat = flat * axis.grid.size + idx
            diff = vals - axis.grid[idx]
            if axis.family == "y":
                dy = np.abs(diff)
            else:
                sq[axis.family] += axis.weight * diff**2
        penalty = n * (dy + np.sqrt(sq["z"]) + np.sqrt(sq["u"]))
        chosen = F.reshape(F.shape[0], -1)[rows, flat]
        # -F is f bitwise, signed zeros included; -(F + penalty) is not
        return chosen + penalty if self.kind == "inf" else -chosen - penalty

    def __call__(self, t, y, z=None, u=None, w=None, j=None):
        """The envelope at the queries, shaped like y; each query's value
        comes from ``_value_at``."""
        y = np.asarray(y, dtype=float)
        shape, Q, M = y.shape, int(y.size), self.ns.size
        if M > 1 and shape[-1:] != (M,):
            raise ValueError(f"queries of {M} members need a trailing axis of {M}, got {shape}")
        yq = y.reshape(Q)
        zq = (
            np.zeros((Q, self.dim_d))
            if z is None
            else np.broadcast_to(z, shape + (self.dim_d,)).reshape(Q, self.dim_d)
        )
        uq = (
            np.zeros((Q, self.num_marks))
            if u is None
            else np.broadcast_to(u, shape + (self.num_marks,)).reshape(Q, self.num_marks)
        )
        columns = [axis.column(yq, zq, uq) for axis in self.axes]
        member = np.arange(Q) % M
        self._check_domain(columns, member)
        state = (
            self._node_rows(w, "w", shape, self.dim_d),
            self._node_rows(j, "j", shape, self.num_marks),
        )
        shared = None  # one row of grid values for a state-free f or one node
        if Q == M or all(s is None for s in state):
            shared = self._shared_grid(t, *state)
        size = max(1, ENVELOPE_BLOCK_QUERIES // M) * M

        def query_block(start):
            q = slice(start, start + size)
            cols, mem = [c[q] for c in columns], member[q]
            if shared is None:
                nodes = slice(start // M, (start + size) // M)
                F = self._grid_values(t, *(s if s is None else s[nodes] for s in state))
                tables, rows = None, np.arange(mem.size) // M
            else:
                (F, tables), rows = shared, np.zeros(mem.size, dtype=np.intp)
            best = self._minimiser(F, tables, cols, rows, mem)
            return best, self._value_at(F, best, cols, rows, self.ns[mem])

        starts = range(0, Q, size)
        run = map if self.pool is None or len(starts) < 2 else self.pool.map
        best, values = (np.concatenate(part) for part in zip(*run(query_block, starts)))
        self._note_boundary(best, columns, member)
        return values.reshape(shape)


def _first_offender(bad, member):
    """(member, axis) of the lowest member with a True in bad, one boolean
    array per axis, at its first such axis; None when bad is all False."""
    hit = np.any(bad, axis=0)
    if not hit.any():
        return None
    k = member[hit].min()
    return k, next(a for a, b in enumerate(bad) if (b & (member == k)).any())


def _block_view(R, remaining, block):
    """R, shape (B, P, ..., P) over the axes in `remaining`, as (B, block,
    rest): the block's axes moved to the front, both groups flattened in C
    order."""
    moved = np.moveaxis(R, [1 + remaining.index(a) for a in block], range(1, 1 + len(block)))
    return moved.reshape(R.shape[0], R.shape[1] ** len(block), -1)


def _lower_envelope_tables(V, grid, s):
    """The prefix minima of V - s*x' and the suffix minima of V + s*x'
    along axis 1 of V (1, P, R), one table row per slope in s (B,), and
    the first index attaining each suffix minimum (int32).  The prefix
    minimisers need no table: see _first_reaching."""
    sx = s[:, None, None] * grid[:, None]
    # C order keeps each table row (b, k) contiguous for the lookup
    V = np.ascontiguousarray(V)
    # one allocation for both minima: under glibc malloc the next envelope
    # then reuses these pages instead of faulting in fresh ones
    pre, suf = np.empty((2, s.size) + V.shape[1:])
    np.add(V, sx, out=pre)  # V + s*x' until the suffix tables are read off it
    np.minimum.accumulate(pre[:, ::-1], axis=1, out=suf[:, ::-1])
    # index i attains the suffix minimum from i on; the first such index
    # at or after k attains the one from k on
    own = pre[:, :-1] <= suf[:, 1:]
    suf_idx = np.full(pre.shape, grid.size - 1, dtype=np.int32)
    np.copyto(suf_idx[:, :-1], np.arange(grid.size - 1, dtype=np.int32)[:, None], where=own)
    np.minimum.accumulate(suf_idx[:, ::-1], axis=1, out=suf_idx[:, ::-1])
    np.subtract(V, sx, out=pre)
    np.minimum.accumulate(pre, axis=1, out=pre)
    return pre, suf, suf_idx


def _lower_envelope_lookup(tables, batch, x, grid, s):
    """min over x' of V[b, x', r] + s*|x - x'|, shape (Q, R), for queries x
    inside [grid[0], grid[-1]] on table rows batch with slopes s per query,
    and a function that gives its first argmin at one r per query (only
    the chosen r is ever read, so neither the (Q, R) argmin nor the (Q, R)
    choice of side is kept): the suffix index table's entry, or on the
    prefix side _first_reaching."""
    pre, suf, suf_idx = tables
    k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    sx = (s * x)[:, None]
    below = pre[batch, k]
    below += sx
    above = suf[batch, k + 1]
    above -= sx
    np.copyto(above, below, where=below <= above)

    def argmin_at(r):
        # the same sums and comparison as above, at one r per query
        take_below = pre[batch, k, r] + sx[:, 0] <= suf[batch, k + 1, r] - sx[:, 0]
        return np.where(take_below, _first_reaching(pre, batch, k, r), suf_idx[batch, k + 1, r])

    return above, argmin_at


def _first_reaching(pre, batch, k, r):
    """The first index i with pre[b, i, r] == pre[b, k, r] per query (b,
    k, r): the first index attaining the prefix minimum up to k.  pre is
    nonincreasing along axis 1, so "pre[b, i, r] > pre[b, k, r]" holds
    exactly below that index, and a binary search over [0, k] finds it
    in ceil(log2 P) vectorised steps, each probe clamped to k."""
    _, P, R = pre.shape
    flat = pre.reshape(-1)
    start = batch * (P * R) + r  # flat position of pre[b, 0, r]
    stop = start + k * R
    target = flat[stop]
    at = start  # every index below `at` is above target
    step = 1 << ((P - 1).bit_length() - 1)
    while step:
        probe = np.minimum(at + (step - 1) * R, stop)
        at = at + (flat[probe] > target) * (step * R)
        step >>= 1
    return (at - start) // R


def _row_picker(arg):
    """The function giving arg[q, r] at one r per query q."""
    return lambda r: arg[np.arange(arg.shape[0]), r]


def _infer_dims(names, dim_d, num_marks):
    z_idx = [int(n[1:]) for n in names if n[0] == "z" and n[1:].isdigit()]
    u_idx = [int(n[1:]) for n in names if n[0] == "u" and n[1:].isdigit()]
    if dim_d is None:
        if "znorm" in names and not z_idx:
            raise ConfigError("expression uses znorm; pass dim_d explicitly")
        dim_d = max(z_idx) if z_idx else 0
    if num_marks is None:
        if "unorm" in names and not u_idx:
            raise ConfigError("expression uses unorm; pass num_marks explicitly")
        num_marks = max(u_idx) if u_idx else 0
    return dim_d, num_marks


def envelope_axes(names, dim_d, num_marks, intensities, params: EnvelopeParams):
    """The gridded axes, in (y, z1.., u1..) order: the referenced variables,
    with every component under znorm or unorm.  Refuses a referenced axis
    without a box interval, and an expression that references none."""
    specs = [("y", "y", 0, 1.0)] if "y" in names else []
    for c in range(dim_d):
        if "znorm" in names or f"z{c + 1}" in names:
            specs.append((f"z{c + 1}", "z", c, 1.0))
    for k in range(num_marks):
        if "unorm" in names or f"u{k + 1}" in names:
            specs.append((f"u{k + 1}", "u", k, float(intensities[k])))
    axes = []
    for name, family, index, weight in specs:
        if name not in params.box:
            raise ConfigError(f"envelope box is missing an interval for '{name}'")
        lo, hi = params.box[name]
        grid = np.linspace(float(lo), float(hi), params.grid_points)
        axes.append(EnvelopeAxis(name, family, index, weight, grid))
    if not axes:
        raise ConfigError(
            "expression references none of y/z*/u*; an envelope would be the "
            "function itself"
        )
    return tuple(axes)


def _point_envelope(f, params, point: EvalContext, kind, growth_c):
    f = ensure_expr(f)
    z = None if point.z is None else np.atleast_1d(np.asarray(point.z, float))
    u = None if point.u is None else np.atleast_1d(np.asarray(point.u, float))
    dim_d = None if z is None else z.shape[-1]
    num_marks = None if u is None else u.shape[-1]
    env = EnvelopeFunction(
        f,
        params,
        kind,
        dim_d=dim_d,
        num_marks=num_marks,
        intensities=point.intensities,
        growth_c=growth_c,
    )
    t = 0.0 if point.t is None else point.t
    y = np.asarray([0.0 if point.y is None else float(np.asarray(point.y))])
    zq = None if z is None else z.reshape(1, -1)
    uq = None if u is None else u.reshape(1, -1)
    wq = None if point.w is None else np.asarray(point.w, float).reshape(1, -1)
    jq = None if point.j is None else np.asarray(point.j, float).reshape(1, -1)
    return float(env(t, y, zq, uq, wq, jq)[0])


def inf_convolution(f, params: EnvelopeParams, point: EvalContext, growth_c=None) -> float:
    """Value of the inf-convolution envelope at one point.

    The point is an EvalContext with scalar t and y and optional z/u
    vectors; coordinates on enveloped axes must lie inside params.box.
    """
    return _point_envelope(f, params, point, "inf", growth_c)


def sup_convolution(f, params: EnvelopeParams, point: EvalContext, growth_c=None) -> float:
    """Value of the sup-convolution envelope at one point."""
    return _point_envelope(f, params, point, "sup", growth_c)


def envelope_table(
    f,
    params: EnvelopeParams,
    kind: str = "inf",
    t: float = 0.0,
    *,
    dim_d=None,
    num_marks=None,
    intensities=None,
) -> CsvTable:
    """Tabulate the envelope on its own grid: one column of point
    coordinates per axis, then the envelope value, one row per grid point."""
    env = EnvelopeFunction(
        f, params, kind, dim_d=dim_d, num_marks=num_marks, intensities=intensities
    )
    columns = list(env.coords.T)
    values = env(t, *env._scatter(columns))
    return CsvTable([axis.name for axis in env.axes] + ["value"], columns + [values])
