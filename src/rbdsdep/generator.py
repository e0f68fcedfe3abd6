"""Generator descriptions, structural checks and Lipschitz envelopes.

A generator bundle holds the driver f, the backward diffusion coefficient g,
an optional lower modulus pi, an optional dominating rate f_t, a linear
growth constant C and a contraction weight alpha in (0, 1).  The check_*
functions certify the structural conditions numerically on sampled clouds:

* linear growth:   |f(t,y,z,u)| <= C * (1 + |y| + |z| + |u|)
* contraction:     |g(a) - g(b)|^2 <= C*|dy|^2 + alpha*(|dz|^2 + |du|^2)
* lower modulus:   f(t,y,z,u) - f(t,y',z',u') >= pi(t, y-y', z-z', u-u')
                   whenever y >= y', with |pi| <= C*(|dy| + |dz| + |du|)

Throughout, |z| is the Euclidean norm and |u| the intensity-weighted norm
sqrt(sum_k lambda_k u_k^2).

The envelopes replace a rough f by its Lipschitz regularizations

    inf-convolution   f_n(x) = min over x' of f(x') + n * dist(x, x')
    sup-convolution   f^n(x) = max over x' of f(x') - n * dist(x, x')

with dist(x, x') = |dy| + |dz| + |du| over a user-declared box, minimized
on a regular grid.  The grid minimization is the reference implementation;
closed forms, where known, are cross-checks.  Only the variables the
expression references are gridded: for an unreferenced variable the exact
optimum sits at the query point with zero penalty, so skipping the axis is
exact (and avoids off-grid offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, EnvelopeError
from .expr import EvalContext, Expr, evaluate, parse_expr, to_string, variables


def ensure_expr(source) -> Expr:
    if isinstance(source, str):
        return parse_expr(source)
    return source


def _expr_or_none(source):
    if source is None:
        return None
    return ensure_expr(source)


_COEFF_VARS = {"t", "y", "znorm", "unorm"}
_MODULUS_VARS = {"t", "y", "znorm", "unorm"}
_RATE_VARS = {"t"}


def _check_var_domain(expr: Expr, extra_prefixes: str, label: str):
    """Allow t/y/znorm/unorm plus indexed families named in extra_prefixes."""
    for name in sorted(variables(expr)):
        if name in _COEFF_VARS:
            continue
        if name[0] in extra_prefixes and name[1:].isdigit():
            continue
        raise ConfigError(f"{label} must not reference '{name}'")


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
        _check_var_domain(self.f, "zuwj", "generator f")
        _check_var_domain(self.g, "zuwj", "coefficient g")
        if self.pi is not None:
            _check_var_domain(self.pi, "zu", "lower modulus pi")
        if self.rate is not None:
            # the dominating rate is a deterministic function of time only
            extra = variables(self.rate) - _RATE_VARS
            if extra:
                raise ConfigError(
                    f"dominating rate f_t must not reference {sorted(extra)}"
                )


@dataclass
class Cloud:
    """Plain sample cloud for the structural checks.

    t and y have shape (n,); z has shape (n, d); u has shape (n, m); w and j
    are optional and default to zeros.  intensities (shape (m,)) feed the
    weighted u-norm.
    """

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    w: Optional[np.ndarray] = None
    j: Optional[np.ndarray] = None
    intensities: Optional[np.ndarray] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        n = self.t.shape[0]
        if self.w is None:
            self.w = np.zeros((n, self.z.shape[1]))
        if self.j is None:
            self.j = np.zeros((n, self.u.shape[1]))
        if self.intensities is None:
            self.intensities = np.ones(self.u.shape[1])
        self.intensities = np.asarray(self.intensities, dtype=float)

    def context(self) -> EvalContext:
        return EvalContext(
            t=self.t, y=self.y, z=self.z, u=self.u, w=self.w, j=self.j,
            intensities=self.intensities,
        )

    def size_norms(self):
        """(|y|, |z|_2, |u|_lambda) per sample."""
        return size_norms(self.y, self.z, self.u, self.intensities)


def size_norms(y, z, u, intensities):
    """(|y|, |z|_2, |u|_lambda) with z and u vectors along the last axis;
    |u|_lambda = sqrt(sum_k lambda_k u_k^2)."""
    zn = np.sqrt((z * z).sum(axis=-1))
    un = np.sqrt((intensities * u * u).sum(axis=-1))
    return np.abs(y), zn, un


def sample_cloud(
    size: int,
    seed: int,
    dim_d: int,
    num_marks: int,
    t_max: float = 1.0,
    radius: float = 5.0,
    intensities=None,
) -> Cloud:
    rng = np.random.default_rng(seed)
    return Cloud(
        t=rng.uniform(0.0, t_max, size),
        y=rng.uniform(-radius, radius, size),
        z=rng.uniform(-radius, radius, (size, dim_d)),
        u=rng.uniform(-radius, radius, (size, num_marks)),
        w=rng.uniform(-radius, radius, (size, dim_d)),
        j=rng.integers(0, 4, (size, num_marks)).astype(float),
        intensities=intensities,
    )


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst: float
    violation_count: int
    first_violations: list


_SLACK = 1e-9


def check_linear_growth(spec: GeneratorSpec, cloud: Cloud) -> CheckReport:
    """Certify |f| <= C*(1 + |y| + |z| + |u|) on the cloud."""
    fvals = np.abs(np.asarray(evaluate(spec.f, cloud.context()), dtype=float))
    ay, zn, un = cloud.size_norms()
    bound = spec.growth_C * (1.0 + ay + zn + un)
    fvals = np.broadcast_to(fvals, bound.shape)  # constant f stays per-sample
    excess = fvals - bound
    bad = np.nonzero(excess > _SLACK)[0]
    worst = float((fvals / bound).max()) if fvals.size else 0.0
    return CheckReport(
        name="linear-growth",
        passed=bad.size == 0,
        worst=worst,
        violation_count=int(bad.size),
        first_violations=[
            {"index": int(i), "value": float(fvals[i]), "bound": float(bound[i])}
            for i in bad[:5]
        ],
    )


def check_g_contraction(spec: GeneratorSpec, cloud_a: Cloud, cloud_b: Cloud) -> CheckReport:
    """Certify |g(a)-g(b)|^2 <= C*|dy|^2 + alpha*(|dz|^2 + |du|^2) on paired
    samples; both clouds must share t (the condition is per time point)."""
    if cloud_a.t.shape != cloud_b.t.shape or np.any(cloud_a.t != cloud_b.t):
        raise ConfigError("contraction check needs paired clouds with equal t")
    ga = np.broadcast_to(np.asarray(evaluate(spec.g, cloud_a.context()), dtype=float), cloud_a.y.shape)
    gb = np.broadcast_to(np.asarray(evaluate(spec.g, cloud_b.context()), dtype=float), cloud_b.y.shape)
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
    bad = np.nonzero(excess > _SLACK)[0]
    return CheckReport(
        name="g-contraction",
        passed=bad.size == 0,
        worst=float(excess.max()) if excess.size else 0.0,
        violation_count=int(bad.size),
        first_violations=[
            {"index": int(i), "lhs": float(lhs[i]), "rhs": float(rhs[i])} for i in bad[:5]
        ],
    )


def check_pi_minorant(spec: GeneratorSpec, cloud_a: Cloud, cloud_b: Cloud) -> CheckReport:
    """Certify the lower-modulus condition on ordered pairs.

    Pairs are reordered per sample so the first argument has the larger y;
    then f(a) - f(b) >= pi(t, a-b) is required, together with the growth
    bound |pi| <= C*(|dy| + |dz| + |du|).
    """
    if spec.pi is None:
        raise ConfigError("generator has no lower modulus pi to check")
    if cloud_a.t.shape != cloud_b.t.shape or np.any(cloud_a.t != cloud_b.t):
        raise ConfigError("minorant check needs paired clouds with equal t")
    swap = cloud_b.y > cloud_a.y
    ya = np.where(swap, cloud_b.y, cloud_a.y)
    yb = np.where(swap, cloud_a.y, cloud_b.y)
    za = np.where(swap[:, None], cloud_b.z, cloud_a.z)
    zb = np.where(swap[:, None], cloud_a.z, cloud_b.z)
    ua = np.where(swap[:, None], cloud_b.u, cloud_a.u)
    ub = np.where(swap[:, None], cloud_a.u, cloud_b.u)
    wa = np.where(swap[:, None], cloud_b.w, cloud_a.w)
    wb = np.where(swap[:, None], cloud_a.w, cloud_b.w)
    ja = np.where(swap[:, None], cloud_b.j, cloud_a.j)
    jb = np.where(swap[:, None], cloud_a.j, cloud_b.j)
    lam = cloud_a.intensities
    t = cloud_a.t
    fa = evaluate(
        spec.f, EvalContext(t=t, y=ya, z=za, u=ua, w=wa, j=ja, intensities=lam)
    )
    fb = evaluate(
        spec.f, EvalContext(t=t, y=yb, z=zb, u=ub, w=wb, j=jb, intensities=lam)
    )
    fa = np.broadcast_to(np.asarray(fa, dtype=float), t.shape)
    fb = np.broadcast_to(np.asarray(fb, dtype=float), t.shape)
    dy, dz, du = ya - yb, za - zb, ua - ub
    pivals = evaluate(
        spec.pi, EvalContext(t=t, y=dy, z=dz, u=du, intensities=lam)
    )
    pivals = np.broadcast_to(np.asarray(pivals, dtype=float), t.shape)
    gap = (fa - fb) - pivals
    ady, dzn, dun = size_norms(dy, dz, du, lam)
    growth = spec.growth_C * (ady + dzn + dun)
    bad_order = np.nonzero(gap < -_SLACK)[0]
    bad_growth = np.nonzero(np.abs(pivals) > growth + _SLACK)[0]
    violations = [
        {"index": int(i), "kind": "minorant", "gap": float(gap[i])} for i in bad_order[:5]
    ] + [
        {"index": int(i), "kind": "growth", "pi": float(pivals[i]), "bound": float(growth[i])}
        for i in bad_growth[:5]
    ]
    return CheckReport(
        name="pi-minorant",
        passed=bad_order.size == 0 and bad_growth.size == 0,
        worst=float(-gap.min()) if gap.size else 0.0,
        violation_count=int(bad_order.size + bad_growth.size),
        first_violations=violations,
    )


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


class EnvelopeFunction:
    """Callable grid envelope of an expression, usable as a generator.

    kind 'inf' builds the inf-convolution (approximation from below),
    'sup' the sup-convolution (from above).  Queries outside the declared
    box raise EnvelopeError; when raise_on_boundary is set, an interior
    optimum landing on the box edge does too (the box is too small).
    """

    def __init__(
        self,
        f,
        params: EnvelopeParams,
        kind: str = "inf",
        *,
        dim_d: Optional[int] = None,
        num_marks: Optional[int] = None,
        intensities=None,
        growth_c: Optional[float] = None,
        raise_on_boundary: bool = False,
    ):
        if kind not in ("inf", "sup"):
            raise ConfigError(f"envelope kind must be 'inf' or 'sup', got {kind!r}")
        self.f = ensure_expr(f)
        self.params = params
        self.kind = kind
        self.raise_on_boundary = raise_on_boundary
        self.boundary_hits = 0
        if growth_c is not None and params.n < growth_c:
            raise ConfigError(
                f"envelope index n = {params.n} is below the growth constant {growth_c}"
            )
        names = variables(self.f)
        dim_d, num_marks = _infer_dims(names, dim_d, num_marks)
        self.dim_d, self.num_marks = dim_d, num_marks
        self.intensities = (
            np.ones(num_marks) if intensities is None else np.asarray(intensities, float)
        )
        self.axes = _active_axes(names, dim_d, num_marks)
        if not self.axes:
            raise ConfigError(
                "expression references none of y/z*/u*; an envelope would be the "
                "function itself"
            )
        grids = []
        for axis in self.axes:
            if axis not in params.box:
                raise ConfigError(f"envelope box is missing an interval for '{axis}'")
            lo, hi = params.box[axis]
            grids.append(np.linspace(float(lo), float(hi), params.grid_points))
        mesh = np.meshgrid(*grids, indexing="ij")
        self.grid_shape = mesh[0].shape
        self.coords = np.stack([m.ravel() for m in mesh], axis=1)  # (G, n_axes)
        self.grids = grids

    def _grid_context(self, t, w_q=None, j_q=None) -> EvalContext:
        G = self.coords.shape[0]
        y = None
        z = np.zeros((G, self.dim_d))
        u = np.zeros((G, self.num_marks))
        for col, axis in enumerate(self.axes):
            if axis == "y":
                y = self.coords[:, col]
            elif axis[0] == "z":
                z[:, int(axis[1:]) - 1] = self.coords[:, col]
            else:
                u[:, int(axis[1:]) - 1] = self.coords[:, col]
        return EvalContext(
            t=t, y=y, z=z, u=u, w=w_q, j=j_q, intensities=self.intensities
        )

    def _penalty(self, y, z, u):
        """n * (|dy| + |dz| + |du|) against every grid point, shape (Q, G)."""
        Q = y.shape[0]
        G = self.coords.shape[0]
        dy = np.zeros((Q, G))
        dz_sq = np.zeros((Q, G))
        du_sq = np.zeros((Q, G))
        for col, axis in enumerate(self.axes):
            gcol = self.coords[:, col][None, :]
            if axis == "y":
                dy = np.abs(y[:, None] - gcol)
            elif axis[0] == "z":
                c = int(axis[1:]) - 1
                dz_sq += (z[:, c][:, None] - gcol) ** 2
            else:
                k = int(axis[1:]) - 1
                du_sq += self.intensities[k] * (u[:, k][:, None] - gcol) ** 2
        return self.params.n * (dy + np.sqrt(dz_sq) + np.sqrt(du_sq))

    def _check_domain(self, y, z, u):
        for col, axis in enumerate(self.axes):
            if axis == "y":
                vals = y
            elif axis[0] == "z":
                vals = z[:, int(axis[1:]) - 1]
            else:
                vals = u[:, int(axis[1:]) - 1]
            lo, hi = self.params.box[axis]
            eps = 1e-12 * max(1.0, abs(lo), abs(hi))
            if vals.min() < lo - eps or vals.max() > hi + eps:
                raise EnvelopeError(
                    f"envelope query for '{axis}' outside the box [{lo}, {hi}]: "
                    f"range [{vals.min():.6g}, {vals.max():.6g}]"
                )

    def _note_boundary(self, best_idx, y, z, u):
        """Flag optima on the box edge, unless the query itself sits there."""
        multi = np.asarray(np.unravel_index(best_idx, self.grid_shape))
        hits = 0
        for col, axis in enumerate(self.axes):
            if axis == "y":
                vals = y
            elif axis[0] == "z":
                vals = z[:, int(axis[1:]) - 1]
            else:
                vals = u[:, int(axis[1:]) - 1]
            grid = self.grids[col]
            last = grid.size - 1
            at_edge = (multi[col] == 0) | (multi[col] == last)
            step = grid[1] - grid[0]
            nearest = np.clip(np.rint((vals - grid[0]) / step).astype(int), 0, last)
            legit = nearest == multi[col]
            bad = at_edge & ~legit
            hits += int(bad.sum())
            if self.raise_on_boundary and bad.any():
                raise EnvelopeError(
                    f"envelope optimum on the '{axis}' box edge at n = {self.params.n}; "
                    "enlarge the box and rerun"
                )
        self.boundary_hits += hits

    def __call__(self, t, y, z=None, u=None, w=None, j=None):
        y = np.asarray(y, dtype=float)
        shape = y.shape
        Q = int(y.size)
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
        self._check_domain(yq, zq, uq)
        names = variables(self.f)
        if any(n[0] == "w" for n in names) and w is not None:
            w_q = np.broadcast_to(w, shape + (self.dim_d,)).reshape(Q, 1, self.dim_d)
        else:
            w_q = None
        if any(n[0] == "j" for n in names) and j is not None:
            j_q = np.broadcast_to(j, shape + (self.num_marks,)).reshape(Q, 1, self.num_marks)
        else:
            j_q = None
        fvals = evaluate(self.f, self._grid_context(t, w_q, j_q))
        penalty = self._penalty(yq, zq, uq)
        # fvals is (G,) for state-free f, (Q, G) when it reads w or j
        if self.kind == "inf":
            total = fvals + penalty
            best = np.argmin(total, axis=-1)
        else:
            total = fvals - penalty
            best = np.argmax(total, axis=-1)
        values = total[np.arange(Q), best]
        self._note_boundary(best, yq, zq, uq)
        return values.reshape(shape)


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


def _active_axes(names, dim_d, num_marks):
    axes = []
    if "y" in names:
        axes.append("y")
    z_all = "znorm" in names
    u_all = "unorm" in names
    for c in range(1, dim_d + 1):
        if z_all or f"z{c}" in names:
            axes.append(f"z{c}")
    for k in range(1, num_marks + 1):
        if u_all or f"u{k}" in names:
            axes.append(f"u{k}")
    return axes


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
):
    """Tabulate the envelope on its own grid; yields a header row then one
    row of point coordinates plus the envelope value per grid point."""
    env = EnvelopeFunction(
        f, params, kind, dim_d=dim_d, num_marks=num_marks, intensities=intensities
    )
    yield list(env.axes) + ["value"]
    G = env.coords.shape[0]
    y = np.zeros(G)
    z = np.zeros((G, env.dim_d))
    u = np.zeros((G, env.num_marks))
    for col, axis in enumerate(env.axes):
        if axis == "y":
            y = env.coords[:, col]
        elif axis[0] == "z":
            z[:, int(axis[1:]) - 1] = env.coords[:, col]
        else:
            u[:, int(axis[1:]) - 1] = env.coords[:, col]
    values = env(t, y, z, u)
    for g in range(G):
        yield [float(c) for c in env.coords[g]] + [float(values[g])]
