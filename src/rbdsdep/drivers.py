"""Time grids, jump marks and driving-noise scenarios.

The solvers consume two independent Brownian motions W (forward, dimension
d) and B (a scalar motion whose integrals are taken in the backward sense),
plus a finite-activity marked Poisson stream.  Scenarios come in two modes:

``gaussian``
    dW and dB increments are Normal(0, dt); per-mark jump counts are
    Poisson(lambda_k * dt).

``two-point``
    every dW component and dB take the values +-sqrt(dt) with probability
    1/2, and each mark fires at most once per step with probability
    lambda_k * dt.  This is an exact finite probability space, the same one
    the enumeration tree uses, not an approximation of the gaussian mode.

Path generation is counter-based.  A set with seed s draws from one Philox
stream keyed by ``SeedSequence(s)``.  Every path takes the same number K
of raw 64-bit words, rounded up to a multiple of 4, and path p owns the
words from Philox counter p*K/4 on: its N*d dW values (step-major), its N
dB values, then its N*m jump words.  Each value takes a fixed number of
words:

* gaussian: dW and dB by Box-Muller on 53-bit uniforms, one word per value
  (the words of values 2k and 2k+1 are one pair, with one pad word when
  N*(d+1) is odd); each jump count by inversion of one uniform against an
  exact table of its mark's Poisson(lambda_k*dt) law.
* two-point: each sign from the top bit of one word (bit 0 means +1); mark
  k fires when one uniform is below lambda_k*dt.

Paths are drawn in fixed blocks by ``Philox.advance`` and ``random_raw``,
so path p depends only on (s, p), never on the path count, the block or
the thread count.  The raw words are exact; the gaussian values go
through ``log``, ``cos`` and ``sin``, so their bytes repeat on one machine
and numpy build, not necessarily across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, SolverError

MODES = ("gaussian", "two-point")

#: Most weighted paths a two-point enumeration, and so a tree's path view,
#: may hold: 16 MB per float column; also about the most values, sums and
#: E sup Y^2 thresholds, a pass of ``solver.backward_reductions`` holds on
#: one slice at a time.
MAX_PATHS = 2_000_000

#: Most path-steps, paths x (N + 1), a sampled (gaussian or two-point)
#: scenario set may hold; config loading refuses more.  An LSMC solve
#: peaked at about 115 B per path-step (16,000 to 128,000 paths at N = 10,
#: d = 1, one mark), so this budget is about 1.2 GB.
MAX_PATH_STEPS = 10_000_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform partition of [0, T] into N steps; grids compare and hash by
    (T, N)."""

    T: float
    N: int
    dt: float = field(init=False)
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.T > 0.0:
            raise ConfigError(f"horizon T must be positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ConfigError(f"step count N must be an integer >= 1, got {self.N}")
        dt = self.T / self.N
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "times", _freeze(np.linspace(0.0, self.T, self.N + 1)))
        if abs(dt * self.N - self.T) > 1e-12 * max(1.0, abs(self.T)):
            raise ConfigError("grid does not reproduce T: dt * N != T")

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return (self.T, self.N) == (other.T, other.N)

    def __hash__(self):
        return hash((self.T, self.N))


def build_time_grid(T: float, N: int) -> TimeGrid:
    return TimeGrid(float(T), int(N))


@dataclass(frozen=True, eq=False)
class MarkSpace:
    """Finite set of jump marks e_k with intensities lambda_k > 0.

    The values e_k are labels.  They are validated (nonzero, one per
    intensity), enter the config hash and must agree between the two
    problems of a comparison, but they do not enter the dynamics: a jump
    of mark k adds 1 to the count j_k whatever e_k is, and only the
    intensities set the law.  An empty mark space (m = 0) is legal and
    means no jump part.  Mark spaces compare and hash by their values and
    intensities.
    """

    values: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        lam = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        if values.size == 0:
            values = values.reshape(0)
            lam = lam.reshape(0)
        if values.shape != lam.shape or values.ndim != 1:
            raise ConfigError("mark values and intensities must be 1-d and equal length")
        if np.any(values == 0.0):
            raise ConfigError("mark values must be nonzero")
        if np.any(lam <= 0.0):
            raise ConfigError("mark intensities must be positive")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "intensities", _freeze(lam))

    def _key(self):
        return tuple(self.values.tolist()), tuple(self.intensities.tolist())

    def __eq__(self, other):
        if not isinstance(other, MarkSpace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


def empty_marks() -> MarkSpace:
    return MarkSpace(np.zeros(0), np.zeros(0))


def check_two_point_law(marks: MarkSpace, dt: float):
    """Raise ConfigError unless the two-point law exists on steps of dt:
    marks fire with probabilities lambda_k * dt, so their sum must stay
    below one."""
    lam_dt = marks.total_intensity * dt
    if lam_dt >= 1.0:
        raise ConfigError(f"two-point law needs total_intensity * dt < 1, got {lam_dt:.6g}")


@dataclass(frozen=True)
class ScenarioSet:
    """A batch of driving-noise paths on a common grid.

    dW has shape (P, N, d), dB has shape (P, N), jump_counts has shape
    (P, N, m).  ``weights`` holds per-path probabilities for exhaustively
    enumerated sets and is None for sampled sets (uniform 1/P).  Arrays are
    frozen; treat instances as immutable values.
    """

    grid: TimeGrid
    dim_d: int
    mode: str
    seed: Optional[int]
    dW: np.ndarray
    dB: np.ndarray
    jump_counts: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        P = self.dW.shape[0]
        N = self.grid.N
        if self.dW.shape != (P, N, self.dim_d):
            raise SolverError(f"dW shape {self.dW.shape} != {(P, N, self.dim_d)}")
        if self.dB.shape != (P, N):
            raise SolverError(f"dB shape {self.dB.shape} != {(P, N)}")
        if self.jump_counts.shape[:2] != (P, N):
            raise SolverError(f"jump_counts shape {self.jump_counts.shape} is not (P, N, m)")
        if self.weights is not None and self.weights.shape != (P,):
            raise SolverError("weights must have one entry per path")
        for arr in (self.dW, self.dB, self.jump_counts):
            _freeze(arr)
        if self.weights is not None:
            _freeze(self.weights)

    @property
    def path_count(self) -> int:
        return self.dW.shape[0]

    @property
    def num_marks(self) -> int:
        return self.jump_counts.shape[2]

    def path_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        P = self.path_count
        return np.full(P, 1.0 / P)

    def brownian_paths(self) -> np.ndarray:
        """Cumulative W, shape (P, N+1, d), W_0 = 0."""
        P, N, d = self.dW.shape
        out = np.zeros((P, N + 1, d))
        np.cumsum(self.dW, axis=1, out=out[:, 1:, :])
        return out

    def jump_paths(self) -> np.ndarray:
        """Cumulative jump counts, shape (P, N+1, m), zero at t = 0."""
        P, N, m = self.jump_counts.shape
        out = np.zeros((P, N + 1, m))
        np.cumsum(self.jump_counts, axis=1, out=out[:, 1:, :])
        return out

    def b_remaining(self) -> np.ndarray:
        """B_T - B_{t_i} per path, shape (P, N+1); zero at t = T."""
        P, N = self.dB.shape
        out = np.zeros((P, N + 1))
        out[:, :N] = self.dB[:, ::-1].cumsum(axis=1)[:, ::-1]
        return out


#: Paths drawn per block of raw words; path p's draws do not depend on it.
_BLOCK_PATHS = 4096

#: Largest lambda_k * dt the gaussian sampler takes: its Poisson inversion
#: table holds about 20 * sqrt(lambda_k * dt) entries.
MAX_POISSON_MEAN = 2.0**30


def check_gaussian_law(marks: MarkSpace, dt: float):
    """Raise ConfigError unless the gaussian sampler can draw every mark's
    jump counts on steps of dt: lambda_k * dt <= MAX_POISSON_MEAN."""
    for mean in marks.intensities * dt:
        if mean > MAX_POISSON_MEAN:
            raise ConfigError(
                f"gaussian jump counts need intensity * dt <= 2**30 per mark, got {mean:.6g}"
            )


def _uniforms(words: np.ndarray) -> np.ndarray:
    """One 53-bit uniform on [0, 1) per raw word."""
    return (words >> np.uint64(11)) * 2.0**-53


def _normals(words: np.ndarray) -> np.ndarray:
    """Standard normals by Box-Muller, one per raw word: columns 2k and
    2k+1 are the cosine and sine values of that pair of uniforms."""
    u = _uniforms(words)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    out = np.empty(u.shape)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out


def _poisson_table(mean: float):
    """(lowest, cdf) inverting Poisson(mean): a uniform u draws the count
    lowest + (number of cdf entries <= u).

    The pmf is built from the mode outward by its term ratios, so neither
    exp(-mean) nor a factorial is formed; the window reaches 10 standard
    deviations plus 30 past the mode, and the mass outside it (below
    1e-20) goes to its end counts.  The last entry is +inf, so every u
    lands in the table.  The mean is at most MAX_POISSON_MEAN
    (``check_gaussian_law``).
    """
    mode = math.floor(mean)
    reach = int(10.0 * math.sqrt(mean)) + 30
    lowest = max(0, mode - reach)
    up = np.cumprod(mean / np.arange(mode + 1, mode + reach + 1))
    down = np.cumprod(np.arange(mode, lowest, -1) / mean)[::-1]
    pmf = np.concatenate((down, [1.0], up))
    cdf = np.cumsum(pmf / pmf.sum())
    cdf[-1] = np.inf
    return lowest, cdf


def simulate_scenarios(
    grid: TimeGrid,
    dim_d: int,
    marks: MarkSpace,
    path_count: int,
    seed: int,
    mode: str = "gaussian",
) -> ScenarioSet:
    """Sample driving-noise paths; see the module docstring for the modes
    and the layout of each path's raw words."""
    if dim_d < 1:
        raise ConfigError(f"dim_d must be >= 1, got {dim_d}")
    if path_count < 1:
        raise ConfigError(f"path_count must be >= 1, got {path_count}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    N, dt = grid.N, grid.dt
    m = marks.m
    gaussian = mode == "gaussian"
    lam_dt = marks.intensities * dt
    if gaussian:
        check_gaussian_law(marks, dt)
        tables = [_poisson_table(mean) for mean in lam_dt]
    else:
        check_two_point_law(marks, dt)
    signs = N * (dim_d + 1)
    noise = signs + signs % 2 if gaussian else signs
    words = -(-(noise + N * m) // 4) * 4
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    dW = np.empty((path_count, N, dim_d))
    dB = np.empty((path_count, N))
    counts = np.empty((path_count, N, m))
    root = np.sqrt(dt)
    for first in range(0, path_count, _BLOCK_PATHS):
        rows = slice(first, min(first + _BLOCK_PATHS, path_count))
        # each counter gives 4 words: path p's start at counter p*words/4
        bitgen = np.random.Philox(key=key)
        bitgen.advance(first * words // 4)
        raw = bitgen.random_raw((rows.stop - first) * words).reshape(-1, words)
        jumps = _uniforms(raw[:, noise : noise + N * m]).reshape(len(raw), N, m)
        if gaussian:
            values = _normals(raw[:, :noise])[:, :signs] * root
            for k, (lowest, cdf) in enumerate(tables):
                counts[rows, :, k] = lowest + np.searchsorted(cdf, jumps[:, :, k], side="right")
        else:
            values = (1.0 - 2.0 * (raw[:, :signs] >> np.uint64(63))) * root
            counts[rows] = jumps < lam_dt
        dW[rows] = values[:, : N * dim_d].reshape(len(raw), N, dim_d)
        dB[rows] = values[:, N * dim_d :]
    return ScenarioSet(grid, dim_d, mode, seed, dW, dB, counts)


def _sign_patterns(num_vars: int) -> np.ndarray:
    """All sign patterns, shape (2**k, k); first variable is the high bit,
    bit 0 means +1."""
    idx = np.arange(2**num_vars)
    shifts = num_vars - 1 - np.arange(num_vars)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def _jump_patterns(num_marks: int) -> np.ndarray:
    """All fire/no-fire patterns, shape (2**m, m); first mark is the high bit."""
    idx = np.arange(2**num_marks)
    shifts = num_marks - 1 - np.arange(num_marks)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(float)


def _jump_pattern_probs(marks: MarkSpace, dt: float) -> np.ndarray:
    """Probability of each fire pattern under per-mark Bernoulli(lambda*dt)."""
    patterns = _jump_patterns(marks.m)
    p = marks.intensities * dt
    probs = np.where(patterns > 0, p, 1.0 - p)
    return probs.prod(axis=1)


def enumerate_scenarios(
    grid: TimeGrid,
    dim_d: int,
    marks: MarkSpace,
    max_paths: int = MAX_PATHS,
) -> ScenarioSet:
    """Every two-point branch as one weighted path.

    The returned set has (2**d * 2 * 2**m)**N paths whose weights are the
    exact branch probabilities; LSMC run on it with the saturated indicator
    basis reproduces the enumeration-tree solve identically.
    """
    if dim_d < 1:
        raise ConfigError(f"dim_d must be >= 1, got {dim_d}")
    N, dt = grid.N, grid.dt
    m = marks.m
    check_two_point_law(marks, dt)
    per_step = 2 ** (dim_d + 1 + m)
    total = per_step**N
    if total > max_paths:
        raise SolverError(
            f"enumeration would produce {total} paths (> budget {max_paths})"
        )
    root = np.sqrt(dt)
    w_step = _sign_patterns(dim_d) * root        # (2^d, d)
    j_step = _jump_patterns(m)                   # (2^m, m)
    j_probs = _jump_pattern_probs(marks, dt)     # (2^m,)

    nw, nj, nb = 2**dim_d, 2**m, 2
    dW = np.empty((total, N, dim_d))
    dB = np.empty((total, N))
    counts = np.empty((total, N, m))
    weights = np.full(total, (1.0 / nw) ** N * 0.5**N)
    path = np.arange(total)
    # digit order: step 0 is the most significant digit of each index family
    wh = path // (nj**N * nb**N)
    jh = (path // nb**N) % nj**N
    bh = path % nb**N
    for i in range(N):
        w_digit = (wh // nw ** (N - 1 - i)) % nw
        j_digit = (jh // nj ** (N - 1 - i)) % nj
        b_digit = (bh // nb ** (N - 1 - i)) % nb
        dW[:, i, :] = w_step[w_digit]
        counts[:, i, :] = j_step[j_digit]
        dB[:, i] = (1.0 - 2.0 * b_digit) * root
        weights *= j_probs[j_digit]
    return ScenarioSet(grid, dim_d, "two-point", None, dW, dB, counts, weights)

