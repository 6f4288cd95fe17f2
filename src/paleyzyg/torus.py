"""Trigonometric polynomials on the torus and their norm functionals.

Coefficients are stored sparsely (integer frequency -> complex value, zero
entries elided).  ``synthesize``/``analyze`` move between the coefficient
table and uniform grid samples via the FFT; both are exact up to round-off
whenever the grid strictly oversamples the degree (M > 2 * degree per axis).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import window

# The one resource budget: no routine allocates an array of more points.
_MAX_GRID_POINTS = 1 << 24


def check_budget(points, what):
    """Raise ValueError, naming the size, if `points` exceeds the budget."""
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"{what} needs {points} points, over the budget of "
                         f"{_MAX_GRID_POINTS}")


def _as_freq_tuple(n, dim):
    if dim == 1:
        return (int(n),)
    return tuple(int(v) for v in n)


@dataclass(frozen=True)
class TrigPoly:
    """Finitely supported coefficient table f_hat on Z**dim.

    Frequencies are ints for dim == 1 and tuples of ints otherwise.  Zero
    coefficients are dropped on construction.
    """

    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for n, c in self.coeffs.items():
            key = _as_freq_tuple(n, self.dim)
            if len(key) != self.dim:
                raise ValueError(f"frequency {n!r} has arity {len(key)}, expected {self.dim}")
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at {n!r}")
            if c != 0:
                clean[key[0] if self.dim == 1 else key] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def support(self):
        return set(self.coeffs)

    @property
    def degrees(self):
        """Per-axis max |n| over the support (tuple of length dim)."""
        if not self.coeffs:
            return (0,) * self.dim
        if self.dim == 1:
            return (max(abs(n) for n in self.coeffs),)
        return tuple(max(abs(n[a]) for n in self.coeffs) for a in range(self.dim))

    @property
    def degree(self):
        return max(self.degrees)

    def coefficient(self, n):
        key = n if self.dim > 1 else int(n)
        return self.coeffs.get(key, 0j)

    def l2_coeff_norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def scaled(self, factor):
        return TrigPoly(self.dim, {n: factor * c for n, c in self.coeffs.items()})

    def plus(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0j) + c
        return TrigPoly(self.dim, out)


def coeffs_close(p, q, rel_tol=1e-10):
    """Max absolute coefficient difference <= rel_tol * max coefficient magnitude."""
    keys = set(p.coeffs) | set(q.coeffs)
    if not keys:
        return True
    scale = max(max((abs(c) for c in p.coeffs.values()), default=0.0),
                max((abs(c) for c in q.coeffs.values()), default=0.0), 1e-300)
    worst = max(abs(p.coeffs.get(k, 0j) - q.coeffs.get(k, 0j)) for k in keys)
    return worst <= rel_tol * scale


@dataclass(frozen=True)
class GridSignal:
    """Complex samples on the uniform grid theta_j = j / M (per axis).

    Per-axis sizes must be powers of two, at least 2.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        for m in v.shape:
            if m < 2 or m & (m - 1):
                raise ValueError(f"grid sizes must be powers of two >= 2, got {v.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim(self):
        return self.values.ndim

    @property
    def sizes(self):
        return self.values.shape

    @property
    def npoints(self):
        return self.values.size


def next_pow2(n):
    m = 1
    while m < n:
        m *= 2
    return m


def _sizes_tuple(sizes, dim):
    if isinstance(sizes, int):
        return (sizes,) * dim
    return tuple(int(m) for m in sizes)


def synthesize(p: TrigPoly, sizes) -> GridSignal:
    """Sample f(theta_j) = sum_n f_hat(n) e^{2 pi i n . theta_j} on the grid.

    Requires M_i > 2 * degree_i per axis so that distinct support frequencies
    occupy distinct FFT bins (no aliasing).
    """
    sizes = _sizes_tuple(sizes, p.dim)
    if len(sizes) != p.dim:
        raise ValueError("sizes arity does not match polynomial dimension")
    degs = p.degrees
    for m, d in zip(sizes, degs):
        if m <= 2 * d:
            raise ValueError(
                f"grid size {m} too small for degree {d}; need at least {next_pow2(2 * d + 1)}")
    check_budget(math.prod(sizes), f"grid {sizes}")
    spec = np.zeros(sizes, dtype=np.complex128)
    if p.coeffs:
        keys = list(p.coeffs)
        vals = np.array([p.coeffs[k] for k in keys])
        idx = np.array([_as_freq_tuple(k, p.dim) for k in keys])
        flat = np.ravel_multi_index(tuple((idx[:, a] % sizes[a]) for a in range(p.dim)), sizes)
        np.add.at(spec.reshape(-1), flat, vals)
    vals = np.fft.ifftn(spec) * np.prod(sizes)
    return GridSignal(vals)


def analyze(s: GridSignal, tol=1e-12) -> TrigPoly:
    """Recover the coefficient table from grid samples.

    Reports frequencies with |n_i| < M_i / 2; the ambiguous Nyquist bins are
    dropped.  Coefficients below tol * max|coefficient| are pruned so that
    FFT round-off does not inflate the support (pass tol=0 to keep all).
    """
    spec = np.fft.fftn(s.values) / s.npoints
    dim = s.dim
    scale = float(np.abs(spec).max())
    cutoff = tol * scale
    coeffs = {}
    nz = np.argwhere(np.abs(spec) > cutoff)
    for idx in nz:
        freq = []
        ok = True
        for a, k in enumerate(idx):
            m = s.sizes[a]
            if k == m // 2:
                ok = False
                break
            freq.append(int(k) if k < m // 2 else int(k) - m)
        if not ok:
            continue
        key = freq[0] if dim == 1 else tuple(freq)
        coeffs[key] = complex(spec[tuple(idx)])
    return TrigPoly(dim, coeffs)


def lp_norm(s: GridSignal, p) -> float:
    """Rectangle-rule L^p norm on the grid; sup over the grid for p = inf.

    Exact for even integer p whenever every axis size exceeds p * degree;
    otherwise a quadrature approximation at the signal's declared grid.
    """
    a = np.abs(s.values)
    if p == math.inf:
        return float(a.max())
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float(np.mean(a ** p) ** (1.0 / p))


def orlicz_functional(s: GridSignal, r) -> float:
    """Mean of |f| * log(1 + |f|)**r over the grid (natural logarithm)."""
    r = float(r)
    if r < 0:
        raise ValueError("Orlicz exponent must be >= 0")
    a = np.abs(s.values)
    if r == 0:
        return float(np.mean(a))
    return float(np.mean(a * np.log1p(a) ** r))


def weighted_l2(p: TrigPoly, m) -> float:
    """(sum over supp(p) of |m(n) f_hat(n)|**2)**(1/2), dim 1 only.

    ``m`` is anything exposing value_at(n) (see multipliers.MultiplierSeq).
    """
    if p.dim != 1:
        raise ValueError("weighted_l2 is defined for dim 1")
    total = 0.0
    for n in sorted(p.coeffs):
        total += abs(m.value_at(n) * p.coeffs[n]) ** 2
    return math.sqrt(total)


def square_function_blocks(p: TrigPoly):
    """Coefficient tables of the dyadic blocks eta(2**-k n) f_hat(n), k meeting supp(p).

    Frequency 0 never meets any block (the window vanishes at 0).
    """
    if p.dim != 1:
        raise ValueError("square function blocks are defined for dim 1")
    mags = [abs(n) for n in p.coeffs if n != 0]
    if not mags:
        return {}
    blocks = {}
    for k in window.blocks_meeting(min(mags), max(mags)):
        tbl = {}
        for n, c in p.coeffs.items():
            if n == 0:
                continue
            w = window.eta_scaled(n, k)
            if w != 0.0:
                tbl[n] = w * c
        if tbl:
            blocks[k] = TrigPoly(1, tbl)
    return blocks


def periodic_square_function_norm(p: TrigPoly, grid=None) -> float:
    """L1 norm of (sum_k |Delta_k f|**2)**(1/2) on a shared grid.

    The blocks Delta_k carry coefficients eta(2**-k n) f_hat(n); a nonzero
    mean coefficient f_hat(0) never enters any block.  The grid defaults to
    an 8x oversampling of the degree.
    """
    blocks = square_function_blocks(p)
    if not blocks:
        return 0.0
    if grid is None:
        grid = next_pow2(max(8 * (p.degree + 1), 16))
    acc = np.zeros(grid)
    for k in sorted(blocks):
        vals = synthesize(blocks[k], grid).values
        acc += np.abs(vals) ** 2
    return float(np.mean(np.sqrt(acc)))
