"""Trigonometric polynomials on the torus and their norm functionals.

Coefficients are stored sparsely (integer frequency -> complex value, zero
entries elided), as a dict and as the arrays it is validated into.
``synthesize``/``analyze`` move between the coefficient table and uniform
grid samples via the FFT; both are exact up to round-off whenever the grid
strictly oversamples the degree (M > 2 * degree per axis).  ``_sample`` is
the one scatter of a sparse table into a grid, for every module.
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


def _key_error(keys, dim):
    """The error naming the first key that is not a frequency of arity dim."""
    shape, expect = ((), "an integer") if dim == 1 else ((dim,), f"a tuple of {dim} integers")
    for n in keys:
        a = np.asarray(n)
        if a.shape != shape or a.dtype.kind not in "iu":
            return ValueError(f"frequency {n!r} is not {expect}")
    return ValueError("frequencies do not fit in int64")


@dataclass(frozen=True)
class TrigPoly:
    """Finitely supported coefficient table f_hat on Z**dim.

    Frequencies are ints for dim == 1 and tuples of ints otherwise.  The table
    is validated once, as arrays: ``freqs`` (n x dim int64) and ``values``
    (complex128) hold it in the order of ``coeffs``, and every consumer that
    computes reads them.  Zero coefficients are dropped from all three.
    """

    dim: int
    coeffs: dict = field(default_factory=dict)
    freqs: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = list(self.coeffs)
        try:
            freqs = np.array(keys)
        except ValueError:
            raise _key_error(keys, self.dim) from None
        self._set_table(freqs, np.array(list(self.coeffs.values()), dtype=np.complex128), keys)

    @classmethod
    def from_arrays(cls, dim, freqs, values):
        """The table {freqs[i]: values[i]} without building that dict first:
        freqs holds the keys as an array, (n,) for dim 1 and (n, dim)
        otherwise, and is validated as the keys of a dict are; a frequency
        may repeat only with zero coefficients."""
        p = cls.__new__(cls)
        object.__setattr__(p, "dim", dim)
        p._set_table(np.asarray(freqs), np.asarray(values, dtype=np.complex128))
        return p

    def _set_table(self, freqs, values, keys=None):
        """Validate the keys (as the array freqs) and the coefficients, then
        store the table, zero coefficients dropped, as coeffs/freqs/values."""
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        n = len(freqs)
        if n and (freqs.shape[1:] != (() if self.dim == 1 else (self.dim,))
                  or freqs.dtype.kind not in "iu"
                  or freqs.dtype.kind == "u" and freqs.max() > np.iinfo(np.int64).max):
            raise _key_error(freqs.tolist() if keys is None else keys, self.dim)
        if values.shape != (n,):
            raise ValueError(f"{values.size} coefficients for {n} frequencies")
        freqs = freqs.astype(np.int64).reshape(n, self.dim)
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            key = int(freqs[i, 0]) if self.dim == 1 else tuple(freqs[i].tolist())
            raise ValueError(f"non-finite coefficient at {key!r}")
        keep = values != 0
        freqs, values = freqs[keep], values[keep]
        table = freqs[:, 0].tolist() if self.dim == 1 else map(tuple, freqs.tolist())
        coeffs = dict(zip(table, values.tolist()))
        if len(coeffs) < len(values):
            raise ValueError("a frequency carries two nonzero coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @property
    def support(self):
        return set(self.coeffs)

    @property
    def degrees(self):
        """Per-axis max |n| over the support (tuple of length dim)."""
        if not self.coeffs:
            return (0,) * self.dim
        return tuple(np.abs(self.freqs).max(axis=0).tolist())

    @property
    def degree(self):
        return max(self.degrees)

    def coefficient(self, n):
        key = n if self.dim > 1 else int(n)
        return self.coeffs.get(key, 0j)

    def l2_coeff_norm(self):
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)))


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


SUP_L1_FACTOR = 8      # grid factor on the degree for sup and L1-type readings


def grid_size(extent, factor):
    """The one grid rule: the smallest power of two M >= 16 with M > factor * extent.

    Factor 2 on the degree is alias-free, SUP_L1_FACTOR on it serves sup and
    L1 readings, and p/2 on the span max - min makes an even-p moment exact:
    |f|^p = |f^{p/2}|^2, and no two bins of f^{p/2}, spanning (p/2) * span, collide."""
    return max(next_pow2(factor * extent + 1), 16)


def _sizes_tuple(sizes, dim):
    if isinstance(sizes, int):
        return (sizes,) * dim
    return tuple(int(m) for m in sizes)


def _sample(freqs, values, sizes):
    """Samples of sum_n values[n] e^{2 pi i n . theta_j} on the grid `sizes`.

    The one scatter of a sparse table into a torus grid: frequencies (an
    n x dim int array) land in their bins modulo the sizes, where coinciding
    bins add, and one inverse FFT scaled by the point count samples them.
    """
    spec = np.zeros(sizes, dtype=np.complex128)
    np.add.at(spec, tuple((freqs % sizes).T), values)
    return np.fft.ifftn(spec) * math.prod(sizes)


def synthesize(p: TrigPoly, sizes) -> GridSignal:
    """Sample f(theta_j) = sum_n f_hat(n) e^{2 pi i n . theta_j} on the grid.

    Requires M_i > 2 * degree_i per axis so that distinct support frequencies
    occupy distinct FFT bins (no aliasing), and a grid within the budget;
    the samples come from _sample on the table's arrays.
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
    return GridSignal(_sample(p.freqs, p.values, sizes))


def analyze(s: GridSignal, tol=1e-12) -> TrigPoly:
    """Recover the coefficient table from grid samples.

    Reports frequencies with |n_i| < M_i / 2; the ambiguous Nyquist bins are
    dropped.  Coefficients below tol * max|coefficient| are pruned so that
    FFT round-off does not inflate the support (pass tol=0 to keep all).
    """
    spec = np.fft.fftn(s.values) / s.npoints
    sizes = np.array(s.sizes)
    idx = np.argwhere(np.abs(spec) > tol * float(np.abs(spec).max()))
    idx = idx[(idx != sizes // 2).all(axis=1)]
    freqs = np.where(idx < sizes // 2, idx, idx - sizes)
    return TrigPoly.from_arrays(s.dim, freqs[:, 0] if s.dim == 1 else freqs,
                                spec[tuple(idx.T)])


def lp_norm(s: GridSignal, p) -> float:
    """Rectangle-rule L^p norm on the grid; sup over the grid for p = inf.

    Exact for even integer p whenever every axis size exceeds (p/2) * span,
    the spectral span max - min of that axis (see grid_size); otherwise a
    quadrature approximation at the signal's declared grid.
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
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"Orlicz exponent must be finite and >= 0, got {r}")
    a = np.abs(s.values)
    if r == 0:
        return float(np.mean(a))
    return float(np.mean(a * np.log1p(a) ** r))


def weighted_l2(p: TrigPoly, m) -> float:
    """(sum over supp(p) of |m(n) f_hat(n)|**2)**(1/2), dim 1 only.

    ``m`` is anything exposing values_at(ns) (see multipliers.MultiplierSeq).
    """
    if p.dim != 1:
        raise ValueError("weighted_l2 is defined for dim 1")
    weighted = m.values_at(p.freqs[:, 0]) * p.values
    return math.sqrt(float(np.sum(np.abs(weighted) ** 2)))


def square_function_blocks(p: TrigPoly):
    """Coefficient tables of the dyadic blocks eta(2**-k n) f_hat(n), k meeting supp(p).

    Frequency 0 never meets any block (the window vanishes at 0).
    """
    if p.dim != 1:
        raise ValueError("square function blocks are defined for dim 1")
    n = p.freqs[:, 0]
    mags = np.abs(n[n != 0])
    if not mags.size:
        return {}
    blocks = {}
    for k in window.blocks_meeting(int(mags.min()), int(mags.max())):
        w = window.eta_scaled(n, k)
        keep = w != 0.0
        if keep.any():
            weighted = w[keep] * p.values[keep]
            blocks[k] = TrigPoly.from_arrays(1, n[keep], weighted)
    return blocks


def periodic_square_function_norm(p: TrigPoly) -> float:
    """L1 norm of (sum_k |Delta_k f|**2)**(1/2) on a shared grid of
    grid_size(degree, SUP_L1_FACTOR) points.

    The blocks Delta_k carry coefficients eta(2**-k n) f_hat(n); a nonzero
    mean coefficient f_hat(0) never enters any block.
    """
    blocks = square_function_blocks(p)
    if not blocks:
        return 0.0
    grid = grid_size(p.degree, SUP_L1_FACTOR)
    acc = np.zeros(grid)
    for k in sorted(blocks):
        vals = synthesize(blocks[k], grid).values
        acc += np.abs(vals) ** 2
    return float(np.mean(np.sqrt(acc)))
