"""Trigonometric polynomials on the torus and their norm functionals.

Coefficients are stored sparsely (integer frequency -> complex value, zero
entries elided) as arrays; the dict ``TrigPoly.coeffs`` is a view of them.
``synthesize``/``analyze`` move between the coefficient table and uniform
grid samples via the FFT; both are exact up to round-off whenever the grid
strictly oversamples the degree (M > 2 * degree per axis).  ``_sample_blocks``
is the one sampler of a sparse table, for every module: one inverse FFT, or,
on 1-D grids of 2^16 points or more, cache-sized blocks, by a pruned
four-step FFT for sparse tables and by output decimation for dense tables of
small span (forms, thresholds and measured errors in its docstring).
``_sample`` assembles the blocks in grid order; ``_abs_readings``, the one
kernel of ``lp_norm`` and ``orlicz_functional``, also reduces them one by
one, so the Orlicz means and sups of large grids build no sample array.
"""

import functools
import math
from dataclasses import dataclass

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


def _lex_order(freqs):
    """The order that sorts the rows of an (n, dim) frequency array."""
    return np.lexsort(freqs.T[::-1])


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TrigPoly:
    """Finitely supported coefficient table f_hat on Z**dim.

    Frequencies are ints for dim == 1 and tuples of ints otherwise.  The table
    is validated once into arrays, which are the table: ``freqs`` (n x dim
    int64) and ``values`` (complex128), zero coefficients dropped, in the
    order given.  ``coeffs`` is a dict view of them, built on first read.
    """

    dim: int
    freqs: np.ndarray
    values: np.ndarray

    def __init__(self, dim, coeffs=None):
        coeffs = {} if coeffs is None else coeffs
        object.__setattr__(self, "dim", dim)
        keys = list(coeffs)
        try:
            freqs = np.array(keys)
        except ValueError:
            raise _key_error(keys, self.dim) from None
        self._set_table(freqs, np.array(list(coeffs.values()), dtype=np.complex128), keys)

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

    def _key(self, row):
        return int(row[0]) if self.dim == 1 else tuple(row.tolist())

    def _set_table(self, freqs, values, keys=None):
        """Validate the keys (as the array freqs) and the coefficients, then
        store the table, zero coefficients dropped, as freqs/values."""
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
            raise ValueError(f"non-finite coefficient at {self._key(freqs[np.argmax(bad)])!r}")
        keep = values != 0
        freqs, values = freqs[keep], values[keep]
        ordered = freqs[_lex_order(freqs)]
        dup = (ordered[1:] == ordered[:-1]).all(axis=1)
        if dup.any():
            raise ValueError(f"frequency {self._key(ordered[np.argmax(dup)])!r} "
                             "carries two nonzero coefficients")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def coeffs(self):
        """The table as a dict {frequency: coefficient}, in the order of the
        arrays; built on first read, which no computing consumer does."""
        keys = self.freqs[:, 0].tolist() if self.dim == 1 else map(tuple, self.freqs.tolist())
        return dict(zip(keys, self.values.tolist()))

    def __eq__(self, other):
        """Equal tables: the same dim and the same frequency -> coefficient map."""
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if self.dim != other.dim or len(self.values) != len(other.values):
            return False
        a, b = _lex_order(self.freqs), _lex_order(other.freqs)
        return (np.array_equal(self.freqs[a], other.freqs[b])
                and np.array_equal(self.values[a], other.values[b]))

    def __repr__(self):
        return f"TrigPoly(dim={self.dim!r}, coeffs={self.coeffs!r})"

    @property
    def support(self):
        return set(self.coeffs)

    @property
    def degrees(self):
        """Per-axis max |n| over the support (tuple of length dim)."""
        if not len(self.values):
            return (0,) * self.dim
        return tuple(np.abs(self.freqs).max(axis=0).tolist())

    @property
    def degree(self):
        return max(self.degrees)

    def coefficient(self, n):
        hit = np.flatnonzero((self.freqs == np.reshape(n, self.dim)).all(axis=1))
        return complex(self.values[hit[0]]) if hit.size else 0j

    def l2_coeff_norm(self):
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)))


def coeffs_close(p, q, rel_tol=1e-10):
    """Max absolute coefficient difference <= rel_tol * max coefficient magnitude."""
    freqs = np.concatenate([p.freqs, q.freqs])
    if not len(freqs):
        return True
    order = _lex_order(freqs)
    freqs, diffs = freqs[order], np.concatenate([p.values, -q.values])[order]
    starts = np.flatnonzero(np.r_[True, (freqs[1:] != freqs[:-1]).any(axis=1)])
    worst = float(np.abs(np.add.reduceat(diffs, starts)).max())
    scale = max(float(np.abs(diffs).max()), 1e-300)
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


# When and how a 1-D grid is sampled in blocks (see _sample_blocks).
_SPLIT_MIN_POINTS = 1 << 16
_SPLIT_ROWS = 4096
_SPLIT_COLUMNS = 16                # 4096 x 16 points, 1 MB, per split block
_DECIMATE_MIN_BLOCKS = 4
_DECIMATE_MAX_POINTS = 1 << 19     # 8 MB per decimated block


def _sizes_tuple(sizes, dim):
    if isinstance(sizes, int):
        return (sizes,) * dim
    return tuple(int(m) for m in sizes)


def _sample_blocks(freqs, values, M):
    """Samples of sum_n values[n] e^{2 pi i n j / M}, j < M, in blocks.

    Yields 2-D blocks B that cover the grid exactly once: read as a
    row-major array of B.shape[0] rows, the grid is the blocks side by side
    in the order they come.  A block may be overwritten by the next one.  A
    frequency n lands in its bin modulo every size, and coinciding bins add.

    Below M = _SPLIT_MIN_POINTS, and for tables that neither form below
    takes, the one block is the whole grid: the table scattered into M bins
    and one unnormalised inverse FFT.  On larger grids:

    * Sparse tables, S <= R / 4 terms with R = _SPLIT_ROWS dividing M, take
      the split (a pruned four-step FFT): with j = a + P b, P = M / R,

          f(j / M) = sum_{s < R} e^{2 pi i s b / R} X[s, a],
          X[s, a] = sum_{n = s mod R} values[n] e^{2 pi i n a / M},

      so S x P exact twiddles (n a reduced mod M in int64) fill X, and
      inverse FFTs of R points down its columns give f; each block is
      _SPLIT_COLUMNS columns of X (1 MB), transformed in place (``out=``,
      numpy >= 2.0; a fresh result per block costs more).  That costs
      S P <= M / 4 exponentials and cache-sized FFTs in place of one
      M-point FFT out of cache; at S = R / 2 the exponentials already cost
      more than the FFT saves (measured for M = 2^16 .. 2^20).
    * Other tables whose span max n - min n is below L = M / D take output
      decimation, with D the largest power of two dividing M such that
      L >= R, if D >= _DECIMATE_MIN_BLOCKS and L <= _DECIMATE_MAX_POINTS.
      Block r holds the samples j = D q + r, q < L:

          f((D q + r) / M) = sum_n (values[n] w_n^r) e^{2 pi i n q / L},
          w_n = e^{2 pi i n / M},

      one inverse FFT of L points, where no two frequencies share a bin
      mod L.  The twiddles w_n^r come by the recurrence T <- T w, one
      complex product per bin and block, from one row of S exponentials
      (not M of them).  The Ingham tails take D = 32 (D = 16 at 2^16
      points) and V_{2^N} on its sharpness grid D = 4.  Against one FFT,
      reading a dense table of span M / D (median of interleaved runs, 2
      cores): D = 2 takes 1.1-1.2x as long at M = 2^16 .. 2^18; D = 4 takes
      0.8-0.9x up to blocks of 2^19 points and 1.0x at 2^20; D >= 8 takes
      0.6-0.7x.

    On 2 cores a 52-term criterion-4 table on 2^20 points samples in about
    20 ms instead of 45 ms, and the Ingham tail of 2^17 terms on 2^22
    points in about 100 ms instead of 290 ms.  The split's samples differ
    from the plain FFT's by at most 5.4e-16 of max|f| on 100 criterion-4
    tables; the recurrence's by at most 1.5e-15 of max|f| on the Ingham
    tails (k = 11 .. 17) and 4.5e-16 on V_{2^N} (N = 12 .. 16), and their
    sups and Orlicz means by at most 7.4e-16 relative.
    """
    n = freqs[:, 0]
    R = _SPLIT_ROWS
    if M >= _SPLIT_MIN_POINTS and M % R == 0 and len(values) <= R // 4:
        n = n % M
        rows, P = n % R, M // R
        X = np.empty((_SPLIT_COLUMNS, R), dtype=np.complex128)
        for c0 in range(0, P, _SPLIT_COLUMNS):
            a = np.arange(c0, min(c0 + _SPLIT_COLUMNS, P))
            B = X[:len(a)]
            B.fill(0)
            np.add.at(B.T, rows, np.exp((2j * np.pi / M) * (n[:, None] * a % M)) * values[:, None])
            yield np.fft.ifft(B, norm="forward", out=B).T
        return
    D = 1
    if M >= _SPLIT_MIN_POINTS and len(n):
        span = int(n.max()) - int(n.min())
        while M % (2 * D) == 0 and M // (2 * D) >= R and span < M // (2 * D):
            D *= 2
    if D < _DECIMATE_MIN_BLOCKS or M // D > _DECIMATE_MAX_POINTS:
        spec = np.zeros(M, dtype=np.complex128)
        np.add.at(spec, n % M, values)
        yield np.fft.ifft(spec, norm="forward")[:, None]
        return
    L = M // D
    bins = n % L
    T = np.empty(L, dtype=np.complex128)
    T.real = np.bincount(bins, values.real, L)
    T.imag = np.bincount(bins, values.imag, L)
    W = np.ones(L, dtype=np.complex128)
    W[bins] = np.exp((2j * np.pi / M) * (n % M))
    X = np.empty(L, dtype=np.complex128)
    for _ in range(D):
        yield np.fft.ifft(T, norm="forward", out=X)[:, None]
        T *= W


def _sample(freqs, values, sizes):
    """Samples of sum_n values[n] e^{2 pi i n . theta_j} on the grid `sizes`.

    The one scatter of a sparse table into a torus grid: frequencies (an
    n x dim int array) land in their bins modulo the sizes, where
    coinciding bins add.  A 1-D grid is the natural-order assembly of the
    blocks of _sample_blocks (its docstring gives the block forms, their
    thresholds, the twiddle recurrence and the measured deviation from the
    plain FFT): each block is copied whole into a buffer that holds the
    grid column by column, and one transposing copy puts the grid in
    order.  An nD grid takes one inverse FFT.
    """
    if len(sizes) > 1:
        spec = np.zeros(sizes, dtype=np.complex128)
        np.add.at(spec, tuple((freqs % sizes).T), values)
        return np.fft.ifftn(spec, norm="forward")
    M = sizes[0]
    columns, c = None, 0
    for block in _sample_blocks(freqs, values, M):
        if block.size == M:
            return block.ravel()
        if columns is None:
            columns = np.empty((M // len(block), len(block)), dtype=np.complex128)
        columns[c:c + block.shape[1]] = block.T
        c += block.shape[1]
    return columns.T.ravel()


def _checked_sizes(p, sizes):
    """The sizes tuple for p, after the checks of synthesize."""
    sizes = _sizes_tuple(sizes, p.dim)
    if len(sizes) != p.dim:
        raise ValueError("sizes arity does not match polynomial dimension")
    for m, d in zip(sizes, p.degrees):
        if m <= 2 * d:
            raise ValueError(
                f"grid size {m} too small for degree {d}; need at least {next_pow2(2 * d + 1)}")
    check_budget(math.prod(sizes), f"grid {sizes}")
    return sizes


def synthesize(p: TrigPoly, sizes) -> GridSignal:
    """Sample f(theta_j) = sum_n f_hat(n) e^{2 pi i n . theta_j} on the grid.

    Requires M_i > 2 * degree_i per axis so that distinct support frequencies
    occupy distinct FFT bins (no aliasing), and a grid within the budget;
    the samples come from _sample on the table's arrays, and samples that
    overflow raise ValueError.
    """
    sizes = _checked_sizes(p, sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _sample(p.freqs, p.values, sizes)
    return GridSignal(samples)


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


def _abs_readings(blocks, npoints, terms):
    """Grid readings of |f| from sample blocks that cover the grid exactly
    once: for each (p, r) in terms, the mean of |f|**p log(1 + |f|)**r, or
    max |f| for p = inf.

    The one per-block kernel of lp_norm, orlicz_functional and the blocked
    readings (_grid_readings).  One block that is the whole grid gives the
    bits of np.mean and max.  A reading that is not finite raises
    ValueError, as synthesize does for samples: overflow in the samples or
    the terms reaches it.
    """
    out = [0.0] * len(terms)
    log_terms = sum(1 for p, r in terms if r and p != math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            a = np.abs(block)
            log = np.log1p(a) if log_terms else None
            left = log_terms
            for i, (p, r) in enumerate(terms):
                if p == math.inf:
                    out[i] = np.maximum(out[i], a.max())
                    continue
                t = a if p == 1 else a ** p
                if r:
                    left -= 1
                    u = log.copy() if left else log    # the last log term spends log
                    u **= r
                    u *= t
                    t = u
                out[i] += np.sum(t)
    out = [float(v if p == math.inf else v / npoints) for v, (p, _) in zip(out, terms)]
    if not all(map(math.isfinite, out)):
        raise ValueError("grid values and their readings must be finite")
    return out


def _grid_readings(p: TrigPoly, M, terms):
    """_abs_readings of a 1-D table's samples on M points, with the checks
    of synthesize, reduced block by block: no array of M samples is made."""
    if p.dim != 1:
        raise ValueError("blocked grid readings are defined for dim 1")
    (M,) = _checked_sizes(p, M)
    return _abs_readings(_sample_blocks(p.freqs, p.values, M), M, terms)


def _orlicz_term(r):
    """The (p, r) term of _abs_readings for the Orlicz functional of exponent r."""
    r = float(r)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"Orlicz exponent must be finite and >= 0, got {r}")
    return (1, r)


def lp_norm(s: GridSignal, p) -> float:
    """Rectangle-rule L^p norm on the grid; sup over the grid for p = inf.

    Exact for even integer p whenever every axis size exceeds (p/2) * span,
    the spectral span max - min of that axis (see grid_size); otherwise a
    quadrature approximation at the signal's declared grid.
    """
    if p != math.inf:
        p = float(p)
        if p < 1:
            raise ValueError("p must be >= 1 or inf")
    m = _abs_readings([s.values], s.npoints, [(p, 0)])[0]
    return m if p == math.inf else m ** (1.0 / p)


def orlicz_functional(s: GridSignal, r) -> float:
    """Mean of |f| * log(1 + |f|)**r over the grid (natural logarithm)."""
    return _abs_readings([s.values], s.npoints, [_orlicz_term(r)])[0]


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
