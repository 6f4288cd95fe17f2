"""Trigonometric polynomials on the torus and their norm functionals.

Coefficients are stored sparsely (integer frequency -> complex value, zero
entries elided) as arrays; the dict ``TrigPoly.coeffs`` is a view of them.
``synthesize``/``analyze`` move between the coefficient table and uniform
grid samples via the FFT; both are exact up to round-off whenever the grid
strictly oversamples the degree (M > 2 * degree per axis).  No other
module samples a table on a grid or reads one.  ``_sample`` samples one
table or a stack of tables by one scatter and one inverse FFT over the grid
axes, so a row of a stack has the bits of that table alone.
``_grid_readings`` is the one blocked reader of a 1-D table on a
power-of-two grid: ``_block_form`` states each block form once (one inverse
FFT, or, on grids of 2^16 points or more, cache-sized blocks by a pruned
four-step FFT for sparse tables and by output decimation for dense tables
of small span, a decimated block of 2^16 points or more by a four-step FFT
of its own; forms, thresholds and measured errors in its docstring), and
the reader reduces the blocks one by one through the per-block kernel
``_block_partials``, so the Orlicz means and the Ingham and Sidon sups build
no sample array.  On two or more CPUs it reads the split's column groups in
two runs, the second on a thread joined before the call returns, with the
bits of one run; the decimation and the whole grid are one group each.
``_abs_readings`` is the same reduction of a whole sample array, for
``lp_norm`` and ``orlicz_functional``.
``_dyadic_blocks`` is the one Littlewood-Paley block loop, for the torus
and the real line alike (``realline`` reads its blocks off the FFT of a
signal's samples).
"""

import functools
import math
import os
import threading
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


def check_seed(seed):
    """Raise ValueError, naming --seed, unless seed is an integer >= 0: the
    one rule for the seeds of default_rng([seed, t]) and PCG64([seed, t])."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed!r}")


def _check_keys(keys, dim):
    """Raise ValueError naming the first key that is not a frequency of
    arity dim, or that does not fit in int64."""
    shape, expect = ((), "an integer") if dim == 1 else ((dim,), f"a tuple of {dim} integers")
    for n in keys:
        parts = np.asarray(n, dtype=object)     # each component as given
        if parts.shape != shape or not all(isinstance(v, (int, np.integer)) for v in parts.flat):
            raise ValueError(f"frequency {n!r} is not {expect}")
        if not all(-2 ** 63 <= v < 2 ** 63 for v in parts.flat):
            raise ValueError(f"frequencies do not fit in int64: {n!r}")


def _int_keys(keys, dim):
    """The one rule for integer frequencies: keys, a list of frequencies of
    arity dim (ints for dim 1, tuples of dim ints otherwise) or an array of
    them, as an int64 array, (n,) for dim 1 and (n, dim) otherwise.

    An int64 array comes back uncopied.  A key that is not an integer (a
    tuple of dim integers) raises ValueError naming it, and so does one
    past int64: nothing is truncated or wrapped (_check_keys)."""
    shape = () if dim == 1 else (dim,)
    try:
        freqs = np.asarray(keys)
    except ValueError:          # keys of mixed arity
        freqs = None
    if freqs is None or len(freqs) and (
            freqs.shape[1:] != shape or freqs.dtype.kind not in "iu"
            or freqs.dtype.kind == "u" and freqs.max() > np.iinfo(np.int64).max):
        _check_keys(keys.tolist() if isinstance(keys, np.ndarray) else keys, dim)
        freqs = np.array(keys, dtype=object)    # ints of kinds numpy promotes to float64
    return freqs.astype(np.int64, copy=False).reshape((len(freqs),) + shape)


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
        self._set_table(list(coeffs), np.array(list(coeffs.values()), dtype=np.complex128))

    @classmethod
    def from_arrays(cls, dim, freqs, values):
        """The table {freqs[i]: values[i]} without building that dict first:
        freqs holds the keys as an array, (n,) for dim 1 and (n, dim)
        otherwise, and is validated as the keys of a dict are; a frequency
        may repeat only with zero coefficients.  The arrays may become the
        table's own, uncopied (see _set_table): do not write to them after."""
        p = cls.__new__(cls)
        object.__setattr__(p, "dim", dim)
        p._set_table(freqs, np.asarray(values, dtype=np.complex128))
        return p

    def _key(self, row):
        return int(row[0]) if self.dim == 1 else tuple(row.tolist())

    def _set_table(self, freqs, values):
        """Validate the keys freqs (by _int_keys) and the coefficients, then
        store the table, zero coefficients dropped, as freqs/values.

        No table-sized copy is made on the way: int64 freqs and complex128
        values with no zero coefficient are stored as given, and so belong
        to the table from then on; a repeated frequency is found on one
        sorted copy of the frequencies (np.sort for dim 1, a row gather in
        lexicographic order otherwise)."""
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        freqs = _int_keys(freqs, self.dim)
        n = len(freqs)
        if values.shape != (n,):
            raise ValueError(f"{values.size} coefficients for {n} frequencies")
        freqs = freqs.reshape(n, self.dim)
        if not np.isfinite(values).all():
            first = np.argmin(np.isfinite(values))
            raise ValueError(f"non-finite coefficient at {self._key(freqs[first])!r}")
        keep = values != 0
        if not keep.all():
            freqs, values = freqs[keep], values[keep]
        ordered = np.sort(freqs, axis=0) if self.dim == 1 else freqs[_lex_order(freqs)]
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
        return tuple(np.abs(self.freqs).max(axis=0, initial=0).tolist())

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


# When and how a 1-D grid is sampled in blocks (see _block_form).
_SPLIT_MIN_POINTS = 1 << 16
_SPLIT_ROWS = 4096
_SPLIT_COLUMNS = 16                # 4096 x 16 points, 1 MB, per split block
_DECIMATE_MIN_BLOCKS = 4
_DECIMATE_MAX_POINTS = 1 << 19     # 8 MB per decimated block


def _sizes_tuple(sizes, dim):
    if isinstance(sizes, int):
        return (sizes,) * dim
    return tuple(int(m) for m in sizes)


def _block_form(n, values, M):
    """The block form of _grid_readings for the table sum_n values[n]
    e^{2 pi i n j / M}, j < M, on M points, a power of two: (groups, shape,
    sample).

    sample(lo, hi, X) yields the blocks of the column groups lo .. hi - 1 in
    X, a complex buffer of the given shape; a block is X.T, overwritten by
    the next one.  The blocks of all groups cover the grid exactly once, and
    a block read row-major lists its samples in grid order: the whole grid
    is one block, the split's blocks are its column groups of the grid read
    as a row-major array of R rows, side by side in the order they come, and
    the decimation's block r holds the samples j = D q + r, q < L.  A
    frequency n lands in its bin modulo every size, and coinciding bins add.
    Only the split has more than one group.  Each group is read once: the
    decimation advances its twiddles as it goes.

    Below M = _SPLIT_MIN_POINTS, and for tables that neither form below
    takes, the one block is the whole grid: the table scattered into M bins
    and one unnormalised inverse FFT.  On larger grids:

    * Sparse tables, S <= R / 4 terms with R = _SPLIT_ROWS, take the split
      (a pruned four-step FFT): with j = a + P b, P = M / R,

          f(j / M) = sum_{s < R} e^{2 pi i s b / R} X[s, a],
          X[s, a] = sum_{n = s mod R} values[n] e^{2 pi i n a / M},

      so S x P exact twiddles (n a reduced mod M in int64) fill X, and
      inverse FFTs of R points down its columns give f; each group is
      _SPLIT_COLUMNS columns of X (1 MB), transformed in place (``out=``,
      numpy >= 2.0; a fresh result per block costs more).  That costs
      S P <= M / 4 exponentials and cache-sized FFTs in place of one
      M-point FFT out of cache; at S = R / 2 the exponentials already cost
      more than the FFT saves (measured for M = 2^16 .. 2^20).
    * Other tables whose span max n - min n is below L = M / D take output
      decimation, with D the largest power of two such that L >= R, if
      D >= _DECIMATE_MIN_BLOCKS and L <= _DECIMATE_MAX_POINTS.  Block r
      holds the samples j = D q + r, q < L:

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
      A block of L >= _SPLIT_COLUMNS R points (the Ingham tails k = 16, 17
      and V_{2^14}) is itself read by a four-step FFT in X, of shape
      (C, R) with C = L / R: with q = c + C s,

          f((D q + r) / M) = sum_{t < R} e^{2 pi i t s / R} e^{2 pi i c t / L}
                             sum_{m < C} T[m R + t] e^{2 pi i m c / C},

      C-point FFTs down the columns of T viewed as (C, R) into X, the
      exact twiddles e^{2 pi i c t / L}, made once per reading, and R-point
      FFTs along the rows of X in place; the block X.T lists q in order.
      One FFT of 2^17 points took 3.6-3.8 ms, out of cache, and the
      four-step 1.7 ms (medians of 40, 2 cores); the Ingham tail of 2^17
      terms went from 140-190 ms to 90-120 ms, and the peak RSS of the
      grid benchmark fell by about 1 MB.  Smaller blocks take one FFT of L
      points and keep their bits.

    The decimation and the whole grid are one group each: the recurrence
    T <- T w is sequential, and a prototype that read the Ingham tail of
    2^17 terms in two runs raised the grid benchmark's peak RSS from 58.7
    to 70.3 MB.

    On 2 cores the Orlicz mean of a criterion-4 table (about 50 terms) on
    2^20 points takes about 9 ms in two runs, 16 ms in one and 67 ms from
    one plain FFT (medians of 48 readings of 8 tables), and the Ingham tail of
    2^17 terms on 2^22 points samples in about 100 ms instead of 290 ms.
    The split's samples differ
    from the plain FFT's by at most 5.4e-16 of max|f| on 100 criterion-4
    tables; the recurrence's by at most 1.5e-15 of max|f| on the Ingham
    tails (k = 11 .. 17) and 4.5e-16 on V_{2^N} (N = 12 .. 16), and their
    sups and Orlicz means by at most 7.4e-16 relative.  The four-step's
    blocks differ from one L-point FFT of the same T by at most 8.1e-16 of
    their max|f|, and from one of exact twiddles by at most 1.4e-15 (Ingham
    tails k = 16, 17 and V_{2^14}); it moved the sup of the Ingham tail
    k = 17 by 1.3e-16 relative and that of k = 16 not at all.
    """
    if M >= _SPLIT_MIN_POINTS and len(values) <= _SPLIT_ROWS // 4:
        n = n % M
        rows = n % _SPLIT_ROWS

        def split(lo, hi, X):
            for c0 in range(lo * _SPLIT_COLUMNS, hi * _SPLIT_COLUMNS, _SPLIT_COLUMNS):
                X.fill(0)
                a = np.arange(c0, c0 + _SPLIT_COLUMNS)
                np.add.at(X.T, rows,
                          np.exp((2j * np.pi / M) * (n[:, None] * a % M)) * values[:, None])
                yield np.fft.ifft(X, norm="forward", out=X).T
        return M // (_SPLIT_ROWS * _SPLIT_COLUMNS), (_SPLIT_COLUMNS, _SPLIT_ROWS), split
    D = 1
    if M >= _SPLIT_MIN_POINTS and len(n):
        span = int(n.max()) - int(n.min())
        while M // (2 * D) >= _SPLIT_ROWS and span < M // (2 * D):
            D *= 2
    if D < _DECIMATE_MIN_BLOCKS or M // D > _DECIMATE_MAX_POINTS:
        def whole(lo, hi, X):
            X.fill(0)
            np.add.at(X[0], n % M, values)
            np.fft.ifft(X[0], norm="forward", out=X[0])
            yield X.T
        return 1, (1, M), whole
    # T and W are made here, before the reader makes its buffers: made in
    # sample, after them, their temporaries took fresh pages and the Ingham
    # tail of 2^17 terms peaked 2 MB higher
    L = M // D
    bins = n % L
    T = np.empty(L, dtype=np.complex128)
    T.real = np.bincount(bins, values.real, L)
    T.imag = np.bincount(bins, values.imag, L)
    W = np.ones(L, dtype=np.complex128)
    W[bins] = np.exp((2j * np.pi / M) * (n % M))
    C = L // _SPLIT_ROWS if L >= _SPLIT_COLUMNS * _SPLIT_ROWS else 1
    if C > 1:
        twiddles = np.exp((2j * np.pi / L) * (np.arange(C)[:, None] * np.arange(_SPLIT_ROWS)))

    def decimation(lo, hi, X):
        for _ in range(D):
            if C == 1:
                np.fft.ifft(T, norm="forward", out=X[0])
            else:
                np.fft.ifft(T.reshape(X.shape), axis=0, norm="forward", out=X)
                X *= twiddles
                np.fft.ifft(X, norm="forward", out=X)
            yield X.T
            np.multiply(T, W, out=T)
    return 1, (C, L // C), decimation


def _sample(freqs, values, sizes):
    """Samples of sum_n values[..., n] e^{2 pi i n . theta_j} on the grid
    `sizes`, for one table, values (n,), or a stack of tables, (rows, n), on
    the (n, dim) int frequencies freqs: shape values.shape[:-1] + sizes.

    The one scatter of a coefficient table into a torus grid: frequencies
    land in their bins modulo the sizes, where coinciding bins add.  Every
    table and stack takes one scatter and one inverse FFT over the grid
    axes, which give each row of a stack the bits of that row alone.
    """
    rows = values.shape[:-1]
    bins = np.ravel_multi_index(tuple((freqs % sizes).T), sizes)
    spec = np.zeros((math.prod(rows), math.prod(sizes)), dtype=np.complex128)
    # one flat scatter of the nonzero entries: a bin starts at +0 and never
    # holds -0, so zeros add nothing, and the Sidon characters, an identity
    # stack, scatter n entries, not n^2
    flat = (np.arange(0, spec.size, spec.shape[1])[:, None] + bins).reshape(-1)
    values = values.reshape(-1)
    keep = values != 0
    np.add.at(spec.reshape(-1), flat[keep], values[keep])
    return np.fft.ifftn(spec.reshape(rows + sizes), norm="forward",
                        axes=tuple(range(len(rows), len(rows) + len(sizes))))


def _checked_sizes(degrees, sizes):
    """The sizes tuple for a table of per-axis degrees, after the checks of
    synthesize."""
    sizes = _sizes_tuple(sizes, len(degrees))
    if len(sizes) != len(degrees):
        raise ValueError("sizes arity does not match polynomial dimension")
    for m, d in zip(sizes, degrees):
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
    sizes = _checked_sizes(p.degrees, sizes)
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


def _block_partials(block, terms, a=None, log=None):
    """The per-block kernel of the grid readings: for each (p, r) in terms,
    the sum over the block of |f|**p log(1 + |f|)**r, or max |f| for
    p = inf.  |f| and log(1 + |f|) go to fresh arrays, or into a and log,
    views of the block's shape and memory order, which give the same bits.
    Call it under np.errstate(over="ignore", invalid="ignore")."""
    a = np.abs(block, out=a)
    left = sum(1 for p, r in terms if r and p != math.inf)
    log = np.log1p(a, out=log) if left else None
    out = []
    for p, r in terms:
        if p == math.inf:
            out.append(a.max())
            continue
        t = a if p == 1 else a ** p
        if r:
            left -= 1
            u = log.copy() if left else log    # the last log term spends log
            u **= r
            u *= t
            t = u
        out.append(np.sum(t))
    return out


def _combined(partials, npoints, terms):
    """The readings of a grid of npoints points from the _block_partials of
    each block, added (or maxed for p = inf) in block order from 0.0."""
    out = [0.0] * len(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        for parts in partials:
            for i, ((p, _), v) in enumerate(zip(terms, parts)):
                out[i] = np.maximum(out[i], v) if p == math.inf else out[i] + v
    out = [float(v if p == math.inf else v / npoints) for v, (p, _) in zip(out, terms)]
    if not all(map(math.isfinite, out)):
        raise ValueError("grid values and their readings must be finite")
    return out


def _abs_readings(values, terms):
    """Readings of |f| over the whole sample array values: for each (p, r)
    in terms, the mean of |f|**p log(1 + |f|)**r, or max |f| for p = inf,
    with the bits of np.mean and max.  The one reduction of lp_norm and
    orlicz_functional.  A reading that is not finite raises ValueError, as
    synthesize does for samples: overflow in the samples or the terms
    reaches it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _combined([_block_partials(values, terms)], values.size, terms)


def _grid_readings(freqs, values, M, terms):
    """The readings of _abs_readings of the samples of a 1-D table, (n, 1)
    int freqs and its values, on M points, a power of two, with the checks
    of synthesize, reduced block by block: no array of M samples is made.

    The blocks of _block_form are read in one run, or, for two or more
    groups on two or more CPUs, in two contiguous runs of groups: the first
    in the caller and the second on a thread started and joined here.  Each
    run samples and reads its blocks in its own buffers of samples, |f| and
    log(1 + |f|), made here in the calling thread (2 MiB a run for the
    split: made in the worker, they raised the benchmark's peak RSS by
    4 MB).  The per-block partials are combined in block order, so two runs
    give the bits of one.  An exception in a run is raised here after the
    join.
    """
    if freqs.shape[1:] != (1,):
        raise ValueError("blocked grid readings are defined for dim 1")
    (M,) = _checked_sizes(np.abs(freqs).max(axis=0, initial=0).tolist(), M)
    if M & (M - 1):
        raise ValueError(f"blocked grid readings need a power-of-two grid, got {M} points")
    groups, shape, sample = _block_form(freqs[:, 0], values, M)
    runs = 1
    if groups >= 2:
        # the CPUs this process may run on, or all of them where the OS
        # reports no affinity
        cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                else range(os.cpu_count() or 1))
        runs = 2 if len(cpus) >= 2 else 1
    logs = any(r and p != math.inf for p, r in terms)
    buffers = [(np.empty(shape, dtype=np.complex128), np.empty(shape),
                np.empty(shape) if logs else None) for _ in range(runs)]
    parts, errors = [None] * runs, []

    def read(i):
        X, A, L = buffers[i]
        try:
            # numpy's errstate does not carry into a new thread
            with np.errstate(over="ignore", invalid="ignore"):
                parts[i] = [_block_partials(block, terms, A.T, None if L is None else L.T)
                            for block in sample(groups * i // runs, groups * (i + 1) // runs, X)]
        except BaseException as e:
            errors.append(e)

    workers = [threading.Thread(target=read, args=(i,)) for i in range(1, runs)]
    for t in workers:
        t.start()
    try:
        read(0)
    finally:
        for t in workers:
            t.join()
    if errors:
        raise errors[0]
    return _combined((block for run in parts for block in run), M, terms)


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
    m = _abs_readings(s.values, [(p, 0)])[0]
    return m if p == math.inf else m ** (1.0 / p)


def orlicz_functional(s: GridSignal, r) -> float:
    """Mean of |f| * log(1 + |f|)**r over the grid (natural logarithm)."""
    return _abs_readings(s.values, [_orlicz_term(r)])[0]


# _CHUNK_BYTES is glibc's default mmap and trim threshold: temporaries under
# it come and go inside the heap, without page faults, and a block of work
# whose temporaries exceed it returns their pages at every free.  A long sum
# (_chunked_sum) makes its terms _SUM_CHUNK at a time, budgeted at 64 bytes
# of temporaries a term (its callers take at most 40, measured with
# tracemalloc); realline sizes its NUFFT passes from it too.
_CHUNK_BYTES = 128 * 1024
_SUM_CHUNK = _CHUNK_BYTES // 64


def _chunked_sum(out, fill):
    """np.sum of a run of len(out) float64 terms, made in the buffer out
    in chunks of _SUM_CHUNK: fill(lo, chunk) writes the terms lo ..
    lo + len(chunk) - 1 into chunk, the view out[lo:lo + len(chunk)].

    The array summed holds the terms a whole-run expression would make, so
    the sum, in numpy's pairwise order, has its bits; the run holds out and
    one chunk's temporaries, not several arrays of its length.  out may be
    a prefix view of a longer buffer, reused from one run to the next.
    """
    for lo in range(0, len(out), _SUM_CHUNK):
        fill(lo, out[lo:lo + _SUM_CHUNK])
    return float(np.sum(out))


def weighted_l2(p: TrigPoly, m) -> float:
    """(sum over supp(p) of |m(n) f_hat(n)|**2)**(1/2), dim 1 only.

    ``m`` is anything exposing values_at(ns) (see multipliers.MultiplierSeq).
    The squares are summed by _chunked_sum, with the bits of
    np.sum(np.abs(m.values_at(n) * f_hat) ** 2) over the whole table, and
    hold one float per term of the table.
    """
    if p.dim != 1:
        raise ValueError("weighted_l2 is defined for dim 1")
    n, values = p.freqs[:, 0], p.values

    def fill(lo, out):
        hi = lo + len(out)
        np.abs(m.values_at(n[lo:hi]) * values[lo:hi], out=out)
        out **= 2

    return math.sqrt(_chunked_sum(np.empty(len(values)), fill))


def _dyadic_blocks(spec, xi, ks, norm):
    """The dyadic blocks Delta_k = ifft(eta(2**-k xi) spec, norm=norm) of
    the 1-D spectrum spec on the frequencies xi, for each k in ks, in order.

    A k whose window 2**k < |xi| < 3 * 2**k misses the |xi| range of the
    nonzero bins (window.blocks_meeting) is skipped before any array work:
    its block is zero, and eta_scaled is not evaluated where 2**k leaves the
    float range.  A bin at xi = 0 never meets any block.  norm is "forward"
    on the torus, where spec is the coefficient table, and "backward" on the
    real line, where it is the FFT of the samples.
    """
    mags = np.abs(xi[(spec != 0) & (xi != 0)])
    meeting = set(window.blocks_meeting(mags.min(), mags.max())) if mags.size else ()
    for k in ks:
        if k in meeting:
            yield np.fft.ifft(window.eta_scaled(xi, k) * spec, norm=norm)


def _square_function(blocks, size):
    """The samples of (sum_k |Delta_k|**2)**(1/2) over dyadic blocks of
    `size` samples each, summed in the order they come."""
    acc = np.zeros(size)
    for block in blocks:
        acc += np.abs(block) ** 2
    return np.sqrt(acc)


def periodic_square_function_norm(p: TrigPoly) -> float:
    """L1 norm of (sum_k |Delta_k f|**2)**(1/2) on a shared grid of
    grid_size(degree, SUP_L1_FACTOR) points, within the budget.

    The blocks Delta_k carry coefficients eta(2**-k n) f_hat(n) and come
    from one scatter of the table (_dyadic_blocks); a nonzero mean
    coefficient f_hat(0) never enters any block.
    """
    if p.dim != 1:
        raise ValueError("the periodic square function is defined for dim 1")
    (grid,) = _checked_sizes(p.degrees, grid_size(p.degree, SUP_L1_FACTOR))
    spec = np.zeros(grid, dtype=np.complex128)
    np.add.at(spec, p.freqs[:, 0] % grid, p.values)
    # the bins hold the frequencies 1 <= |n| < grid / 2 of the blocks -1 .. log2(grid) - 2
    xi = np.fft.fftfreq(grid, d=1.0 / grid)
    blocks = _dyadic_blocks(spec, xi, range(-1, grid.bit_length() - 2), "forward")
    return float(np.mean(_square_function(blocks, grid)))
