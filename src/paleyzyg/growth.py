"""Moment-growth probes, ensemble maximisation, and the 2D Gram-matrix algebra.

Suprema over all polynomials on a spectrum are approximated from below by
ensemble maxima, so every reported constant or exponent is a lower-bound
probe with one-sided semantics.  L^p means use even p only: the rectangle
rule is exact on a power-of-two grid past (p/2) * span per axis, the span
being max - min of the spectrum on that axis (torus.grid_size).  Every
draw is a whole ensemble, an array pair (freqs, V): the spectrum's one
sorted frequency array and one row of coefficients per member, zeros kept.
A moment probe draws each ensemble once and reads its rows together: rows
with the same span are sampled together (torus._sample), in chunks of a
fixed number of points, on the exact grid of the largest p, and every
smaller p reads its own exact grid as a strided view of the big one.  The
p/2-th powers come from one ladder of squares of the big grid per chunk.
Sidon sups are read by torus as well; the Sidon phase ascent reads its
candidates' squared moduli off one real product per step
(_kernels.min_sup_phase).

The 'phase-ascent' draw of a moment probe is the flat (all-ones)
polynomial on the frequency set, and it attains the supremum over
unimodular coefficients rather than bounding it from below: for p = 2q,
||f||_p^p is a sum over additive 2q-tuples of products of coefficients, so
with unimodular coefficients the triangle inequality bounds it by the
all-ones value, while ||f||_2^2 = |Lambda| is fixed.

Structured spectra keep their generators: a k-fold signed sumset draws
coefficients as products of per-term signs or phases (the order-k chaos
supported on the sumset), over the index tuples and sums of
spectra._sumset, the one source of the sumset (sumset_bonami reads it
too), and a tensor product draws one stack per axis: member t is the outer
product of row t on every axis, a rank-one table whose p-th power means
factor exactly across axes.  The fitted growth exponent is the
least-squares slope of the squared best ratios (energy ratios) against p,
by growth_exponent for every kind of spectrum.  The members of a random
ensemble, times the width of the stack they feed, are checked against the
budget before any is drawn.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .extremals import _ols_slope
from .spectra import FrequencySet, LacunarySeq, _sumset, product_set
# next_pow2 is unused here but stays bound: perfbench/tests checks that a
# traced run rebinds a name one module imports from another.
from .torus import (SUP_L1_FACTOR, TrigPoly, _grid_readings, _int_keys, _sample, check_budget,
                    check_seed, grid_size, next_pow2)


@dataclass(frozen=True)
class Ensemble:
    """A reproducible family of coefficient draws on a spectrum.

    kinds: 'random-signs' (+-1 coefficients), 'steinhaus' (unimodular random
    phases), 'flat' (all ones, one deterministic member), 'phase-ascent'
    (the best unimodular member for the probe target, deterministic).  For
    moment ratios that is the all-ones polynomial on the frequency set: by
    the triangle inequality no unimodular choice beats it.  On a sumset it
    differs from 'flat', whose draw carries collision multiplicities.  In
    sidon_lower_bound it is a coordinate ascent minimising the sup norm.
    A random kind has `trials` members, and member t draws its factors from
    default_rng([seed, t]); a deterministic kind has one member.
    """

    kind: str
    seed: int = 0
    trials: int = 16

    KINDS = ("random-signs", "steinhaus", "flat", "phase-ascent")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_seed(self.seed)


_SIGNS = np.array([-1.0 + 0j, 1.0 + 0j])


def _draw_factors(ensemble, size, width=None):
    """The per-term factors of every member, (members, size); one all-ones
    row for a deterministic kind.  Row t is what default_rng([seed, t])
    draws, read off the raw words of its PCG64: a sign,
    _SIGNS[rng.integers(0, 2)] (the call rng.choice(_SIGNS) makes), is bit
    31 of the next 32-bit half word, low half first, since Lemire's draw on
    two values never rejects; a phase's uniform, rng.random(), is the top 53
    bits of the next word over 2^53.  The members times the width of the
    stack they feed (default size) are checked against the budget before
    any is drawn."""
    if ensemble.kind not in ("random-signs", "steinhaus"):
        return np.ones((1, size), dtype=np.complex128)
    width = size if width is None else width
    check_budget(ensemble.trials * width, f"{ensemble.trials} members of {width} terms")
    signs = ensemble.kind == "random-signs"
    count = (size + 1) // 2 if signs else size
    words = np.stack([np.random.PCG64([ensemble.seed, t]).random_raw(count)
                      for t in range(ensemble.trials)])
    if signs:
        bits = np.stack([(words >> 31) & 1, words >> 63], axis=2)
        return _SIGNS[bits.reshape(ensemble.trials, -1)[:, :size]]
    return np.exp(2j * np.pi * ((words >> 11) * 2.0 ** -53))


class PlainSpectrum:
    """A bare frequency set; draws are independent per frequency."""

    def __init__(self, freqs: FrequencySet):
        self.freqs = freqs
        self._elems = np.array(freqs.sorted_elements(), dtype=np.int64)

    @property
    def dim(self):
        return self.freqs.dim

    def frequency_set(self):
        return self.freqs

    def draw(self, ensemble: Ensemble):
        """(freqs, V): the sorted frequencies and one row of coefficients per member."""
        return self._elems, _draw_factors(ensemble, len(self._elems))

    def describe(self):
        return f"set({len(self.freqs)} freqs, dim {self.dim})"


class SumsetSpectrum:
    """The k-fold signed sumset of a lacunary base, carrying its generators.

    Draws assign each strictly decreasing index tuple the product of its
    per-term factors (signs or phases); the 2**k sign patterns of a tuple
    share that amplitude, and colliding sums accumulate, tuple by tuple and
    pattern by pattern.  A sum whose amplitudes cancel keeps a zero value.
    """

    def __init__(self, base: LacunarySeq, k: int, cap: int = 4096):
        self.base = base
        self.k = int(k)
        self.used_terms, self._combos, sums = _sumset(base, self.k, cap)
        self._freqs, self._bins = np.unique(sums.ravel(), return_inverse=True)
        self._fset = FrequencySet(1, frozenset(self._freqs.tolist()))

    @property
    def dim(self):
        return 1

    def frequency_set(self):
        return self._fset

    def draw(self, ensemble: Ensemble):
        """(freqs, V): the sorted sumset and one row of coefficients per member."""
        n = len(self._freqs)
        if ensemble.kind == "phase-ascent":
            return self._freqs, np.ones((1, n), dtype=np.complex128)
        eps = _draw_factors(ensemble, self.used_terms, self._bins.size)
        amps = np.repeat(eps[:, self._combos].prod(axis=2), 2 ** self.k, axis=1)
        # row t accumulates into bins t * n .. t * n + n - 1
        bins = (self._bins + n * np.arange(len(eps))[:, None]).ravel()
        V = np.empty((len(eps), n), dtype=np.complex128)
        V.real = np.bincount(bins, amps.real.ravel(), V.size).reshape(V.shape)
        V.imag = np.bincount(bins, amps.imag.ravel(), V.size).reshape(V.shape)
        return self._freqs, V

    def describe(self):
        return f"sumset(k={self.k}, base {self.used_terms} terms, {len(self._fset)} freqs)"


class TensorSpectrum:
    """Cartesian product of 1D spectra; draws are rank-one coefficient tables."""

    def __init__(self, factors):
        for f in factors:
            if f.dim != 1:
                raise ValueError("tensor factors must be 1D")
        self.factors = list(factors)

    @property
    def dim(self):
        return len(self.factors)

    def frequency_set(self):
        return product_set([f.frequency_set() for f in self.factors])

    def draw_factors(self, ensemble: Ensemble):
        """The per-axis draws (freqs, V), axis a with seed + 7919 (a + 1):
        member t is the outer product of row t on every axis."""
        return [f.draw(replace(ensemble, seed=ensemble.seed + 7919 * (a + 1)))
                for a, f in enumerate(self.factors)]

    def describe(self):
        return "tensor(" + " x ".join(f.describe() for f in self.factors) + ")"


def as_spectrum(obj):
    if isinstance(obj, (PlainSpectrum, SumsetSpectrum, TensorSpectrum)):
        return obj
    if isinstance(obj, FrequencySet):
        return PlainSpectrum(obj)
    if isinstance(obj, LacunarySeq):
        return PlainSpectrum(FrequencySet(1, frozenset(obj.terms)))
    raise TypeError(f"cannot interpret {obj!r} as a spectrum")


def _check_even_p(p):
    if int(p) != p or p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2 (exact quadrature regime)")
    return int(p)


def _probe_args(spectrum, ensembles, p_grid=()):
    """The arguments of a probe as it reads them: the spectrum (as_spectrum),
    the ensembles as a tuple (one Ensemble or a sequence) and the p grid as
    a tuple of even ints."""
    ensembles = (ensembles,) if isinstance(ensembles, Ensemble) else tuple(ensembles)
    return as_spectrum(spectrum), ensembles, tuple(_check_even_p(p) for p in p_grid)


# Points per batched synthesis: the rows of one grid are transformed this
# many points at a time (at least one row), which bounds the peak memory of
# a large ensemble.
_CHUNK_POINTS = 1 << 16


def _power_means(m2, qs, views, axes):
    """The mean of m2**q over m2[view] for each q and view, destroying m2.

    A power of two q = 2^k reads its view of rung k of a ladder that squares
    m2 in place; any other q is multiplied out by its binary digits on a copy
    of its view, in one buffer of m2's size, before the ladder starts.
    """
    means = {}
    digits = {q: v for q, v in zip(qs, views) if q & (q - 1)}
    if digits:
        buf = np.empty(m2.size)
        for q, view in digits.items():
            base = m2[view]
            acc = buf[:base.size].reshape(base.shape)
            np.copyto(acc, base)
            for digit in bin(q)[3:]:
                acc *= acc
                if digit == "1":
                    acc *= base
            means[q] = np.mean(acc, axis=axes).tolist()
    ladder = {q: v for q, v in zip(qs, views) if not q & (q - 1)}
    rung = 1
    while ladder:
        if rung in ladder:
            means[rung] = np.mean(m2[ladder.pop(rung)], axis=axes).tolist()
        if ladder:
            m2 *= m2
            rung *= 2
    return [means[q] for q in qs]


def _moment_ratios(freqs, V, p_grid):
    """||f||_p / ||f||_2 for every row f of V and every p in p_grid, as a
    (rows, len(p_grid)) array.

    freqs holds the frequencies shared by the rows, (n,) in 1D and (n, dim)
    otherwise, and V the coefficients, (rows, n).  A row's span comes from
    its nonzero entries, and rows with the same span are read together:
    synthesised on the exact grid of the largest p, in chunks of at most
    _CHUNK_POINTS points, while each p reads its own exact grid as a
    strided view (both sizes are powers of two per axis).  The ratio does
    not change when |f|^2 is scaled, so each row is divided by its max
    first: the p/2-th powers then lie in [0, 1] and the largest is 1, which
    keeps them from overflowing or underflowing as a whole at any p.  The
    p/2-th powers come from one ladder of squares per chunk (_power_means).
    """
    V = np.asarray(V, dtype=np.complex128)
    freqs = np.asarray(freqs, dtype=np.int64).reshape(V.shape[1], -1)
    nonzero = V != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("empty coefficient table")
    spans = np.stack([np.where(nonzero, f, f.min()).max(axis=1)
                      - np.where(nonzero, f, f.max()).min(axis=1) for f in freqs.T], axis=1)
    spans, group = np.unique(spans, axis=0, return_inverse=True)
    ratios = np.empty((len(V), len(p_grid)))
    qs = [p // 2 for p in p_grid]
    for j, span in enumerate(spans.tolist()):
        rows = np.flatnonzero(group == j)
        grids = [tuple(grid_size(s, q) for s in span) for q in qs]
        big = grids[qs.index(max(qs))]
        check_budget(math.prod(big), f"exact grid {big}")
        views = [(slice(None), *(slice(None, None, b // g) for b, g in zip(big, grid)))
                 for grid in grids]
        step = max(1, _CHUNK_POINTS // math.prod(big))
        for c in range(0, len(rows), step):
            chunk = rows[c:c + step]
            x = _sample(freqs, V[chunk], big)
            m2 = x.real ** 2
            m2 += x.imag ** 2
            del x               # before the ladder's buffer is taken
            axes = tuple(range(1, m2.ndim))
            m2 /= m2.max(axis=axes, keepdims=True)
            l2 = [np.mean(m2[view], axis=axes).tolist() for view in views]
            lp = _power_means(m2, qs, views, axes)
            for i, p in enumerate(p_grid):
                ratios[chunk, i] = [a ** (1.0 / p) / math.sqrt(b) for a, b in zip(lp[i], l2[i])]
            del m2              # before the next chunk is sampled
    return ratios


def even_p_ratio(coeffs, p) -> float:
    """||f||_p / ||f||_2 for a 1D or nD coefficient table, exact rectangle
    rule.  The keys are frequencies of the first key's arity, checked by
    torus._int_keys."""
    if not coeffs:
        raise ValueError("empty coefficient table")
    keys = list(coeffs)
    freqs = _int_keys(keys, np.size(keys[0]))
    values = np.array([list(coeffs.values())], dtype=np.complex128)
    return float(_moment_ratios(freqs, values, (_check_even_p(p),))[0, 0])


@dataclass(frozen=True)
class GrowthReport:
    descriptor: str
    p_grid: tuple
    ratios: tuple               # best ||f||_p / ||f||_2 per p
    alpha: float                # slope of log(ratio**2) against log(p)
    intercept: float
    degenerate: bool
    ensembles: tuple
    seed_info: str


def best_ratios(spectrum, p_grid, ensembles):
    """Best ||f||_p / ||f||_2 per p over every member of every ensemble.

    Each member is drawn once, and the members of an ensemble are read
    together at every p.  A tensor member is rank-one, and the nD
    rectangle-rule ratio of a product table is the product of its per-axis
    1D ratios, so tensors are probed per axis.
    """
    spectrum, ensembles, p_grid = _probe_args(spectrum, ensembles, p_grid)
    best = np.zeros(len(p_grid))
    for e in ensembles:
        if isinstance(spectrum, TensorSpectrum):
            ratios = math.prod(_moment_ratios(f, V, p_grid) for f, V in spectrum.draw_factors(e))
        else:
            ratios = _moment_ratios(*spectrum.draw(e), p_grid)
        best = np.maximum(best, ratios.max(axis=0))
    return tuple(float(r) for r in best)


def lambda_p_ratio(freqs, p, ensemble: Ensemble) -> float:
    """Best ||f||_p / ||f||_2 over the ensemble on a 1D spectrum."""
    if as_spectrum(freqs).dim != 1:
        raise ValueError("lambda_p_ratio is 1D; use tensor_growth for products")
    return best_ratios(freqs, (p,), ensemble)[0]


def growth_exponent(spectrum, p_grid, ensembles) -> GrowthReport:
    """Fit the growth exponent of the best ratios over a p grid.

    ``ensembles`` is one Ensemble or a sequence; the best ratio per p is the
    max over every member of every ensemble.
    """
    spectrum, ensembles, p_grid = _probe_args(spectrum, ensembles, p_grid)
    if len(set(p_grid)) < 3:
        raise ValueError(f"need at least 3 distinct p values for a slope fit, got {p_grid}")
    ratios = best_ratios(spectrum, p_grid, ensembles)
    degenerate = all(abs(r - 1.0) < 1e-9 for r in ratios)
    if degenerate:
        alpha, intercept = 0.0, 0.0
    else:
        # the energy ratio**2 has twice the log-log fit of the ratio
        alpha, intercept = (2.0 * v for v in _ols_slope(p_grid, ratios))
    return GrowthReport(
        descriptor=spectrum.describe(), p_grid=p_grid, ratios=ratios,
        alpha=alpha, intercept=intercept, degenerate=degenerate,
        ensembles=tuple((e.kind, e.seed, e.trials) for e in ensembles),
        seed_info=";".join(f"{e.kind}:{e.seed}" for e in ensembles))


def tensor_growth(factors, p_grid, ensembles) -> GrowthReport:
    """Growth exponent for a tensor-product spectrum (dims <= 3), probed per
    axis (see best_ratios; the identity is pinned against the full nD
    transform in the test suite)."""
    spectrum = TensorSpectrum([as_spectrum(f) for f in factors])
    if spectrum.dim > 3:
        raise ValueError("tensor probes support dims <= 3")
    return growth_exponent(spectrum, p_grid, ensembles)


@dataclass(frozen=True)
class EMatrix:
    """Gram matrix E[n, n'] = sum_m f_hat(m, n) conj(f_hat(m, n')) over the
    summed axis, indexed by the sorted kept-axis spectrum."""

    freqs: tuple
    matrix: np.ndarray

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)


def e_matrix(f: TrigPoly, axis=1) -> EMatrix:
    """Build the Gram matrix of a 2D polynomial along the kept axis."""
    if f.dim != 2:
        raise ValueError("e_matrix needs a 2D polynomial")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    kept, ki = np.unique(f.freqs[:, axis], return_inverse=True)
    summed, si = np.unique(f.freqs[:, 1 - axis], return_inverse=True)
    A = np.zeros((len(summed), len(kept)), dtype=np.complex128)
    A[si, ki] = f.values
    E = A.T @ np.conj(A)
    return EMatrix(freqs=tuple(kept.tolist()), matrix=E)


@dataclass(frozen=True)
class CauchySchwarzReport:
    frobenius_sq: float
    bound_sq: float
    equality_gap: float


def cauchy_schwarz_check(E: EMatrix, f: TrigPoly, rel_tol=1e-10) -> CauchySchwarzReport:
    """sum |E|^2 <= (sum |f_hat|^2)^2; a violation beyond tolerance raises."""
    frob = float(np.sum(np.abs(E.matrix) ** 2))
    total = float(np.sum(np.abs(f.values) ** 2))
    bound = total * total
    if frob > bound * (1.0 + rel_tol):
        raise AssertionError(
            f"Cauchy-Schwarz violated: {frob} > {bound} (this falsifies the algebra)")
    gap = (bound - frob) / bound if bound > 0 else 0.0
    return CauchySchwarzReport(frobenius_sq=frob, bound_sq=bound, equality_gap=gap)


def offdiagonal_split(E: EMatrix, order=None):
    """Split E into diagonal, upper (n < n'), and lower (n > n') parts with
    respect to an ordering of the kept-axis spectrum; the parts recombine
    entrywise."""
    n = len(E.freqs)
    if order is None:
        perm = np.arange(n)
    else:
        pos = {f: i for i, f in enumerate(E.freqs)}
        perm = np.array([pos[f] for f in order])
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of the kept-axis spectrum")
    M = E.matrix[np.ix_(perm, perm)]
    diag = np.diag(np.diag(M))
    upper = np.triu(M, 1)
    lower = np.tril(M, -1)
    return diag, upper, lower


def sidon_lower_bound(m, freqs, ensembles) -> float:
    """Best sum |m(n) f_hat(n)| / sup|f| over the ensemble (grid sup).

    For unimodular draws the numerator is fixed at sum |m|, so the
    phase-ascent member minimises the grid sup norm instead (three sweeps
    over 16 phases).  The result is a lower bound on the best
    weighted-coefficient-sum constant, up to the grid sup-norm defect.
    """
    spectrum, ensembles, _ = _probe_args(freqs, ensembles)
    if spectrum.dim != 1:
        raise ValueError("sidon_lower_bound is 1D")
    elems = spectrum.frequency_set().sorted_elements()
    if not elems:
        raise ValueError("empty spectrum")
    M = grid_size(max(abs(n) for n in elems), SUP_L1_FACTOR)
    check_budget(M * len(elems), f"character matrix {len(elems)} x {M}")
    freqs = np.array(elems, dtype=np.int64)[:, None]
    weights = np.abs(m.values_at(elems))
    best = 0.0
    for ens in ensembles:
        if ens.kind == "phase-ascent":
            chars = _sample(freqs, np.eye(len(elems)), (M,))
            coeffs = np.ones(len(elems), dtype=np.complex128)
            f = chars.sum(axis=0)
            sup = float(np.abs(f).max())
            phases = np.exp(2j * np.pi * np.arange(16) / 16)
            sq = np.empty((len(phases), M))     # the candidates' |.|^2, reused by every step
            for _ in range(3):
                for i in range(len(elems)):
                    base = f - coeffs[i] * chars[i]
                    b, s = _kernels.min_sup_phase(base, chars[i], phases, sq)
                    if s < sup:
                        sup = s
                        coeffs[i] = phases[b]
                        f = base + phases[b] * chars[i]
            best = max(best, float(weights.sum()) / sup)
        else:
            for cvec in spectrum.draw(ens)[1]:
                sup = _grid_readings(freqs, cvec, M, [(math.inf, 0)])[0]
                if sup > 0:
                    best = max(best, float(np.sum(weights * np.abs(cvec))) / sup)
    return best
