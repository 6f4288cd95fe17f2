"""Moment-growth probes, ensemble maximisation, and the 2D Gram-matrix algebra.

Suprema over all polynomials on a spectrum are approximated from below by
ensemble maxima, so every reported constant or exponent is a lower-bound
probe with one-sided semantics.  L^p means use even p only: the rectangle
rule is exact on a power-of-two grid past (p/2) * span per axis, the span
being max - min of the spectrum on that axis (torus.grid_size).  Every
draw is an array pair (freqs, values): the spectrum's one sorted frequency
array, shared by all members, and the member's coefficients, zeros kept.  A
moment probe draws each member once and reads the members of an ensemble
as the rows of one array: rows with the same grids are sampled together
(torus._sample), in chunks of a fixed number of points, on the exact grid
of the largest p, and every smaller p reads its own exact grid as a
strided view of the big one.  Sidon sups are read by torus as well.

The 'phase-ascent' draw of a moment probe is the flat (all-ones)
polynomial on the frequency set, and it attains the supremum over
unimodular coefficients rather than bounding it from below: for p = 2q,
||f||_p^p is a sum over additive 2q-tuples of products of coefficients, so
with unimodular coefficients the triangle inequality bounds it by the
all-ones value, while ||f||_2^2 = |Lambda| is fixed.

Structured spectra keep their generators: a k-fold signed sumset draws
coefficients as products of per-term signs or phases (the order-k chaos
supported on the sumset), and a tensor product draws rank-one coefficient
tables, whose p-th power means factor exactly across axes.  The fitted
growth exponent is the least-squares slope of the squared best ratios
(energy ratios) against p.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import _kernels
from .extremals import _ols_slope
from .spectra import FrequencySet, LacunarySeq, product_set, sumset_bonami
# next_pow2 is unused here but stays bound: perfbench/tests checks that a
# traced run rebinds a name one module imports from another.
from .torus import (SUP_L1_FACTOR, TrigPoly, _grid_readings, _sample, check_budget,
                    grid_size, next_pow2)


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

    def member_count(self):
        return 1 if self.kind in ("flat", "phase-ascent") else self.trials


def _draw_factors(rng, size, kind):
    if kind == "random-signs":
        return rng.choice(np.array([-1.0 + 0j, 1.0 + 0j]), size=size)
    if kind == "steinhaus":
        return np.exp(2j * np.pi * rng.random(size))
    if kind == "flat":
        return np.ones(size, dtype=np.complex128)
    raise ValueError(f"no direct draw for kind {kind!r}")


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

    def draw(self, ensemble: Ensemble, trial: int):
        """(freqs, values): the sorted frequencies and one member's coefficients."""
        if ensemble.kind in ("flat", "phase-ascent"):
            return self._elems, np.ones(len(self._elems), dtype=np.complex128)
        rng = np.random.default_rng([ensemble.seed, trial])
        return self._elems, _draw_factors(rng, len(self._elems), ensemble.kind)

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
        fset, used = sumset_bonami(base, self.k, cap)
        self.used_terms = used
        self._fset = fset
        self._freqs = np.array(fset.sorted_elements(), dtype=np.int64)
        terms = np.array(base.terms[:used], dtype=np.int64)
        self._combos = np.array(list(combinations(range(used), self.k)),
                                dtype=np.intp).reshape(-1, self.k)
        signs = np.array(list(product((1, -1), repeat=self.k)), dtype=np.int64)
        sums = terms[self._combos] @ signs.T          # (tuples, patterns)
        self._bins = np.searchsorted(self._freqs, sums.ravel())

    @property
    def dim(self):
        return 1

    def frequency_set(self):
        return self._fset

    def draw(self, ensemble: Ensemble, trial: int):
        """(freqs, values): the sorted sumset and one member's coefficients."""
        n = len(self._freqs)
        if ensemble.kind == "phase-ascent":
            return self._freqs, np.ones(n, dtype=np.complex128)
        if ensemble.kind == "flat":
            eps = np.ones(self.used_terms, dtype=np.complex128)
        else:
            rng = np.random.default_rng([ensemble.seed, trial])
            eps = _draw_factors(rng, self.used_terms, ensemble.kind)
        amps = np.repeat(eps[self._combos].prod(axis=1), 2 ** self.k)
        values = np.empty(n, dtype=np.complex128)
        values.real = np.bincount(self._bins, amps.real, n)
        values.imag = np.bincount(self._bins, amps.imag, n)
        return self._freqs, values

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

    def draw_factors(self, ensemble: Ensemble, trial: int):
        """The per-axis draws (freqs, values) whose outer product is the member."""
        sub = []
        for a, f in enumerate(self.factors):
            e = Ensemble(ensemble.kind, seed=ensemble.seed + 7919 * (a + 1),
                         trials=ensemble.trials) if ensemble.kind != "flat" else ensemble
            sub.append(f.draw(e, trial))
        return sub

    def draw(self, ensemble: Ensemble, trial: int):
        """(freqs, values): the product grid in row-major order, (n, dim), and
        the outer product of the per-axis draws."""
        freqs, values = zip(*self.draw_factors(ensemble, trial))
        grid = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).reshape(-1, self.dim)
        return grid, functools.reduce(np.multiply.outer, values).ravel()

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


# Points per batched synthesis: the rows of one grid are transformed this
# many points at a time (at least one row), which bounds the peak memory of
# a large ensemble.
_CHUNK_POINTS = 1 << 16


def _moment_ratios(freqs, V, p_grid):
    """||f||_p / ||f||_2 for every row f of V and every p in p_grid, as a
    (rows, len(p_grid)) array.

    freqs holds the frequencies shared by the rows, (n,) in 1D and (n, dim)
    otherwise, and V the coefficients, (rows, n).  A row's span comes from
    its nonzero entries, and rows with the same grids are read together:
    synthesised on the exact grid of the largest p, in chunks of at most
    _CHUNK_POINTS points, while each p reads its own exact grid as a
    strided view (both sizes are powers of two per axis).  The ratio does
    not change when |f|^2 is scaled, so each row is divided by its max
    first: the p/2-th powers then lie in [0, 1] and the largest is 1, which
    keeps them from overflowing or underflowing as a whole at any p.
    """
    V = np.asarray(V, dtype=np.complex128)
    freqs = np.asarray(freqs, dtype=np.int64).reshape(V.shape[1], -1)
    nonzero = V != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("empty coefficient table")
    spans = np.stack([np.where(nonzero, f, f.min()).max(axis=1)
                      - np.where(nonzero, f, f.max()).min(axis=1) for f in freqs.T], axis=1)
    groups = {}
    for row, span in enumerate(spans.tolist()):
        grids = tuple(tuple(grid_size(s, p // 2) for s in span) for p in p_grid)
        groups.setdefault(grids, []).append(row)
    ratios = np.empty((len(V), len(p_grid)))
    big_p = p_grid.index(max(p_grid))
    for grids, rows in groups.items():
        big = grids[big_p]
        check_budget(math.prod(big), f"exact grid {big}")
        step = max(1, _CHUNK_POINTS // math.prod(big))
        for c in range(0, len(rows), step):
            chunk = rows[c:c + step]
            m2 = np.abs(_sample(freqs, V[chunk], big)) ** 2
            axes = tuple(range(1, m2.ndim))
            m2 /= m2.max(axis=axes, keepdims=True)
            for i, (p, grid) in enumerate(zip(p_grid, grids)):
                view = m2[(slice(None), *(slice(None, None, b // g) for b, g in zip(big, grid)))]
                l2 = np.mean(view, axis=axes).tolist()
                lp = np.mean(view ** (p // 2), axis=axes).tolist()
                ratios[chunk, i] = [a ** (1.0 / p) / math.sqrt(b) for a, b in zip(lp, l2)]
            del m2, view        # before the next chunk is sampled
    return ratios


def even_p_ratio(coeffs, p) -> float:
    """||f||_p / ||f||_2 for a 1D or nD coefficient table, exact rectangle rule."""
    if not coeffs:
        raise ValueError("empty coefficient table")
    values = np.array([list(coeffs.values())], dtype=np.complex128)
    return float(_moment_ratios(list(coeffs), values, (_check_even_p(p),))[0, 0])


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
    spectrum = as_spectrum(spectrum)
    if isinstance(ensembles, Ensemble):
        ensembles = (ensembles,)
    p_grid = tuple(_check_even_p(p) for p in p_grid)
    best = np.zeros(len(p_grid))
    for e in ensembles:
        members = range(e.member_count())
        if isinstance(spectrum, TensorSpectrum):
            axes = zip(*(spectrum.draw_factors(e, t) for t in members))
            ratios = math.prod(_moment_ratios(draws[0][0], [v for _, v in draws], p_grid)
                               for draws in axes)
        else:
            draws = [spectrum.draw(e, t) for t in members]
            ratios = _moment_ratios(draws[0][0], [v for _, v in draws], p_grid)
        best = np.maximum(best, ratios.max(axis=0))
    return tuple(float(r) for r in best)


def lambda_p_ratio(freqs, p, ensemble: Ensemble) -> float:
    """Best ||f||_p / ||f||_2 over the ensemble on a 1D spectrum."""
    if as_spectrum(freqs).dim != 1:
        raise ValueError("lambda_p_ratio is 1D; use tensor_growth for products")
    return best_ratios(freqs, (p,), ensemble)[0]


def _growth_report(spectrum, p_grid, ensembles) -> GrowthReport:
    """Best ratio per p over every member of every ensemble, and the
    energy-exponent fit."""
    if isinstance(ensembles, Ensemble):
        ensembles = (ensembles,)
    p_grid = tuple(_check_even_p(p) for p in p_grid)
    if len(p_grid) < 3:
        raise ValueError("need at least 3 p values for a slope fit")
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


def growth_exponent(spectrum, p_grid, ensembles) -> GrowthReport:
    """Fit the growth exponent of the best ratios over a p grid.

    ``ensembles`` is one Ensemble or a sequence; the best ratio per p is the
    max over every member of every ensemble.
    """
    return _growth_report(as_spectrum(spectrum), p_grid, ensembles)


def tensor_growth(factors, p_grid, ensembles) -> GrowthReport:
    """Growth exponent for a tensor-product spectrum (dims <= 3), probed per
    axis (see best_ratios; the identity is pinned against the full nD
    transform in the test suite)."""
    spectrum = TensorSpectrum([as_spectrum(f) for f in factors])
    if spectrum.dim > 3:
        raise ValueError("tensor probes support dims <= 3")
    return _growth_report(spectrum, p_grid, ensembles)


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
    spectrum = as_spectrum(freqs)
    if spectrum.dim != 1:
        raise ValueError("sidon_lower_bound is 1D")
    if isinstance(ensembles, Ensemble):
        ensembles = (ensembles,)
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
            # the ascent's candidates and their moduli, reused by every step
            cand = np.empty((len(phases), M), dtype=np.complex128)
            mags = np.empty((len(phases), M))
            for _ in range(3):
                for i in range(len(elems)):
                    base = f - coeffs[i] * chars[i]
                    b, s = _kernels.min_sup_phase(base, chars[i], phases, cand, mags)
                    if s < sup:
                        sup = s
                        coeffs[i] = phases[b]
                        f = base + phases[b] * chars[i]
            best = max(best, float(weights.sum()) / sup)
        else:
            for t in range(ens.member_count()):
                _, cvec = spectrum.draw(ens, t)
                sup = _grid_readings(freqs, cvec, M, [(math.inf, 0)])[0]
                if sup > 0:
                    best = max(best, float(np.sum(weights * np.abs(cvec))) / sup)
    return best
