"""Moment-growth probes, ensemble maximisation, and the 2D Gram-matrix algebra.

Suprema over all polynomials on a spectrum are approximated from below by
ensemble maxima, so every reported constant or exponent is a lower-bound
probe with one-sided semantics.  L^p means use even p only: the rectangle
rule is exact on a power-of-two grid past (p/2) * span per axis, the span
being max - min of the spectrum on that axis (torus.grid_size).  A moment
probe synthesises each coefficient table once, on the exact grid of the
largest p, and reads every smaller p on its own exact grid, a strided view
of the big one, so every ensemble member is drawn once per p grid.

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

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import _kernels
from .extremals import _ols_slope
from .spectra import FrequencySet, LacunarySeq, sumset_bonami
# next_pow2 is unused here but stays bound: perfbench/tests checks that a
# traced run rebinds a name one module imports from another.
from .torus import SUP_L1_FACTOR, TrigPoly, check_budget, grid_size, next_pow2


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

    @property
    def dim(self):
        return self.freqs.dim

    def frequency_set(self):
        return self.freqs

    def draw(self, ensemble: Ensemble, trial: int):
        elems = self.freqs.sorted_elements()
        if ensemble.kind in ("flat", "phase-ascent"):
            return {n: 1.0 + 0j for n in elems}
        rng = np.random.default_rng([ensemble.seed, trial])
        vals = _draw_factors(rng, len(elems), ensemble.kind)
        return dict(zip(elems, vals))

    def describe(self):
        return f"set({len(self.freqs)} freqs, dim {self.dim})"


class SumsetSpectrum:
    """The k-fold signed sumset of a lacunary base, carrying its generators.

    Draws assign each strictly decreasing index tuple the product of its
    per-term factors (signs or phases); the 2**k sign patterns of a tuple
    share that amplitude, and colliding sums accumulate.
    """

    def __init__(self, base: LacunarySeq, k: int, cap: int = 4096):
        self.base = base
        self.k = int(k)
        fset, used = sumset_bonami(base, self.k, cap)
        self.used_terms = used
        self._fset = fset

    @property
    def dim(self):
        return 1

    def frequency_set(self):
        return self._fset

    def draw(self, ensemble: Ensemble, trial: int):
        if ensemble.kind == "phase-ascent":
            return {n: 1.0 + 0j for n in self._fset.sorted_elements()}
        terms = self.base.terms[:self.used_terms]
        if ensemble.kind == "flat":
            eps = np.ones(len(terms), dtype=np.complex128)
        else:
            rng = np.random.default_rng([ensemble.seed, trial])
            eps = _draw_factors(rng, len(terms), ensemble.kind)
        coeffs = {}
        for tup in combinations(range(len(terms)), self.k):
            amp = complex(np.prod(eps[list(tup)]))
            vals = [terms[i] for i in tup]
            for signs in product((1, -1), repeat=self.k):
                freq = sum(s * v for s, v in zip(signs, vals))
                coeffs[freq] = coeffs.get(freq, 0j) + amp
        return {n: c for n, c in coeffs.items() if c != 0}

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
        elems = set(product(*(f.frequency_set().sorted_elements() for f in self.factors)))
        return FrequencySet(self.dim, frozenset(elems))

    def draw_factors(self, ensemble: Ensemble, trial: int):
        sub = []
        for a, f in enumerate(self.factors):
            e = Ensemble(ensemble.kind, seed=ensemble.seed + 7919 * (a + 1),
                         trials=ensemble.trials) if ensemble.kind != "flat" else ensemble
            sub.append(f.draw(e, trial))
        return sub

    def draw(self, ensemble: Ensemble, trial: int):
        parts = self.draw_factors(ensemble, trial)
        coeffs = {}
        for combo in product(*(p.items() for p in parts)):
            freq = tuple(n for n, _ in combo)
            amp = 1.0 + 0j
            for _, c in combo:
                amp *= c
            coeffs[freq] = amp
        return coeffs

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


def _moment_ratios(coeffs, p_grid):
    """||f||_p / ||f||_2 for every p in p_grid, from one synthesis.

    Keys are ints (1D) or tuples (nD).  The table is synthesised on the
    exact grid of the largest p; each p reads its own exact grid as a
    strided view of it (both sizes are powers of two per axis).
    """
    if not coeffs:
        raise ValueError("empty coefficient table")
    freqs = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), -1)
    spans = [int(s) for s in freqs.max(axis=0) - freqs.min(axis=0)]
    big = tuple(grid_size(s, max(p_grid) // 2) for s in spans)
    check_budget(math.prod(big), f"exact grid {big}")
    spec = np.zeros(big, dtype=np.complex128)
    spec[tuple((freqs % big).T)] = list(coeffs.values())
    m2 = np.abs(np.fft.ifftn(spec) * math.prod(big)) ** 2
    ratios = np.empty(len(p_grid))
    for i, p in enumerate(p_grid):
        view = m2[tuple(slice(None, None, b // grid_size(s, p // 2))
                        for b, s in zip(big, spans))]
        l2 = math.sqrt(float(np.mean(view)))
        lp = float(np.mean(view ** (p // 2))) ** (1.0 / p)
        ratios[i] = lp / l2
    return ratios


def even_p_ratio(coeffs, p) -> float:
    """||f||_p / ||f||_2 for a 1D or nD coefficient table, exact rectangle rule."""
    return float(_moment_ratios(coeffs, (_check_even_p(p),))[0])


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

    Each member is drawn once and read at every p.  A tensor member is
    rank-one, and the nD rectangle-rule ratio of a product table is the
    product of its per-axis 1D ratios, so tensors are probed per axis.
    """
    spectrum = as_spectrum(spectrum)
    if isinstance(ensembles, Ensemble):
        ensembles = (ensembles,)
    p_grid = tuple(_check_even_p(p) for p in p_grid)
    best = np.zeros(len(p_grid))
    for e in ensembles:
        for t in range(e.member_count()):
            if isinstance(spectrum, TensorSpectrum):
                ratios = math.prod(_moment_ratios(part, p_grid)
                                   for part in spectrum.draw_factors(e, t))
            else:
                ratios = _moment_ratios(spectrum.draw(e, t), p_grid)
            best = np.maximum(best, ratios)
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
    other = 1 - axis
    kept = sorted({n[axis] for n in f.coeffs})
    summed = sorted({n[other] for n in f.coeffs})
    ki = {n: i for i, n in enumerate(kept)}
    si = {m: i for i, m in enumerate(summed)}
    A = np.zeros((len(summed), len(kept)), dtype=np.complex128)
    for n, c in f.coeffs.items():
        A[si[n[other]], ki[n[axis]]] = c
    E = A.T @ np.conj(A)
    return EMatrix(freqs=tuple(kept), matrix=E)


@dataclass(frozen=True)
class CauchySchwarzReport:
    frobenius_sq: float
    bound_sq: float
    equality_gap: float


def cauchy_schwarz_check(E: EMatrix, f: TrigPoly, rel_tol=1e-10) -> CauchySchwarzReport:
    """sum |E|^2 <= (sum |f_hat|^2)^2; a violation beyond tolerance raises."""
    frob = float(np.sum(np.abs(E.matrix) ** 2))
    total = sum(abs(c) ** 2 for c in f.coeffs.values())
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
    j = np.arange(M)
    chars = np.exp(2j * np.pi * np.multiply.outer(np.asarray(elems) % M, j) / M)
    weights = np.array([abs(m.value_at(n)) for n in elems])
    best = 0.0
    for ens in ensembles:
        if ens.kind == "phase-ascent":
            coeffs = np.ones(len(elems), dtype=np.complex128)
            f = chars.sum(axis=0)
            phases = np.exp(2j * np.pi * np.arange(16) / 16)
            sup = float(np.abs(f).max())
            for _ in range(3):
                for i in range(len(elems)):
                    base = f - coeffs[i] * chars[i]
                    b, s = _kernels.min_sup_phase(base, chars[i], phases)
                    if s < sup:
                        sup = s
                        coeffs[i] = phases[b]
                        f = base + phases[b] * chars[i]
            num = float(weights.sum())
            best = max(best, num / sup)
        else:
            for t in range(ens.member_count()):
                coeffs = spectrum.draw(ens, t)
                cvec = np.array([coeffs.get(n, 0j) for n in elems])
                num = float(np.sum(weights * np.abs(cvec)))
                f = cvec @ chars
                sup = float(np.abs(f).max())
                if sup > 0:
                    best = max(best, num / sup)
    return best
