"""Real-line machinery: compactly supported signals, dyadic frequency blocks,
Paley measures, and the weighted inequality probes.

Signals live on [-L, L) sampled at M points (power of two); the transform is
a spacing-h rectangle rule, trusted on the band |xi| <= 1/(4h).  Measures are
atoms or dyadic-blockwise densities; atom integrals are point evaluations of
f_hat, densities use 64-point Gauss-Legendre quadrature per signed block
half, which is where all the structure lives.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, window
from .multipliers import _diverging


@dataclass(frozen=True)
class CompactSignal:
    """Complex samples on [-L, L) at x_j = -L + j * h, h = 2L/M."""

    values: np.ndarray
    half_width: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        m = v.shape[0]
        if v.ndim != 1 or m < 16 or m & (m - 1):
            raise ValueError("need a 1D sample array, power-of-two length >= 16")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("samples must be finite")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        object.__setattr__(self, "values", v)

    @property
    def size(self):
        return self.values.shape[0]

    @property
    def h(self):
        return 2.0 * self.half_width / self.size

    @property
    def band(self):
        """Largest trusted |frequency| for the rectangle-rule transform."""
        return 1.0 / (4.0 * self.h)

    def x(self):
        return -self.half_width + self.h * np.arange(self.size)

    def integral(self):
        return complex(self.h * self.values.sum())

    def l1(self):
        return float(self.h * np.abs(self.values).sum())

    def orlicz_half(self):
        """int |f| log^{1/2}(1 + |f|) dx by the rectangle rule."""
        a = np.abs(self.values)
        return float(self.h * np.sum(a * np.sqrt(np.log1p(a))))


def fourier_transform(s: CompactSignal, freq_grid) -> np.ndarray:
    """f_hat(xi) = h * sum_j f(x_j) exp(-2 pi i xi x_j) on the given grid.

    Frequencies outside the validity band are rejected.
    """
    freqs = np.atleast_1d(np.asarray(freq_grid, dtype=float))
    if freqs.size and float(np.abs(freqs).max()) > s.band * (1 + 1e-12):
        raise ValueError(f"frequency grid exceeds the validity band |xi| <= {s.band}")
    return s.h * _kernels.nudft(s.values, s.x(), freqs)


def _dual_grid(s: CompactSignal):
    """FFT frequencies m/(2L), m = -M/2 .. M/2-1, and f_hat there."""
    M = s.size
    m = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)   # 0..M/2-1, -M/2..-1
    xi = m / (2.0 * s.half_width)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    fhat = s.h * signs * np.fft.fft(s.values)
    return m, xi, fhat


def _dual_inverse(s: CompactSignal, fhat_mod):
    M = s.size
    m = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    vals = np.fft.ifft(signs * fhat_mod) * (M / (2.0 * s.half_width))
    return CompactSignal(vals, s.half_width)


def _block(s: CompactSignal, xi, fhat, k) -> CompactSignal:
    """Block k of s from its dual grid (xi, fhat)."""
    if 2.0 ** (k + 2) > s.band * (1 + 1e-12):
        raise ValueError(f"block {k} lies outside the validity band (band {s.band})")
    return _dual_inverse(s, window.eta_scaled(xi, k) * fhat)


def lp_block(s: CompactSignal, k) -> CompactSignal:
    """The dyadic frequency block: multiply f_hat by eta(2**-k xi), invert."""
    _, xi, fhat = _dual_grid(s)
    return _block(s, xi, fhat, k)


def default_k_range(s: CompactSignal):
    return (-10, int(math.floor(math.log2(s.band))) - 2)


def square_function_norm(s: CompactSignal, k_range=None) -> float:
    """Rectangle-rule L1 norm of (sum_k |Delta_k f|^2)^{1/2}."""
    if k_range is None:
        k_range = default_k_range(s)
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    _, xi, fhat = _dual_grid(s)
    acc = np.zeros(s.size)
    for k in range(k_lo, k_hi + 1):
        acc += np.abs(_block(s, xi, fhat, k).values) ** 2
    return float(s.h * np.sum(np.sqrt(acc)))


_GL_NODES = 64


@dataclass(frozen=True)
class PaleyMeasure:
    """Non-negative measure on R: atoms or a dyadic-blockwise density.

    gap > 0 declares that the measure vanishes on [-gap, gap].
    """

    kind: str                   # 'atoms' | 'density'
    atoms: tuple = ()
    density: object = None      # callable |xi| -> density value
    density_name: str = ""
    k_min: int = 0
    k_max: int = 0
    gap: float = 0.0

    @staticmethod
    def from_atoms(pairs, gap=0.0):
        gap = float(gap)
        if not (math.isfinite(gap) and gap >= 0):
            raise ValueError(f"gap must be finite and >= 0, got {gap}")
        atoms = tuple((float(xi), float(w)) for xi, w in pairs)
        for xi, w in atoms:
            if not (math.isfinite(xi) and math.isfinite(w)):
                raise ValueError(f"atom ({xi}, {w}) is not finite")
            if w < 0:
                raise ValueError("atom weights must be non-negative")
            if gap > 0 and abs(xi) <= gap and w > 0:
                raise ValueError("an atom sits inside the declared gap")
        return PaleyMeasure(kind="atoms", atoms=atoms, gap=gap)

    @staticmethod
    def from_density(fn, k_min, k_max, gap=None, name="custom"):
        k_min, k_max = int(k_min), int(k_max)
        if k_max < k_min:
            raise ValueError("k_max must be >= k_min")
        if gap is None:
            gap = 2.0 ** k_min
        return PaleyMeasure(kind="density", density=fn, density_name=name,
                            k_min=k_min, k_max=k_max, gap=float(gap))

    @staticmethod
    def inverse_abs(k_min, k_max):
        """Density |xi|^{-1} restricted to the blocks k_min..k_max."""
        return PaleyMeasure.from_density(lambda xi: 1.0 / np.abs(xi), k_min, k_max,
                                         name="inverse-abs")

    def block_nodes(self, k):
        """Gauss-Legendre nodes and density-laden weights on +-[2^k, 2^{k+1})."""
        gx, gw = window._gauss_legendre(_GL_NODES)
        lo, hi = 2.0 ** k, 2.0 ** (k + 1)
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs_pos = mid + rad * gx
        ws = rad * gw
        xs = np.concatenate([xs_pos, -xs_pos])
        dens = np.asarray(self.density(np.abs(xs)), dtype=float)
        return xs, np.concatenate([ws, ws]) * dens

    def block_mass(self, k):
        if self.kind == "atoms":
            lo, hi = 2.0 ** k, 2.0 ** (k + 1)
            return float(sum(w for xi, w in self.atoms if lo <= abs(xi) < hi))
        if not (self.k_min <= k <= self.k_max):
            return 0.0
        _, ws = self.block_nodes(k)
        return float(ws.sum())


@dataclass(frozen=True)
class PaleySupReport:
    sup: float
    k_range: tuple
    masses: tuple
    verdict: str


def paley_sup(mu: PaleyMeasure, k_range) -> PaleySupReport:
    """Exact sup of mu over the signed dyadic blocks in range, with a
    finite-horizon divergence flag on the mass sequence."""
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    masses = tuple(mu.block_mass(k) for k in range(k_lo, k_hi + 1))
    verdict = "diverging" if _diverging(masses) else "bounded-in-range"
    return PaleySupReport(sup=max(masses, default=0.0), k_range=(k_lo, k_hi),
                          masses=masses, verdict=verdict)


def mu_l2_sq(mu: PaleyMeasure, s: CompactSignal, k_range=None) -> float:
    """int |f_hat|^2 dmu over the blocks in range (exact atom evaluations,
    per-block quadrature for densities).  An atom counts when its signed
    block +-[2^k, 2^{k+1}) is in range, as in block_mass; k_range=None keeps
    every atom."""
    if mu.kind == "atoms":
        atoms = [(xi, w) for xi, w in mu.atoms if w > 0]
        if k_range is not None:
            lo, hi = 2.0 ** int(k_range[0]), 2.0 ** (int(k_range[1]) + 1)
            atoms = [(xi, w) for xi, w in atoms if lo <= abs(xi) < hi]
        if not atoms:
            return 0.0
        fh = fourier_transform(s, np.array([xi for xi, _ in atoms]))
        return float(sum(w * abs(v) ** 2 for (_, w), v in zip(atoms, fh)))
    if k_range is None:
        k_lo, k_hi = mu.k_min, mu.k_max
    else:
        k_lo, k_hi = max(int(k_range[0]), mu.k_min), min(int(k_range[1]), mu.k_max)
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        xs, ws = mu.block_nodes(k)
        fh = fourier_transform(s, xs)
        total += float(np.sum(ws * np.abs(fh) ** 2))
    return total


@dataclass(frozen=True)
class ProbeReport:
    max_ratio: float
    rows: tuple                 # (index, mu_l2, sq_norm, ratio)
    k_range: tuple
    meta: dict


def paley_inequality_probe(mu: PaleyMeasure, signals, k_range=None) -> ProbeReport:
    """max over the corpus of ||f_hat||_{L2(dmu)} / ||S(f)||_1.

    The corpus must be mean-zero (the square function does not control the
    mean); a signal with |mean| above 1e-8 * ||f||_1 is rejected.
    """
    rows = []
    kr = (0, 0) if k_range is None else (int(k_range[0]), int(k_range[1]))
    for i, s in enumerate(signals):
        if k_range is None:
            kr = default_k_range(s)
        mean = abs(s.integral())
        if mean > 1e-8 * max(s.l1(), 1e-300):
            raise ValueError(f"corpus signal {i} is not mean-zero")
        lhs = math.sqrt(mu_l2_sq(mu, s, kr))
        sq = square_function_norm(s, kr)
        rows.append((i, lhs, sq, lhs / sq if sq > 0 else 0.0))
    best = max((r[3] for r in rows), default=0.0)
    meta = {"n_signals": len(rows)}
    return ProbeReport(max_ratio=best, rows=tuple(rows), k_range=kr, meta=meta)


def raised_cosine_bump(half_width, size, support=None) -> CompactSignal:
    """Smooth bump on [-support, support] inside [-L, L), discrete unit integral."""
    L = float(half_width)
    a = L if support is None else float(support)
    if not (0 < a <= L):
        raise ValueError("support must lie inside the sample window")
    h = 2.0 * L / size
    x = -L + h * np.arange(size)
    vals = np.where(np.abs(x) < a, (1.0 + np.cos(np.pi * x / a)) / (2.0 * a), 0.0)
    s = CompactSignal(vals.astype(np.complex128), L)
    total = s.integral().real
    return CompactSignal(s.values / total, L)


def mean_zero_reduction(f: CompactSignal, psi: CompactSignal = None) -> CompactSignal:
    """g = f - (int f) * psi with a unit-integral bump psi on the same window."""
    if psi is None:
        psi = raised_cosine_bump(f.half_width, f.size)
    if psi.size != f.size or psi.half_width != f.half_width:
        raise ValueError("psi must share the sample window of f")
    unit = psi.integral()
    if abs(unit - 1.0) > 1e-8:
        raise ValueError(f"psi integral {unit} deviates from 1 beyond 1e-8")
    I = f.integral()
    return CompactSignal(f.values - I * psi.values, f.half_width)


@dataclass(frozen=True)
class RudinReport:
    block_indices: tuple
    floors: tuple               # j^{-4} * mu(I_{k_j})
    witnesses: tuple            # int_{I_{k_j}} |f_hat|^2 dmu for the built series
    partial_signals: tuple      # sampled partial sums, for blocks inside the band


def rudin_counterexample(mu: PaleyMeasure, J, k_search_max=None,
                         signal=(4.0, 2048)) -> RudinReport:
    """Witness series against the weighted L2 inequality for a measure with
    unbounded dyadic blocks.

    Picks block indices k_1 < k_2 < ... greedily with k_{j+1} > 5 k_j and
    mu(I_{k_j}) >= j^4 (starting the search at k = 0 so that J = 6 stays
    inside the float range), builds f_hat = sum_j j^{-2} eta(2^{-k_j} xi),
    and evaluates each block integral int_{I_{k_j}} |f_hat|^2 dmu exactly in
    the frequency domain.  If no qualifying block exists the measure looks
    Paley in range and the construction is refused.
    """
    J = int(J)
    if J < 1:
        raise ValueError("J must be >= 1")
    if k_search_max is None:
        k_search_max = 1000 if mu.kind == "atoms" else mu.k_max
    ks = []
    k = 0
    for j in range(1, J + 1):
        found = None
        while k <= k_search_max:
            if mu.block_mass(k) >= j ** 4:
                found = k
                break
            k += 1
        if found is None:
            raise ValueError(
                f"no block with mass >= {j ** 4} in range: the measure looks "
                "Paley here, no counterexample exists")
        ks.append(found)
        k = 5 * found + 1 if found > 0 else found + 1
    ks = tuple(ks)

    def fhat_at(xs):
        out = np.zeros(np.shape(xs))
        for j, kj in enumerate(ks, start=1):
            out = out + window.eta_scaled(xs, kj) / (j * j)
        return out

    floors, witnesses = [], []
    for j, kj in enumerate(ks, start=1):
        mass = mu.block_mass(kj)
        floors.append(mass / j ** 4)
        if mu.kind == "atoms":
            lo, hi = 2.0 ** kj, 2.0 ** (kj + 1)
            w = sum(wt * fhat_at(np.array([xi]))[0] ** 2
                    for xi, wt in mu.atoms if lo <= abs(xi) < hi)
            witnesses.append(float(w))
        else:
            xs, ws = mu.block_nodes(kj)
            witnesses.append(float(np.sum(ws * fhat_at(xs) ** 2)))

    L, M = float(signal[0]), int(signal[1])
    h = 2.0 * L / M
    band = 1.0 / (4.0 * h)
    x = -L + h * np.arange(M)
    partials = []
    acc = np.zeros(M)
    for j, kj in enumerate(ks, start=1):
        if 3.0 * 2.0 ** kj > band:
            break
        scale = 2.0 ** kj
        acc = acc + scale * window.eta_inverse_transform(scale * x) / (j * j)
        partials.append(CompactSignal(acc.astype(np.complex128), L))
    return RudinReport(block_indices=ks, floors=tuple(floors),
                       witnesses=tuple(witnesses), partial_signals=tuple(partials))


@dataclass(frozen=True)
class LineZygmundReport:
    lhs: float
    rhs: float
    ratio: float
    k_range: tuple
    meta: dict


def zygmund_realline_probe(mu: PaleyMeasure, f: CompactSignal, k_range=None) -> LineZygmundReport:
    """||f_hat||_{L2(dmu)} / (1 + int |f| log^{1/2}(1+|f|)); no mean-zero
    requirement, but the measure must vanish near the origin.

    Without a declared gap the ratio can blow up: the density |xi|^{-1} with
    blocks reaching down to 0 diverges against any f with f_hat(0) != 0 (see
    low_block_divergence).
    """
    if mu.gap <= 0.0:
        raise ValueError(
            "measure must vanish on a neighbourhood of 0 (declare gap > 0); "
            "with mass near the origin the inequality fails: try "
            "low_block_divergence with the |xi|^{-1} density")
    if k_range is None:
        k_range = default_k_range(f)
    lhs = math.sqrt(mu_l2_sq(mu, f, k_range))
    rhs = 1.0 + f.orlicz_half()
    return LineZygmundReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, k_range=tuple(k_range),
                             meta={"L": f.half_width, "M": f.size, "band": f.band})


def low_block_divergence(f: CompactSignal, k_low_list):
    """Mass added to ||f_hat||^2_{L2(dmu)} by each low block of the |xi|^{-1}
    density; for f_hat(0) != 0 every sufficiently low block contributes about
    2 ln 2 * |f_hat(0)|^2.  Returns rows (k, increment)."""
    return [(k, mu_l2_sq(PaleyMeasure.inverse_abs(k, k), f))
            for k in sorted(int(k) for k in k_low_list)]


@dataclass(frozen=True)
class ProductPaleyReport:
    sup: float
    factor_sups: tuple
    verdict: str
    product_identity_gap: float


def product_paley_sup_2d(mu: PaleyMeasure, nu: PaleyMeasure, k_range) -> ProductPaleyReport:
    """Sup of (mu x nu) over block rectangles, swept exhaustively and checked
    against the product of the 1D sups."""
    rep_mu = paley_sup(mu, k_range)
    rep_nu = paley_sup(nu, k_range)
    grid = np.multiply.outer(np.array(rep_mu.masses), np.array(rep_nu.masses))
    sup = float(grid.max()) if grid.size else 0.0
    prod = rep_mu.sup * rep_nu.sup
    verdict = "bounded-in-range"
    if rep_mu.verdict == "diverging" or rep_nu.verdict == "diverging":
        verdict = "diverging"
    gap = abs(sup - prod) / prod if prod > 0 else 0.0
    return ProductPaleyReport(sup=sup, factor_sups=(rep_mu.sup, rep_nu.sup),
                              verdict=verdict, product_identity_gap=gap)


def random_mean_zero_corpus(count, half_width=4.0, size=2048, seed=513, bumps=3):
    """Seeded smooth mean-zero signals: random modulated Gaussian bumps under
    a window, centred by the raised-cosine reduction."""
    out = []
    L = float(half_width)
    for t in range(count):
        rng = np.random.default_rng([seed, t])
        h = 2.0 * L / size
        x = -L + h * np.arange(size)
        vals = np.zeros(size, dtype=np.complex128)
        for _ in range(bumps):
            centre = rng.uniform(-0.5 * L, 0.5 * L)
            width = rng.uniform(0.08 * L, 0.3 * L)
            freq = rng.uniform(0.0, 1.0 / (16.0 * h))
            amp = complex(*rng.standard_normal(2))
            vals += amp * np.exp(-((x - centre) / width) ** 2) * np.exp(2j * np.pi * freq * x)
        window_taper = np.cos(np.pi * x / (2 * L)) ** 2
        s = CompactSignal(vals * window_taper, L)
        out.append(mean_zero_reduction(s))
    return out
