"""Real-line machinery: compactly supported signals, dyadic frequency blocks,
Paley measures, and the weighted inequality probes.

Signals live on [-L, L) sampled at M points: a ``CompactSignal`` is a 1-D
``torus.GridSignal`` of M >= 16 samples that carries L, so the grid's rules
(power-of-two size, finite samples) and its means are torus's, and the L^1
and Orlicz_{1/2} integrals are 2L times ``torus.lp_norm`` and
``torus.orlicz_functional``.  The transform is a spacing-h rectangle rule,
trusted on the band |xi| <= 1/(4h).  Centre the sample index, n = j - M/2,
so that x_j = n h (L = h M / 2) and

    f_hat(xi) = h sum_n f_{n + M/2} e^{-2 pi i n x},   x = xi h, |x| <= 1/4,

a trigonometric polynomial in x: f_hat at any set of nodes is a type-2
nonuniform FFT.  ``fourier_transform`` evaluates it by Gaussian gridding
(Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard & Lee, SIAM Rev.
46, 2004) on N = 2M grid points, with S = _SPREAD = 14 bins on each side of
a node:

1. divide the samples by the Fourier coefficients of the periodic Gaussian,
   which are proportional to e^{-tau n^2}: multiply by e^{tau n^2}, with
   tau = pi S / (M^2 R (R - 1/2)) = 14 pi / (3 M^2) for the oversampling R = 2;
2. zero-pad to N points and take one FFT, F_m; the band puts every node
   within N/4 bins of bin 0, so F is extended periodically by N/4 + S bins
   on each side and read without wrap-around;
3. at each node, u = N x in bins, sum the 2S nearest bins:

    f_hat(xi) ~ (h/2) sqrt(3/S) sum_m F_m e^{-3 pi (u - m)^2 / (4 S)},

   where the weight's exponent, (pi/M)^2 (u - m)^2 / (4 tau), does not
   depend on M.

That is one 2M-point FFT per call and 2S terms per node, summed in passes
of 128 nodes whose temporaries stay under the allocator's 128 KiB trim
threshold (torus._CHUNK_BYTES), so that steady calls take no page faults:
about 0.45 ms for the 1,920 nodes of blocks -10..4 at M = 2048.  Against the
dense sum (``_kernels.nudft``) the error
is at most 2.1e-14 h ||f||_1 over M = 16 .. 2^15 and L = 0.5, 4, 64, 2,003
nodes each (measured; an exact evaluation in Cooley-Tukey factored form is
itself 3.1e-14 off at 2^15, from rounding).
The weights are complex, w + 0j, so that a pass multiplies its terms by them
in one contiguous complex multiply: 13 us a pass, where float weights took
18 us, most of it in two strided multiplies, one per part.  The products
differ from the real ones at most in the sign of a zero, so every |f_hat|^2
keeps its bits.  Step 1's factor depends on M alone and is built once per M
(``_deconvolution``).  The FFT depends on the signal alone and the weights
on the node alone, so the nodes of a density block, which depend only on the
window, have a plan (``_density_block``, the NUFFT plan of Barnett et al.,
SIAM J. Sci. Comput. 41, 2019): the block's nodes and weights, each node's
bin and its Gaussian weights, built once per window and block and kept in an
LRU cache of _PLANS = 32 plans of about 59 KiB each.  ``mu_l2_sq`` on a
density then takes one spectrum and one pass per block: about 0.30 ms for
blocks -10..4 at M = 2048 and 0.17 ms for blocks -2..4, where one
``fourier_transform`` at the nodes of -10..4 takes 0.45 ms (medians over
corpus signals in one process, on a 2-core Xeon, numpy 2.4).  Other node
sets take their weights pass by pass.  A node's f_hat has the same bits
alone, in any batch or by a plan, and a density block adds the same number
to any range that holds it (``_sum_by_block``).

On the dual grid xi_m = m/(2L) the transform is h (-1)^m fft(f)_m, and the
factor cancels on the way back, so the dyadic blocks
Delta_k f = ifft(eta(2^-k xi) fft(f)) are all read off one FFT of the
samples, by the block loop the torus square function uses
(torus._dyadic_blocks), which inverts them in stacks of two at M = 2048,
one inverse FFT a stack: of blocks -10..4, the nine blocks -4..4 meet the
corpus window's dual grid, five stacks, and ``square_function_norm`` takes
about 0.43 ms.  This module takes forward FFTs only.  One rule, ``_in_band``,
holds node grids, density blocks and dyadic blocks to the band.

Measures are plain data: atoms, or the density |xi|^-1 on the signed blocks
k_min..k_max (``PaleyMeasure.inverse_abs``).  Atom integrals are point
evaluations of f_hat; the density uses 64-point Gauss-Legendre quadrature per
signed block half, which is where all the structure lives; density blocks
lie in -1022..1022, where every node is a normal float.  Block masses,
int |f_hat|^2 dmu and the witness integrals all sum over the nodes of
``PaleyMeasure._nodes`` (one routine for atoms and densities, which also
names the block of each row; a density's nodes are ``_block_points``, which
its plans read too), block by block, and every node's f_hat comes from the
gridding of ``fourier_transform``.  For the |xi|^-1 density the quadrature is off,
against the exact h^2 sum_l r(l) mu_hat(l h), r the sample autocorrelation,
by up to 2.36e-4 relative over the 100 criterion-9 signals (signal 49, for
blocks -10..4 and -2..4 alike, and all of it from block 3, 8 <= |xi| < 16),
by more than 1e-7 on 7 of them, and by at most 1.14e-7 on the first 20.  A
block of width 2^k holds about 2 L 2^k periods of |f_hat|^2, which 64 fixed
nodes do not follow.
"""

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import window
from .multipliers import _diverging
from .torus import (_CHUNK_BYTES, GridSignal, _dyadic_blocks, _square_function, check_budget,
                    check_seed, lp_norm, orlicz_functional)


def _sample_points(half_width, size):
    """The sample window of a signal: x_j = -L + j h, h = 2L/M."""
    return -half_width + (2.0 * half_width / size) * np.arange(size)


@dataclass(frozen=True)
class CompactSignal(GridSignal):
    """Complex samples on [-L, L) at x_j = -L + j * h, h = 2L/M: a 1-D
    GridSignal of M >= 16 samples (so M is a power of two and the samples
    are finite) that also carries the window's half-width L."""

    half_width: float

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 1 or self.npoints < 16:
            raise ValueError(f"need a 1D sample array of length >= 16, got shape {self.sizes}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")

    size = GridSignal.npoints     # M

    @property
    def h(self):
        return 2.0 * self.half_width / self.size

    @property
    def band(self):
        """Largest trusted |frequency| for the rectangle-rule transform."""
        return 1.0 / (4.0 * self.h)

    def x(self):
        return _sample_points(self.half_width, self.size)

    def integral(self):
        return complex(self.h * self.values.sum())

    # The torus means times the window's length 2L: h sum_j = 2L (sum_j / M),
    # the same product bit for bit, as M is a power of two
    def l1(self):
        return 2.0 * self.half_width * lp_norm(self, 1)

    def orlicz_half(self):
        """int |f| log^{1/2}(1 + |f|) dx by the rectangle rule."""
        return 2.0 * self.half_width * orlicz_functional(self, 0.5)


def _in_band(s: CompactSignal, top):
    """Whether |xi| <= top lies in the validity band |xi| <= s.band, with a
    relative slack of 1e-12: the one band rule, for node grids, density
    blocks and dyadic blocks alike."""
    return top <= s.band * (1 + 1e-12)


def _check_band(s: CompactSignal, top, what):
    """Reject `what`, whose largest |xi| is top, past the validity band."""
    if not _in_band(s, top):
        raise ValueError(f"{what} lies outside the validity band |xi| <= {s.band}")


# The Gaussian gridding of fourier_transform: _SPREAD grid bins on each side
# of a node, and passes of _PASS nodes.  A pass holds a complex weight and a
# complex term for each of a node's 2 _SPREAD taps, 32 bytes a tap, and
# _PASS is the largest power of two of nodes that keeps them under
# torus._CHUNK_BYTES, glibc's default mmap and trim threshold: a pass that
# frees more than that at once returns its pages to the system, and the next
# pass faults them in again.
_SPREAD = 14
_PASS = 1 << ((_CHUNK_BYTES // (32 * 2 * _SPREAD)).bit_length() - 1)
_TAPS = np.arange(1.0 - _SPREAD, _SPREAD + 1.0)


def _weights(frac):
    """The Gaussian weights e^{-3 pi (frac[j, 0] - t)^2 / (4 S)} of the nodes
    j of a pass, which lie frac[j, 0] into their bin, for the taps t, as
    complex numbers w + 0j: the one weight rule, of fourier_transform's
    passes and the density plans."""
    weights = frac - _TAPS
    weights *= weights
    weights *= -0.75 * np.pi / _SPREAD
    np.exp(weights, out=weights)
    return weights.astype(np.complex128)


def _grid_pass(rows, weights, first, out):
    """One pass of the gridding: out[j] is the sum over the taps t of
    weights[j, t] rows[first[j], t], where rows[m] is the window of 2 S
    spectrum bins that starts at bin m.  The weights are complex with a zero
    imaginary part, so the product is one contiguous complex multiply whose
    parts are the real products, up to the sign of a zero."""
    terms = rows[first]
    terms *= weights
    np.add.reduce(terms, axis=1, out=out)


@functools.lru_cache(maxsize=2)
def _deconvolution(size):
    """Step 1's factor e^{tau n^2} for the centred index n of M = size
    samples, with tau M^2 = pi S / 3: it depends on M alone, so it is built
    once per M and kept, read-only, for the last two sizes (16 KiB at M =
    2048)."""
    factor = np.exp((np.pi * _SPREAD / 3) * (np.arange(-(size // 2), size // 2) / size) ** 2)
    factor.flags.writeable = False
    return factor


def _spectrum_rows(s: CompactSignal):
    """Steps 1 and 2 of the gridding on s, which depend on the samples
    alone: (rows, offset, gain).  rows[m] is the window of 2 S bins from m
    on of the periodically extended spectrum, a node in bin b (u = N x
    rounded down) reads the row b + offset, and f_hat is gain times the sum
    of its taps."""
    M, half = s.size, s.size // 2
    factor = _deconvolution(M)
    # the deconvolved samples, multiplied straight into the two ends of the
    # zero-padded buffer, which takes the FFT in place
    padded = np.zeros(2 * M, dtype=np.complex128)
    np.multiply(s.values[half:], factor[half:], out=padded[:half])
    np.multiply(s.values[:half], factor[:half], out=padded[-half:])
    np.fft.fft(padded, out=padded)
    edge = half + _SPREAD
    spectrum = np.concatenate([padded[-edge:], padded[:edge + 1]])
    # drop the buffer once read: held to the end of the call, it and the
    # caller's arrays would be freed together, over _CHUNK_BYTES at once,
    # and in some heap layouts the next call would fault their pages in again
    del padded
    # row m: the 2 S bins from bin m on, a view (sliding_window_view without
    # its 10 us of checks)
    rows = np.lib.stride_tricks.as_strided(
        spectrum, (spectrum.size + 1 - 2 * _SPREAD, 2 * _SPREAD), 2 * spectrum.strides,
        writeable=False)
    return rows, 1 - _SPREAD + edge, 0.5 * s.h * math.sqrt(3.0 / _SPREAD)


def fourier_transform(s: CompactSignal, freq_grid) -> np.ndarray:
    """f_hat(xi) = h * sum_j f(x_j) exp(-2 pi i xi x_j) on the given grid,
    by the type-2 NUFFT of the module docstring.  Frequencies outside the
    validity band are rejected.  The value at a node depends on that node
    alone, not on the other nodes of the call."""
    freqs = np.atleast_1d(np.asarray(freq_grid, dtype=float))
    if freqs.size:
        _check_band(s, float(np.abs(freqs).max()), "frequency grid")
    rows, offset, gain = _spectrum_rows(s)
    # each node's bin, its offset in the bin and the row of its first tap,
    # once per call
    u = (4.0 * s.half_width) * freqs     # N x = 2 M h xi = 4 L xi, in bins
    lo = np.floor(u)
    frac = (u - lo)[:, None]
    first = lo.astype(np.int64) + offset
    out = np.empty(freqs.shape, dtype=np.complex128)
    for i in range(0, freqs.size, _PASS):
        _grid_pass(rows, _weights(frac[i:i + _PASS]), first[i:i + _PASS], out[i:i + _PASS])
    return gain * out


def _blocks(s: CompactSignal, ks):
    """The samples of Delta_k f = ifft(eta(2^-k xi) fft(f)) for the k of the
    increasing sequence ks, as the stacks of torus._dyadic_blocks on one FFT
    of s over the dual grid xi_m = m/(2L), m = 0..M/2-1, -M/2..-1 (see the
    module docstring).  A block outside the validity band, 4 * 2^k > band,
    is rejected here, before any block is made (past k = 1021, 4 * 2^k is
    inf): the top block is checked, and only if it is out are the blocks
    from default_k_range's top on walked, to name the first one out."""
    def top(k):
        return 4.0 * 2.0 ** min(int(k), 1022)

    if ks and not _in_band(s, top(ks[-1])):
        for k in ks[bisect.bisect_left(ks, default_k_range(s)[1]):]:
            _check_band(s, top(k), f"block {k}")
    m = np.fft.fftfreq(s.size, d=1.0 / s.size).astype(np.int64)
    return _dyadic_blocks(np.fft.fft(s.values), m / (2.0 * s.half_width), ks, "backward")


def lp_block(s: CompactSignal, k) -> CompactSignal:
    """The dyadic frequency block: multiply f_hat by eta(2**-k xi), invert."""
    stack = next(_blocks(s, [k]), np.zeros((1, s.size), dtype=np.complex128))
    return CompactSignal(stack[0], s.half_width)


def default_k_range(s: CompactSignal):
    """Blocks -10 up to the top block inside the band, 4 * 2^k <= s.band."""
    return (-10, int(math.floor(math.log2(s.band))) - 2)


def _probe_range(k_range, s):
    """The blocks (lo, hi) of a probe on s: k_range, or default_k_range(s)
    if it is None.  An empty range, hi < lo, raises ValueError."""
    lo, hi = default_k_range(s) if k_range is None else (int(k_range[0]), int(k_range[1]))
    if hi < lo:
        raise ValueError(f"empty block range {lo}..{hi}")
    return lo, hi


def square_function_norm(s: CompactSignal, k_range=None) -> float:
    """Rectangle-rule L1 norm of (sum_k |Delta_k f|^2)^{1/2} over the blocks
    of _probe_range(k_range, s)."""
    lo, hi = _probe_range(k_range, s)
    ks = range(lo, hi + 1)
    return float(s.h * np.sum(_square_function(_blocks(s, ks), s.size)))


_GL_NODES = 64


@functools.cache
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use: leggauss(64) takes milliseconds, too long to run at import."""
    return np.polynomial.legendre.leggauss(n)


def _block_points(ks):
    """The |xi|^-1 density's nodes and weights on the signed blocks
    +-[2^k, 2^{k+1}), one row for each k in ks: the Gauss-Legendre nodes of
    [2^k, 2^{k+1}) and their negatives, and the Gauss-Legendre weights
    times |xi|^-1."""
    gx, gw = _gauss_legendre(_GL_NODES)
    lo = np.ldexp(1.0, np.asarray(ks, dtype=np.int64))[:, None]
    hi = 2.0 * lo
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xs_pos, ws = mid + rad * gx, rad * gw
    xs = np.concatenate([xs_pos, -xs_pos], axis=1)
    return xs, np.concatenate([ws, ws], axis=1) * (1.0 / np.abs(xs))


@dataclass(frozen=True)
class _DensityPlan:
    """The gridding plan of one density block on one window, read-only:
    its signed nodes xs and weights ws (_block_points), and for each node
    its bin, floor(4 L xi) (plus the offset of _spectrum_rows: the row of
    its first tap), and its Gaussian weights (_weights)."""

    xs: np.ndarray
    ws: np.ndarray
    bins: np.ndarray
    weights: np.ndarray


# Plans kept at once: about 59 KiB each, the (128, 28) complex Gaussian
# weights and three 128-vectors, so about 1.9 MiB in all; the corpus
# window's Paley blocks -10..4 take 15, 0.87 MiB, and its Zygmund blocks
# -2..4 are among them.
_PLANS = 32


@functools.lru_cache(maxsize=_PLANS)
def _density_block(half_width, k):
    """The plan of the signed density block k on the window [-L, L), L =
    half_width: the part of mu_l2_sq that depends on the nodes alone, which
    every signal on the window shares.  The cache hands every caller the
    same arrays, so they are read-only.  Build it only for a block inside
    the band of some signal on the window, whose bins fit in int64."""
    xs, ws = (row[0] for row in _block_points([k]))
    u = (4.0 * half_width) * xs          # in bins, as in fourier_transform
    lo = np.floor(u)
    plan = _DensityPlan(xs, ws, lo.astype(np.int64), _weights((u - lo)[:, None]))
    for a in (plan.xs, plan.ws, plan.bins, plan.weights):
        a.flags.writeable = False
    return plan


@dataclass(frozen=True)
class PaleyMeasure:
    """Non-negative measure on R, as plain data: atoms (xi, w), or the
    density |xi|^-1 on the signed blocks +-[2^k, 2^{k+1}), k_min <= k <= k_max.

    gap > 0 declares that the measure vanishes on [-gap, gap].
    """

    kind: str                   # 'atoms' | 'density'
    atoms: tuple = ()
    k_min: int = 0
    k_max: int = 0
    gap: float = 0.0

    def __post_init__(self):
        if self.kind not in ("atoms", "density"):
            raise ValueError(f"kind must be 'atoms' or 'density', got {self.kind!r}")
        if self.kind == "density":
            if self.k_max < self.k_min:
                raise ValueError("k_max must be >= k_min")
            # below block -1022 the nodes are subnormal or 0; past 1022, 2^{k+1} overflows
            if self.k_min < -1022 or self.k_max > 1022:
                raise ValueError("density blocks must lie in -1022..1022, "
                                 f"got {self.k_min}..{self.k_max}")
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ValueError(f"gap must be finite and >= 0, got {self.gap}")
        for xi, w in self.atoms:
            if not (math.isfinite(xi) and math.isfinite(w)):
                raise ValueError(f"atom ({xi}, {w}) is not finite")
            if w < 0:
                raise ValueError("atom weights must be non-negative")
            if self.gap > 0 and abs(xi) <= self.gap and w > 0:
                raise ValueError("an atom sits inside the declared gap")

    @staticmethod
    def from_atoms(pairs, gap=0.0):
        return PaleyMeasure(kind="atoms", atoms=tuple((float(xi), float(w)) for xi, w in pairs),
                            gap=float(gap))

    @staticmethod
    def inverse_abs(k_min, k_max):
        """Density |xi|^{-1} restricted to the blocks k_min..k_max, which
        vanishes on [-2^k_min, 2^k_min].  The block range is checked before
        the gap is computed."""
        mu = PaleyMeasure(kind="density", k_min=int(k_min), k_max=int(k_max))
        return replace(mu, gap=2.0 ** mu.k_min)

    def block_nodes(self, k):
        """The nodes and weights of the signed block +-[2^k, 2^{k+1}), as
        _nodes gives them: a density block's Gauss-Legendre nodes and
        weights times |xi|^-1, or the atoms in the block; none for a block
        outside the measure."""
        xs, ws, _ = self._nodes((k, k))
        return xs.ravel(), ws.ravel()

    def _nodes(self, k_range):
        """(xs, ws, ks): the nodes and weights of the signed blocks
        +-[2^k, 2^{k+1}) of k_range as (rows, nodes) arrays, and the block of
        each row.  A density has one row per block of the measure in range,
        its Gauss-Legendre nodes and their weights times |xi|^-1.  Atoms have
        one row per atom of positive weight in those blocks, in order, the
        block of an atom being the exponent of np.frexp(|xi|) less one.  k_range=None keeps every
        density block and every atom, one at 0 too, which is in no block."""
        if self.kind == "atoms":
            nodes = np.array([a for a in self.atoms if a[1] > 0]).reshape(-1, 2)
            ks = np.frexp(np.abs(nodes[:, 0]))[1] - 1
            if k_range is not None:
                keep = (nodes[:, 0] != 0) & (int(k_range[0]) <= ks) & (ks <= int(k_range[1]))
                nodes, ks = nodes[keep], ks[keep]
            return nodes[:, :1], nodes[:, 1:], ks
        blocks = self._density_blocks(k_range)
        ks = np.arange(blocks.start, blocks.stop)
        return (*_block_points(ks), ks)

    def _density_blocks(self, k_range):
        """The density blocks in k_range, or all of them for None, as a
        range."""
        k_lo, k_hi = self.k_min, self.k_max
        if k_range is not None:
            k_lo, k_hi = max(int(k_range[0]), k_lo), min(int(k_range[1]), k_hi)
        return range(k_lo, k_hi + 1)

    def block_mass(self, k):
        return self.block_masses(k, k)[0]

    def block_masses(self, k_lo, k_hi):
        """The mass of each signed block k_lo..k_hi, in one pass, as
        _sum_by_block gives it for that block alone: the row sums of the
        _nodes weights of the range, added into their blocks in order (a
        density block is one row, an atom block its atoms from 0.0); a block
        outside the measure has mass 0.0.  A range of more blocks than the
        grid budget (torus.check_budget) raises ValueError first."""
        k_lo, k_hi = int(k_lo), int(k_hi)
        count = max(0, k_hi - k_lo + 1)
        check_budget(count, f"the mass table of blocks {k_lo}..{k_hi}")
        _, ws, ks = self._nodes((k_lo, k_hi))
        masses = np.zeros(count)
        np.add.at(masses, ks - k_lo, ws.sum(axis=1))
        return masses.tolist()


def _sum_by_block(terms):
    """The sum of a (blocks, nodes) array of _nodes terms: each block summed
    on its own, then the blocks in order, so that a block contributes the
    same number to any range that holds it."""
    total = 0.0
    for block in terms.sum(axis=1).tolist():
        total += block
    return total


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
    masses = tuple(mu.block_masses(k_lo, k_hi))
    verdict = "diverging" if _diverging(masses) else "bounded-in-range"
    return PaleySupReport(sup=max(masses, default=0.0), k_range=(k_lo, k_hi),
                          masses=masses, verdict=verdict)


def mu_l2_sq(mu: PaleyMeasure, s: CompactSignal, k_range=None) -> float:
    """int |f_hat|^2 dmu over the blocks in range, at the nodes of
    PaleyMeasure._nodes, which are exact atom evaluations or per-block
    quadrature for densities.  Atoms take one fourier_transform; a density
    takes one gridding pass per block, by its plan (_density_block), on one
    spectrum of s, which gives the bits of fourier_transform at the block's
    nodes.  The terms are summed by _sum_by_block.  An atom counts
    when its signed block +-[2^k, 2^{k+1}) is in range, as in block_mass;
    k_range=None keeps every atom."""
    if mu.kind == "atoms":
        xs, ws, _ = mu._nodes(k_range)
        fhat = fourier_transform(s, xs.ravel()).reshape(xs.shape)
        return _sum_by_block(ws * np.abs(fhat) ** 2)
    ks = mu._density_blocks(k_range)
    if not ks:
        return 0.0
    # every node of block k lies below 2^{k+1}: if the top block's end is in
    # the band the range is, and otherwise its blocks are checked in order,
    # by their largest |xi|, to name the first block out of the band
    if not _in_band(s, 2.0 ** (ks[-1] + 1)):
        for k, xs in zip(ks, _block_points(ks)[0]):
            _check_band(s, xs.max(), f"block {k}")
    plans = [_density_block(s.half_width, k) for k in ks]
    rows, offset, gain = _spectrum_rows(s)
    out = np.empty((len(plans), 2 * _GL_NODES), dtype=np.complex128)
    for plan, row in zip(plans, out):
        _grid_pass(rows, plan.weights, plan.bins + offset, row)
    ws = np.array([plan.ws for plan in plans])
    return _sum_by_block(ws * np.abs(gain * out) ** 2)


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
    kr = (0, 0) if k_range is None else _probe_range(k_range, None)
    for i, s in enumerate(signals):
        kr = _probe_range(k_range, s)
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
    x = _sample_points(L, size)
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


def rudin_counterexample(mu: PaleyMeasure, J, k_search_max=None) -> RudinReport:
    """Witness series against the weighted L2 inequality for a measure with
    unbounded dyadic blocks.

    Picks block indices k_1 < k_2 < ... greedily with k_{j+1} > 5 k_j and
    mu(I_{k_j}) >= j^4 (starting the search at k = 0 so that J = 6 stays
    inside the float range), builds f_hat = sum_j j^{-2} eta(2^{-k_j} xi),
    and evaluates each block integral int_{I_{k_j}} |f_hat|^2 dmu exactly in
    the frequency domain.  The partial sums are sampled on the corpus
    window, for the blocks up to its default_k_range top.  If no qualifying
    block exists the measure looks Paley in range and the construction is
    refused.
    """
    J = int(J)
    if J < 1:
        raise ValueError("J must be >= 1")
    if k_search_max is None:
        k_search_max = 1000 if mu.kind == "atoms" else mu.k_max
    masses = mu.block_masses(0, k_search_max)
    ks = []
    k = 0
    for j in range(1, J + 1):
        found = None
        while k <= k_search_max:
            if masses[k] >= j ** 4:
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
        floors.append(masses[kj] / j ** 4)
        xs, ws, _ = mu._nodes((kj, kj))
        witnesses.append(_sum_by_block(ws * fhat_at(xs) ** 2))

    L, M = _CORPUS_HALF_WIDTH, _CORPUS_SIZE
    top = default_k_range(_corpus_window())[1]
    x = _sample_points(L, M)
    partials = []
    acc = np.zeros(M)
    for j, kj in enumerate(ks, start=1):
        if kj > top:
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
    k_range = _probe_range(k_range, f)
    lhs = math.sqrt(mu_l2_sq(mu, f, k_range))
    rhs = 1.0 + f.orlicz_half()
    return LineZygmundReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, k_range=k_range,
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


def product_paley_sup_2d(mu: PaleyMeasure, nu: PaleyMeasure, k_range) -> ProductPaleyReport:
    """Sup of (mu x nu) over the block rectangles I_j x I_k in range: the
    product of the 1D sups.  (mu x nu)(I_j x I_k) = mu(I_j) nu(I_k), and a
    rounded product of non-negative floats grows with each factor, so the
    largest rounded product is the rounded product of the largest masses,
    bit for bit."""
    rep_mu = paley_sup(mu, k_range)
    rep_nu = paley_sup(nu, k_range)
    verdict = ("diverging" if "diverging" in (rep_mu.verdict, rep_nu.verdict)
               else "bounded-in-range")
    return ProductPaleyReport(sup=rep_mu.sup * rep_nu.sup, factor_sups=(rep_mu.sup, rep_nu.sup),
                              verdict=verdict)


# Every corpus signal: _CORPUS_BUMPS bumps sampled at _CORPUS_SIZE points on
# [-_CORPUS_HALF_WIDTH, _CORPUS_HALF_WIDTH); the Rudin partial sums share the
# window.
_CORPUS_HALF_WIDTH = 4.0
_CORPUS_SIZE = 2048
_CORPUS_BUMPS = 3


def _corpus_window() -> CompactSignal:
    """The zero signal on the corpus window: its band and default_k_range,
    known before any corpus signal is drawn."""
    return CompactSignal(np.zeros(_CORPUS_SIZE), _CORPUS_HALF_WIDTH)


def random_mean_zero_corpus(count, seed=513):
    """Seeded smooth mean-zero signals: random modulated Gaussian bumps under
    a window, centred by the raised-cosine reduction.  A negative seed
    raises ValueError."""
    check_seed(seed)
    check_budget(count * _CORPUS_SIZE, f"a corpus of {count} signals of {_CORPUS_SIZE} samples")
    out = []
    L = _CORPUS_HALF_WIDTH
    h = 2.0 * L / _CORPUS_SIZE
    x = _sample_points(L, _CORPUS_SIZE)
    window_taper = np.cos(np.pi * x / (2 * L)) ** 2
    for t in range(count):
        rng = np.random.default_rng([seed, t])
        vals = np.zeros(_CORPUS_SIZE, dtype=np.complex128)
        for _ in range(_CORPUS_BUMPS):
            centre = rng.uniform(-0.5 * L, 0.5 * L)
            width = rng.uniform(0.08 * L, 0.3 * L)
            freq = rng.uniform(0.0, 1.0 / (16.0 * h))
            amp = complex(*rng.standard_normal(2))
            vals += amp * np.exp(-((x - centre) / width) ** 2) * np.exp(2j * np.pi * freq * x)
        s = CompactSignal(vals * window_taper, L)
        out.append(mean_zero_reduction(s))
    return out
