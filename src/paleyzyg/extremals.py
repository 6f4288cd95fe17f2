"""Extremal constructions: Fejer and de la Vallee Poussin kernels, the
log^{1/2} sharpness sweep, and the Ingham-series example.

The Fejer kernel of order n carries coefficients 1 - |j|/(n+1) for |j| <= n,
so its L1 norm is exactly 1 (positivity) and its value at 0 is n+1.  The de
la Vallee Poussin kernel combines two of them, 2 K_{2^{N+1}-1} - K_{2^N-1},
whose coefficients have the closed form min(1, 2 - |n|/2^N): flat
(coefficient 1) on |n| <= 2^N, and the first coefficient past the flat part
is 1 - 2^-N.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multipliers import MultiplierSeq
# synthesize is unused here but stays bound: perfbench/tests checks that a
# traced run rebinds a name one module imports from another.
from .torus import (SUP_L1_FACTOR, TrigPoly, _grid_readings, _orlicz_term, check_budget,
                    grid_size, synthesize, weighted_l2)


def fejer(n: int) -> TrigPoly:
    """Fejer kernel of order n: coefficients 1 - |j|/(n+1), |j| <= n."""
    n = int(n)
    if n < 1:
        raise ValueError("order must be >= 1")
    check_budget(2 * n + 1, f"Fejer kernel of order {n}")
    j = np.arange(-n, n + 1)
    c = 1.0 - np.abs(j) / (n + 1.0)
    return TrigPoly.from_arrays(1, j, c)


def vallee_poussin(N: int) -> TrigPoly:
    """V_{2^N} = 2 K_{2^{N+1}-1} - K_{2^N-1}, built from its closed form:
    coefficients min(1, 2 - |j|/2^N) for |j| <= 2^{N+1} - 1, flat 1 on
    |j| <= 2^N.  Every operation on the way is exact in floating point, so
    the table equals the combination of the two Fejer tables bit for bit."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    n = 2 ** (N + 1) - 1
    check_budget(2 * n + 1, f"de la Vallee Poussin kernel V_{2 ** N}")
    j = np.arange(-n, n + 1)
    c = np.minimum(1.0, 2.0 - np.abs(j) / 2.0 ** N)
    return TrigPoly.from_arrays(1, j, c)


def _ols_slope(xs, ys):
    """Least-squares (slope, intercept) of log ys against log xs."""
    if len(set(xs)) < 2:
        raise ValueError(f"a slope needs at least 2 distinct x values, got {sorted(set(xs))}")
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1])


@dataclass(frozen=True)
class SharpnessTable:
    """Rows per N of the weighted l2 size of V_{2^N} against its Orlicz
    functionals, with fitted log-log slopes."""

    n_values: tuple
    r_values: tuple
    lhs: tuple                  # weighted_l2(V_{2^N}, inverse-sqrt)
    phi: dict                   # r -> tuple of functionals per N
    ratios: dict                # r -> tuple lhs/(1+phi) per N
    lhs_slope: float
    phi_slopes: dict
    grids: tuple


def sharpness_experiment(n_range, r_list=(0.25, 0.5)) -> SharpnessTable:
    """Sweep N over n_range: exact weighted l2 of V_{2^N} under the
    inverse-sqrt weight versus the Orlicz functionals Phi_r on grids of
    grid_size(degree, SUP_L1_FACTOR) = 2^{N+4} points, every r read in one
    blocked pass over the samples."""
    n_values = tuple(int(N) for N in n_range)
    if any(N < 1 for N in n_values):
        raise ValueError("N values must be >= 1")
    terms = [_orlicz_term(r) for r in r_list]
    r_values = tuple(r for _, r in terms)
    lhs, grids = [], []
    phi = {r: [] for r in r_values}
    for N in n_values:
        vp = vallee_poussin(N)
        m = MultiplierSeq.inverse_sqrt(2 ** (N + 1))
        lhs.append(weighted_l2(vp, m))
        M = grid_size(2 ** (N + 1) - 1, SUP_L1_FACTOR)     # the degree of V_{2^N}
        grids.append(M)
        for r, value in zip(r_values, _grid_readings(vp.freqs, vp.values, M, terms)):
            phi[r].append(value)
    ratios = {r: tuple(lhs[i] / (1.0 + phi[r][i]) for i in range(len(n_values)))
              for r in r_values}
    lhs_slope, _ = _ols_slope(n_values, lhs)
    phi_slopes = {r: _ols_slope(n_values, phi[r])[0] for r in r_values}
    return SharpnessTable(
        n_values=n_values, r_values=r_values, lhs=tuple(lhs),
        phi={r: tuple(v) for r, v in phi.items()}, ratios=ratios,
        lhs_slope=lhs_slope, phi_slopes=phi_slopes, grids=tuple(grids))


def _ingham_coefficients(gamma, c, n_lo, n_hi):
    """Frequencies n_lo..n_hi and the coefficients a_n = e^{2 pi i n (ln n)^gamma}
    / (n^{1/2} (ln n)^c) of the Ingham series.

    Parameters must satisfy 0 < gamma < 1 and (gamma+1)/2 < c <= 1, the
    window in which the full series converges uniformly.
    """
    gamma = float(gamma)
    c = float(c)
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if not ((gamma + 1.0) / 2.0 < c <= 1.0):
        raise ValueError("c must lie in ((gamma+1)/2, 1]")
    if not (2 <= n_lo <= n_hi):
        raise ValueError("the series runs over frequencies n >= 2")
    n = np.arange(n_lo, n_hi + 1)
    ln = np.log(n)
    return n, np.exp(2j * np.pi * n * ln ** gamma) / (np.sqrt(n) * ln ** c)


def ingham_partial_sum(gamma, c, M) -> TrigPoly:
    """Partial sum S_M of the modulated series sum_{n >= 2} a_n e^{2 pi i n x}
    (see _ingham_coefficients for a_n and the parameter window)."""
    M = int(M)
    if M < 3:
        raise ValueError("M must be >= 3")
    n, a = _ingham_coefficients(gamma, c, 2, M)
    return TrigPoly.from_arrays(1, n, a)


def ingham_tail_sup(gamma, c, M) -> float:
    """Grid sup-norm of S_{2M} - S_M (frequencies M+1 .. 2M), a probe of the
    cited uniform convergence."""
    M = int(M)
    G = grid_size(2 * M, SUP_L1_FACTOR)
    check_budget(G, f"Ingham tail grid for M = {M}")
    n, a = _ingham_coefficients(gamma, c, M + 1, 2 * M)
    return _grid_readings(n[:, None], a, G, [(math.inf, 0)])[0]


@dataclass(frozen=True)
class DivergenceReport:
    partial_sum: float
    integral_estimate: float        # closed form int_2^M dx / (x ln^c x)
    corrected_estimate: float       # integral + f(2)/2 (first Euler-Maclaurin term)
    c: float
    M: int


def sidon_weight_divergence(c, M) -> DivergenceReport:
    """Partial sum of sum_{2 <= n <= M} 1/(n (ln n)^c) with integral cross-checks.

    The closed-form integral ((ln M)^{1-c} - (ln 2)^{1-c}) / (1-c)
    underestimates the sum by about f(2)/2; the corrected estimate adds that
    endpoint term and tracks the sum to well under 5 percent at M = 10^6.
    """
    c = float(c)
    M = int(M)
    if not (0.0 < c <= 1.0):
        raise ValueError("c must lie in (0, 1]")
    if M < 2:
        raise ValueError("M must be >= 2")
    check_budget(M - 1, f"weight sum up to M = {M}")
    n = np.arange(2, M + 1, dtype=float)
    partial = float(np.sum(1.0 / (n * np.log(n) ** c)))
    if c == 1.0:
        integral = math.log(math.log(M)) - math.log(math.log(2.0))
    else:
        integral = (math.log(M) ** (1.0 - c) - math.log(2.0) ** (1.0 - c)) / (1.0 - c)
    f2 = 1.0 / (2.0 * math.log(2.0) ** c)
    return DivergenceReport(partial_sum=partial, integral_estimate=integral,
                            corrected_estimate=integral + 0.5 * f2, c=c, M=M)


def ingham_weight_trend(gamma, c, m_values):
    """Rows (M, weighted coefficient sum, grid sup, ratio) for the partial
    sums S_M under the inverse-sqrt weight.

    The numerator sum_{2<=n<=M} 1/(n (ln n)^c) diverges in M while the sup
    norms stay bounded, so the ratio grows without bound: the weight is not
    sup-norm dominated on this spectrum.  Reported as a trend, not a proof.
    """
    rows = []
    for M in m_values:
        M = int(M)
        p = ingham_partial_sum(gamma, c, M)
        num = sidon_weight_divergence(c, M).partial_sum
        sup = _grid_readings(p.freqs, p.values, grid_size(M, SUP_L1_FACTOR), [(math.inf, 0)])[0]
        rows.append((M, num, sup, num / sup))
    return rows
