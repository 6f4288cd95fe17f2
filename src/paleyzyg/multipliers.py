"""Multiplier sequences, the dyadic block-sum criterion, and multiplier application.

A multiplier is bounded-up-to-horizon from the H1 -> L2 point of view exactly
when its dyadic block sums sup_k sum_{2^k <= |n| <= 2^{k+1}} |m(n)|^2 stay
bounded; the report below evaluates those sums at dyadic endpoints (any
interval [N, 2N] sits inside two dyadic blocks, so the dyadic sup is
equivalent up to a factor 2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectra import FrequencySet
from .torus import TrigPoly, check_budget, periodic_square_function_norm, weighted_l2


@dataclass(frozen=True)
class MultiplierSeq:
    """Bounded weight m : Z -> C with a truncation horizon.

    Forms: 'inverse-sqrt' (m(n) = 1/sqrt|n|, m(0) = 0, optionally restricted
    to n > 0), 'indicator' of a frequency set, 'table' (explicit map), and
    'constant'.
    """

    form: str
    horizon: int
    params: dict

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @staticmethod
    def inverse_sqrt(horizon, positive_only=False):
        return MultiplierSeq("inverse-sqrt", int(horizon), {"positive_only": bool(positive_only)})

    @staticmethod
    def indicator(freqs: FrequencySet, horizon=None):
        if freqs.dim != 1:
            raise ValueError("indicator multipliers are 1D")
        elems = freqs.sorted_elements()
        if horizon is None:
            horizon = max((abs(n) for n in elems), default=1) or 1
        return MultiplierSeq("indicator", int(horizon), {"set": frozenset(elems)})

    @staticmethod
    def table(values: dict, horizon=None):
        tbl = {int(n): complex(c) for n, c in values.items() if complex(c) != 0}
        if horizon is None:
            horizon = max((abs(n) for n in tbl), default=1) or 1
        return MultiplierSeq("table", int(horizon), {"values": tbl})

    @staticmethod
    def constant(c, horizon):
        return MultiplierSeq("constant", int(horizon), {"value": complex(c)})

    def value_at(self, n):
        return complex(self.values_at([n])[0])

    def values_at(self, ns):
        """m(n) for every n of an integer array, as a complex array of its shape."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.form == "inverse-sqrt":
            out = np.zeros(ns.shape, dtype=np.complex128)
            mask = ns > 0 if self.params["positive_only"] else ns != 0
            out[mask] = 1.0 / np.sqrt(np.abs(ns[mask]).astype(float))
            return out
        if self.form == "constant":
            return np.full(ns.shape, self.params["value"], dtype=np.complex128)
        if self.form == "indicator":
            members = np.fromiter(self.params["set"], dtype=np.int64,
                                  count=len(self.params["set"]))
            return np.isin(ns, members).astype(np.complex128)
        if self.form == "table":
            tbl = self.params["values"]
            return np.array([tbl.get(n, 0j) for n in ns.ravel().tolist()],
                            dtype=np.complex128).reshape(ns.shape)
        raise ValueError(f"unknown form {self.form!r}")

    def sup_norm(self):
        if self.form == "inverse-sqrt":
            return 1.0
        if self.form == "indicator":
            return 1.0 if self.params["set"] else 0.0
        if self.form == "table":
            return max((abs(c) for c in self.params["values"].values()), default=0.0)
        return abs(self.params["value"])


@dataclass(frozen=True)
class PaleyReport:
    block_sums: tuple
    sup: float
    verdict: str  # 'bounded-up-to-horizon' | 'diverging'

    def block(self, k):
        return self.block_sums[k]


def _diverging(sums):
    """Finite-horizon divergence flag on a block-size sequence: monotone
    non-decreasing over the last half with strict net growth there.  A finite
    sweep cannot certify divergence, only flag the trend."""
    K = len(sums) - 1
    if K < 3:
        return False
    half = sums[K - K // 2:]
    if any(half[i + 1] < half[i] for i in range(len(half) - 1)):
        return False
    return half[-1] > half[0]


def paley_block_sums(m: MultiplierSeq, K) -> PaleyReport:
    """Block sums s_k = sum_{2^k <= |n| <= 2^{k+1}} |m(n)|^2 for k = 0..K.

    Blocks are inclusive at both dyadic endpoints (overlap at powers of two
    affects constants only).  Requires 2^(K+1) <= horizon.
    """
    K = int(K)
    if K < 0:
        raise ValueError("K must be >= 0")
    if 2 ** (K + 1) > m.horizon:
        raise ValueError(f"horizon {m.horizon} too small for K={K}; need >= {2 ** (K + 1)}")
    check_budget(2 ** K + 1, f"block {K}")
    sums = []
    for k in range(K + 1):
        ns = np.arange(2 ** k, 2 ** (k + 1) + 1, dtype=np.int64)
        vals = m.values_at(ns)
        s = float(np.sum(np.abs(vals) ** 2))
        vals_neg = m.values_at(-ns)
        s += float(np.sum(np.abs(vals_neg) ** 2))
        sums.append(s)
    sup = max(sums)
    verdict = "diverging" if _diverging(sums) else "bounded-up-to-horizon"
    return PaleyReport(tuple(sums), sup, verdict)


def apply(m: MultiplierSeq, p: TrigPoly) -> TrigPoly:
    """Coefficient-wise product m(n) * f_hat(n); support must fit the horizon."""
    if p.dim != 1:
        raise ValueError("multiplier application is 1D")
    if p.degree > m.horizon:
        raise ValueError("polynomial support exceeds multiplier horizon")
    n = p.freqs[:, 0]
    return TrigPoly.from_arrays(1, n, m.values_at(n) * p.values)


def h1_paley_ratio(m: MultiplierSeq, p: TrigPoly) -> float:
    """weighted_l2(p, m) / periodic_square_function_norm(p) on the zero-mean part.

    The square-function blocks never see frequency 0, so a nonzero mean
    coefficient is excluded from the numerator as well (callers wanting the
    mean term can add |m(0) f_hat(0)| themselves).  Returns nan when the
    square-function norm vanishes (zero polynomial or support {0}).
    """
    denom = periodic_square_function_norm(p)
    centred = TrigPoly(1, {n: c for n, c in p.coeffs.items() if n != 0})
    num = weighted_l2(centred, m)
    if denom == 0.0:
        return math.nan
    return num / denom
