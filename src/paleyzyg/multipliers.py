"""Multiplier sequences, the dyadic block-sum criterion, and multiplier application.

A multiplier is bounded-up-to-horizon from the H1 -> L2 point of view exactly
when its dyadic block sums sup_k sum_{2^k <= |n| <= 2^{k+1}} |m(n)|^2 stay
bounded; the report below evaluates those sums at dyadic endpoints (any
interval [N, 2N] sits inside two dyadic blocks, so the dyadic sup is
equivalent up to a factor 2).

The tabulated forms, an indicator of a set and an explicit table, are one
sorted key array and its values (float64 and complex128), built once and
searched by ``values_at``: a chunk of points costs O(log |table|) a point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectra import FrequencySet
from .torus import (TrigPoly, _chunked_sum, _int_keys, check_budget,
                    periodic_square_function_norm, weighted_l2)


@dataclass(frozen=True)
class MultiplierSeq:
    """Bounded weight m : Z -> C with a truncation horizon.

    Forms: 'inverse-sqrt' (m(n) = 1/sqrt|n|, m(0) = 0, optionally restricted
    to n > 0), 'indicator' of a frequency set, 'table' (explicit map), and
    'constant'.  A tabulated form's keys are checked by torus._int_keys, and
    its horizon defaults to max |n| over them, or 1.
    """

    form: str
    horizon: int
    params: dict

    def __post_init__(self):
        if self.form in ("indicator", "table"):
            # a call to values_at then has no O(|table|) set-up, so chunked
            # callers (paley_block_sums) may call it many times
            if self.form == "indicator":
                table, dtype = dict.fromkeys(self.params["set"], 1.0), np.float64
            else:
                table, dtype = self.params["values"], np.complex128
            keys = _int_keys(list(table), 1)
            order = np.argsort(keys)
            object.__setattr__(self, "_keys", keys[order])
            object.__setattr__(self, "_values", np.array(list(table.values()), dtype=dtype)[order])
            top = int(np.abs(keys).max(initial=0)) or 1
            object.__setattr__(self, "horizon", top if self.horizon is None else int(self.horizon))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @staticmethod
    def inverse_sqrt(horizon, positive_only=False):
        return MultiplierSeq("inverse-sqrt", int(horizon), {"positive_only": bool(positive_only)})

    @staticmethod
    def indicator(freqs: FrequencySet, horizon=None):
        if freqs.dim != 1:
            raise ValueError("indicator multipliers are 1D")
        return MultiplierSeq("indicator", horizon, {"set": freqs.elements})

    @staticmethod
    def table(values: dict, horizon=None):
        tbl = {n: complex(c) for n, c in values.items() if complex(c) != 0}
        return MultiplierSeq("table", horizon, {"values": tbl})

    @staticmethod
    def constant(c, horizon):
        return MultiplierSeq("constant", int(horizon), {"value": complex(c)})

    def value_at(self, n):
        return complex(self.values_at([n])[0])

    def values_at(self, ns):
        """m(n) for every n of an integer array, as an array of its shape:
        float64 for the real forms, 'inverse-sqrt' and 'indicator', and
        complex128 for 'constant' and 'table'."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.form == "inverse-sqrt":
            out = np.zeros(ns.shape)
            mask = ns > 0 if self.params["positive_only"] else ns != 0
            out[mask] = 1.0 / np.sqrt(np.abs(ns[mask]).astype(float))
            return out
        if self.form == "constant":
            return np.full(ns.shape, self.params["value"], dtype=np.complex128)
        if self.form in ("indicator", "table"):
            if not self._keys.size:
                return np.zeros(ns.shape, dtype=self._values.dtype)
            # keys[at] <= n < keys[at + 1]; at = -1 reads keys[0] > n
            at = np.searchsorted(self._keys, ns, side="right") - 1
            return np.where(self._keys.take(at, mode="clip") == ns,
                            self._values.take(at, mode="clip"), 0)
        raise ValueError(f"unknown form {self.form!r}")

    def sup_norm(self):
        if self.form == "inverse-sqrt":
            return 1.0
        if self.form in ("indicator", "table"):
            return float(np.abs(self._values).max(initial=0.0))
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


def _abs_squares(m, first, step):
    """The fill, for _chunked_sum, of the terms |m(first + step * i)|^2."""
    def fill(lo, out):
        start = first + step * lo
        np.abs(m.values_at(np.arange(start, start + step * len(out), step)), out=out)
        out **= 2
    return fill


def paley_block_sums(m: MultiplierSeq, K) -> PaleyReport:
    """Block sums s_k = sum_{2^k <= |n| <= 2^{k+1}} |m(n)|^2 for k = 0..K.

    Blocks are inclusive at both dyadic endpoints (overlap at powers of two
    affects constants only).  Requires 2^(K+1) <= horizon.  Each s_k is the
    sum over n > 0 plus the sum over n < 0, each summed by _chunked_sum in
    a prefix of one buffer of 2^K + 1 floats, with the bits of
    np.sum(np.abs(m.values_at(ns)) ** 2) over the whole half-block.
    """
    K = int(K)
    if K < 0:
        raise ValueError("K must be >= 0")
    if 2 ** (K + 1) > m.horizon:
        raise ValueError(f"horizon {m.horizon} too small for K={K}; need >= {2 ** (K + 1)}")
    check_budget(2 ** K + 1, f"block {K}")
    buf = np.empty(2 ** K + 1)
    sums = []
    for k in range(K + 1):
        run = buf[:2 ** k + 1]
        s = _chunked_sum(run, _abs_squares(m, 2 ** k, 1))
        s += _chunked_sum(run, _abs_squares(m, -2 ** k, -1))
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
    nonzero = p.freqs[:, 0] != 0
    centred = TrigPoly.from_arrays(1, p.freqs[nonzero, 0], p.values[nonzero])
    num = weighted_l2(centred, m)
    if denom == 0.0:
        return math.nan
    return num / denom
