"""Lacunary sequences, dyadic block combinatorics, sumsets, and product spectra."""

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .torus import _int_keys, check_budget


@dataclass(frozen=True)
class LacunarySeq:
    """Strictly increasing positive integers with inf ratio > 1.

    A singleton is trivially lacunary (the ratio infimum over an empty pair
    set is +inf).  Terms are ints of any size; a term that is not an integer
    raises TypeError (operator.index) rather than being truncated.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(operator.index(t) for t in self.terms)
        if not terms:
            raise ValueError("empty sequence")
        if terms[0] < 1:
            raise ValueError("terms must be positive")
        for i in range(1, len(terms)):
            if terms[i] <= terms[i - 1]:
                raise ValueError(f"not strictly increasing at index {i}: "
                                 f"{terms[i - 1]} -> {terms[i]}")
        object.__setattr__(self, "terms", terms)
        if self.ratio <= 1.0:
            bad = min(range(len(terms) - 1), key=lambda i: terms[i + 1] / terms[i])
            raise ValueError(f"ratio {self.ratio} <= 1 at index {bad}")

    @property
    def ratio(self):
        return min((self.terms[i + 1] / self.terms[i] for i in range(len(self.terms) - 1)),
                   default=math.inf)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class FrequencySet:
    """Finite duplicate-free set of integer frequencies (1D ints or nD
    tuples), validated by the one key rule, torus._int_keys."""

    dim: int
    elements: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        keys = _int_keys(list(self.elements), self.dim).tolist()
        object.__setattr__(self, "elements", frozenset(keys if self.dim == 1 else map(tuple, keys)))

    def __len__(self):
        return len(self.elements)

    def sorted_elements(self):
        return sorted(self.elements)


class DyadicBlocks:
    """The two integer block schemes used throughout.

    signed:  +-[2**k, 2**(k+1)) indexed by |n| (k >= 0 for integers)
    shifted: [2**k - 1, 2**(k+1) - 2] covering the non-negative integers,
             with block 0 = {0}
    """

    @staticmethod
    def signed_block_of(n):
        n = abs(int(n))
        if n == 0:
            raise ValueError("0 belongs to no signed dyadic block")
        return n.bit_length() - 1

    @staticmethod
    def shifted_block_of(n):
        n = int(n)
        if n < 0:
            raise ValueError("shifted blocks cover the non-negative integers")
        return (n + 1).bit_length() - 1

    @staticmethod
    def shifted_block_range(k):
        if k < 0:
            raise ValueError("block index must be >= 0")
        return (2 ** k - 1, 2 ** (k + 1) - 2)


def geometric_lacunary(ratio, count, start=1):
    """Terms start * ratio**k for k = 0 .. count-1 (integer ratio >= 2)."""
    ratio = int(ratio)
    count = int(count)
    start = int(start)
    if ratio < 2:
        raise ValueError("ratio must be an integer >= 2")
    if count < 1 or start < 1:
        raise ValueError("count and start must be >= 1")
    top = start * ratio ** (count - 1)
    if top > 2 ** 62:
        raise ValueError("terms overflow the supported integer range")
    return LacunarySeq(tuple(start * ratio ** k for k in range(count)))


def block_counts(freqs: FrequencySet, K):
    """Counts of |n| in [2**k, 2**(k+1)) for k = 0..K, plus their sup.

    Elements are counted by absolute value; 0 is never counted.
    """
    if freqs.dim != 1:
        raise ValueError("block_counts is defined for 1D spectra")
    counts = [0] * (K + 1)
    for n in freqs.elements:
        if n == 0:
            continue
        k = DyadicBlocks.signed_block_of(n)
        if k <= K:
            counts[k] += 1
    return counts, max(counts, default=0)


def _signed_sums(terms, k):
    """The index tuples of combinations(range(len(terms)), k), as a
    (tuples, k) array, and their signed sums as a (tuples, 2**k) int64
    array, column j with the signs of product((1, -1), repeat=k)[j]."""
    combos = np.array(list(combinations(range(len(terms)), k)), dtype=np.intp).reshape(-1, k)
    signs = np.array(list(product((1, -1), repeat=k)), dtype=np.int64)
    return combos, np.array(terms, dtype=np.int64)[combos] @ signs.T


def _sumset(lam: LacunarySeq, k, cap):
    """(T, tuples, sums) for the signed k-fold sums of lam, after the checks
    of sumset_bonami: T terms are used, and tuples and sums are _signed_sums
    of the first T terms."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(lam.terms) < k:
        raise ValueError(f"need at least {k} terms, have {len(lam.terms)}")
    if 2 ** k > cap:
        raise ValueError(f"cap {cap} too small; need at least {2 ** k}")
    T = k
    while T + 1 <= len(lam.terms) and math.comb(T + 1, k) * 2 ** k <= cap:
        T += 1
    terms = lam.terms[:T]
    if sum(terms[-k:]) > np.iinfo(np.int64).max:
        raise ValueError(f"the {k}-fold sums of {terms[-k:]} do not fit in int64")
    check_budget(math.comb(T, k) * 2 ** k, f"signed {k}-fold sums of {T} terms")
    return (T, *_signed_sums(terms, k))


def sumset_bonami(lam: LacunarySeq, k, cap=4096):
    """All signed k-fold sums over strictly decreasing index tuples.

    Generates from the first T terms, with T the largest count whose raw
    sum count C(T, k) * 2**k stays within cap; duplicates merge.  Returns
    (FrequencySet, T) so runs are reproducible.  The sums are int64: a sum
    that cannot fit is refused, as is a raw count over the budget.
    """
    T, _, sums = _sumset(lam, k, cap)
    return FrequencySet(1, frozenset(sums.ravel().tolist())), T


def product_set(sets, cap=1 << 20):
    """Cartesian product of 1D frequency sets into an nD spectrum."""
    for s in sets:
        if s.dim != 1:
            raise ValueError("factors must be 1D")
    size = math.prod(len(s) for s in sets)
    if size > cap:
        raise ValueError(f"product size {size} exceeds cap {cap}")
    return FrequencySet(len(sets), frozenset(product(*(s.sorted_elements() for s in sets))))


def is_lacunary_with_ratio_in(seq, lo, hi):
    """Verdict on inf adjacent ratio in [lo, hi]; witness pair on failure.

    Sequences with fewer than two terms pass vacuously.  Returns
    (verdict, witness) with witness None or the first violating pair.
    """
    terms = LacunarySeq(tuple(seq)).terms
    for i in range(len(terms) - 1):
        r = terms[i + 1] / terms[i]
        if not (lo <= r <= hi):
            return False, (terms[i], terms[i + 1])
    return True, None
