"""Lacunary sequences, dyadic block combinatorics, sumsets, and product spectra."""

import math
from dataclasses import dataclass, field
from itertools import combinations, product


@dataclass(frozen=True)
class LacunarySeq:
    """Strictly increasing positive integers with inf ratio > 1.

    A singleton is trivially lacunary (the ratio infimum over an empty pair
    set is +inf).
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(int(t) for t in self.terms)
        if not terms:
            raise ValueError("empty sequence")
        if terms[0] < 1:
            raise ValueError("terms must be positive")
        for i in range(1, len(terms)):
            if terms[i] <= terms[i - 1]:
                raise ValueError(f"not strictly increasing at index {i}: "
                                 f"{terms[i - 1]} -> {terms[i]}")
        ratio = min((terms[i + 1] / terms[i] for i in range(len(terms) - 1)),
                    default=math.inf)
        if ratio <= 1.0:
            bad = min(range(len(terms) - 1), key=lambda i: terms[i + 1] / terms[i])
            raise ValueError(f"ratio {ratio} <= 1 at index {bad}")
        object.__setattr__(self, "terms", terms)

    @property
    def ratio(self):
        return min((self.terms[i + 1] / self.terms[i] for i in range(len(self.terms) - 1)),
                   default=math.inf)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class FrequencySet:
    """Finite duplicate-free set of integer frequencies (1D ints or nD tuples)."""

    dim: int
    elements: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        elems = set()
        for e in self.elements:
            if self.dim == 1:
                elems.add(int(e))
            else:
                t = tuple(int(v) for v in e)
                if len(t) != self.dim:
                    raise ValueError(f"element {e!r} has arity {len(t)}, expected {self.dim}")
                elems.add(t)
        object.__setattr__(self, "elements", frozenset(elems))

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


def sumset_bonami(lam: LacunarySeq, k, cap=4096):
    """All signed k-fold sums over strictly decreasing index tuples.

    Generates from the first T terms, with T the largest count whose raw
    sum count C(T, k) * 2**k stays within cap; duplicates merge.  Returns
    (FrequencySet, T) so runs are reproducible.
    """
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
    out = set()
    for tup in combinations(range(T), k):
        vals = [terms[i] for i in tup]
        for signs in product((1, -1), repeat=k):
            out.add(sum(s * v for s, v in zip(signs, vals)))
    return FrequencySet(1, frozenset(out)), T


def product_set(sets, cap=1 << 20):
    """Cartesian product of 1D frequency sets into an nD spectrum."""
    for s in sets:
        if s.dim != 1:
            raise ValueError("factors must be 1D")
    size = math.prod(len(s) for s in sets)
    if size > cap:
        raise ValueError(f"product size {size} exceeds cap {cap}")
    elems = set(product(*(s.sorted_elements() for s in sets)))
    return FrequencySet(len(sets), frozenset(elems))


def is_lacunary_with_ratio_in(seq, lo, hi):
    """Verdict on inf adjacent ratio in [lo, hi]; witness pair on failure.

    Sequences with fewer than two terms pass vacuously.  Returns
    (verdict, witness) with witness None or the first violating pair.
    """
    terms = [int(t) for t in seq]
    if not terms:
        raise ValueError("empty sequence")
    if any(t < 1 for t in terms):
        raise ValueError("terms must be positive")
    for i in range(1, len(terms)):
        if terms[i] <= terms[i - 1]:
            raise ValueError(f"not strictly increasing at index {i}")
    for i in range(len(terms) - 1):
        r = terms[i + 1] / terms[i]
        if not (lo <= r <= hi):
            return False, (terms[i], terms[i + 1])
    return True, None
