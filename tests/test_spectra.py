"""Lacunary sequences, block counts, sumsets, products."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (DyadicBlocks, FrequencySet, LacunarySeq, SumsetSpectrum, block_counts,
                      geometric_lacunary, is_lacunary_with_ratio_in, product_set,
                      sumset_bonami)


def loop_sums(terms, k):
    """The signed k-fold sums by Python loops: index tuple by index tuple,
    then sign pattern by sign pattern."""
    out = []
    for tup in combinations(range(len(terms)), k):
        vals = [terms[i] for i in tup]
        for signs in product((1, -1), repeat=k):
            out.append(sum(s * v for s, v in zip(signs, vals)))
    return out


class TestLacunarySeq:
    def test_ratio(self):
        assert LacunarySeq((1, 2, 4, 8)).ratio == 2.0
        assert LacunarySeq((2, 6, 18)).ratio == 3.0

    def test_singleton_trivially_lacunary(self):
        assert LacunarySeq((5,)).ratio == math.inf

    @pytest.mark.parametrize("terms", [(1.5, 3), (1, 3.2), (1, np.float64(4.0)), (1, "4")])
    def test_non_integer_terms_rejected_not_truncated(self, terms):
        with pytest.raises(TypeError):
            LacunarySeq(terms)

    def test_integer_terms_of_any_kind_and_size_kept(self):
        lam = LacunarySeq((np.int32(1), np.uint64(3), 2 ** 64, 2 ** 70))
        assert lam.terms == (1, 3, 2 ** 64, 2 ** 70)
        assert all(type(t) is int for t in lam.terms)

    def test_not_increasing_rejected_with_index(self):
        # strictly increasing positive integers always have ratio > 1, so the
        # only reachable constructor failure is monotonicity
        with pytest.raises(ValueError, match="index 2"):
            LacunarySeq((1, 4, 2))


class TestGeometric:
    def test_examples(self):
        assert geometric_lacunary(2, 4, 1).terms == (1, 2, 4, 8)
        assert geometric_lacunary(3, 3, 2).terms == (2, 6, 18)

    def test_ratio_exact(self):
        assert geometric_lacunary(5, 6).ratio == 5.0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            geometric_lacunary(2, 80)

    def test_ratio_below_two_rejected(self):
        with pytest.raises(ValueError):
            geometric_lacunary(1, 4)


class TestBlocks:
    def test_shifted_blocks_partition(self):
        # every n in [0, 2^20] lands in exactly one shifted block
        for n in list(range(0, 4096)) + [2 ** 20 - 1, 2 ** 20]:
            k = DyadicBlocks.shifted_block_of(n)
            lo, hi = DyadicBlocks.shifted_block_range(k)
            assert lo <= n <= hi

    def test_signed_block(self):
        assert DyadicBlocks.signed_block_of(1) == 0
        assert DyadicBlocks.signed_block_of(-5) == 2
        with pytest.raises(ValueError):
            DyadicBlocks.signed_block_of(0)

    def test_block_counts_powers_of_two(self):
        fs = FrequencySet(1, frozenset(2 ** k for k in range(10)))
        counts, sup = block_counts(fs, 10)
        assert counts[:10] == [1] * 10
        assert sup == 1

    def test_block_counts_range(self):
        fs = FrequencySet(1, frozenset(range(1, 101)))
        counts, _ = block_counts(fs, 6)
        assert counts[5] == 32  # [32, 64)

    def test_block_counts_empty(self):
        counts, sup = block_counts(FrequencySet(1, frozenset()), 5)
        assert counts == [0] * 6 and sup == 0


class TestSumset:
    def test_two_terms(self):
        fs, T = sumset_bonami(LacunarySeq((1, 2)), 2, cap=64)
        assert fs.elements == frozenset({-3, -1, 1, 3})
        assert T == 2

    def test_k1_is_signed_base(self):
        lam = geometric_lacunary(2, 5)
        fs, _ = sumset_bonami(lam, 1, cap=64)
        assert fs.elements == frozenset({s * t for t in lam.terms for s in (1, -1)})

    def test_three_terms_k2(self):
        fs, _ = sumset_bonami(LacunarySeq((1, 2, 4)), 2, cap=64)
        assert fs.elements == frozenset({1, -1, 2, -2, 3, -3, 5, -5, 6, -6})

    def test_cap_truncates_and_reports(self):
        lam = geometric_lacunary(2, 12)
        fs, T = sumset_bonami(lam, 2, cap=100)
        # C(T,2)*4 <= 100 forces T = 7
        assert T == 7
        assert max(fs.elements) == lam.terms[6] + lam.terms[5]

    def test_cap_too_small_reports_requirement(self):
        with pytest.raises(ValueError, match="at least 4"):
            sumset_bonami(LacunarySeq((1, 2, 4)), 2, cap=3)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=3, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_negation_symmetry(self, k, count):
        lam = geometric_lacunary(2, count)
        fs, _ = sumset_bonami(lam, min(k, count), cap=4096)
        assert frozenset(-n for n in fs.elements) == fs.elements

    @pytest.mark.parametrize("ratio, count, k, cap", [
        (2, 8, 1, 4096), (2, 8, 2, 4096), (2, 8, 3, 4096), (3, 10, 4, 4096),
        (2, 12, 2, 100), (5, 6, 6, 4096), (2, 60, 2, 4096)])
    def test_sums_match_the_python_loops(self, ratio, count, k, cap):
        # the one enumerator against the loops it replaced, for sumset_bonami
        # and for the frequencies and bins SumsetSpectrum draws into
        lam = geometric_lacunary(ratio, count)
        fs, T = sumset_bonami(lam, k, cap)
        want = loop_sums(lam.terms[:T], k)
        assert fs.elements == frozenset(want)
        spec = SumsetSpectrum(lam, k, cap)
        assert spec.used_terms == T and spec.frequency_set() == fs
        assert spec._freqs.tolist() == sorted(set(want))
        assert spec._freqs[spec._bins].tolist() == want

    def test_sums_past_int64_rejected(self):
        with pytest.raises(ValueError, match="do not fit in int64"):
            sumset_bonami(LacunarySeq((2 ** 62, 2 ** 62 + 2 ** 61)), 2)
        with pytest.raises(ValueError, match="do not fit in int64"):
            sumset_bonami(LacunarySeq((1, 2 ** 64)), 1)
        top = np.iinfo(np.int64).max
        fs, _ = sumset_bonami(LacunarySeq((1, top - 1)), 2)
        assert max(fs.elements) == top

    def test_raw_count_over_the_budget_rejected(self):
        with pytest.raises(ValueError, match="signed 20-fold sums of 40 terms needs "
                                             "144542561803960320 points, over the budget"):
            sumset_bonami(geometric_lacunary(2, 40), 20, cap=10 ** 27)

    def test_ratio2_block_counts_at_most_one(self):
        lam = geometric_lacunary(2, 10, 1)
        fs = FrequencySet(1, frozenset(lam.terms))
        _, sup = block_counts(fs, 12)
        assert sup == 1


class TestProduct:
    def test_example(self):
        a = FrequencySet(1, frozenset([1, 2]))
        b = FrequencySet(1, frozenset([4]))
        assert product_set([a, b]).elements == frozenset({(1, 4), (2, 4)})

    def test_cardinality_multiplicative(self):
        a = FrequencySet(1, frozenset([1, 2, 5]))
        b = FrequencySet(1, frozenset([0, 7]))
        assert len(product_set([a, b])) == len(a) * len(b)

    def test_nine_elements(self):
        a = FrequencySet(1, frozenset(2 ** k for k in range(3)))
        b = FrequencySet(1, frozenset(3 ** k for k in range(3)))
        assert len(product_set([a, b])) == 9


class TestRatioVerdict:
    def test_true_case(self):
        ok, w = is_lacunary_with_ratio_in((1, 2, 4, 8), 2, 16)
        assert ok and w is None

    def test_false_with_witness(self):
        ok, w = is_lacunary_with_ratio_in((1, 2, 3), 2, 16)
        assert not ok and w == (2, 3)

    def test_boundary_ratio(self):
        ok, _ = is_lacunary_with_ratio_in((1, 16, 256), 2, 16)
        assert ok

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            is_lacunary_with_ratio_in((2, 2), 1.5, 16)

    @pytest.mark.parametrize("seq, message", [
        ((), "empty sequence"), ((0, 1), "terms must be positive"),
        ((1, 4, 2), "not strictly increasing at index 2: 4 -> 2")])
    def test_validated_as_a_lacunary_sequence(self, seq, message):
        with pytest.raises(ValueError, match=message):
            LacunarySeq(seq)
        with pytest.raises(ValueError, match=message):
            is_lacunary_with_ratio_in(seq, 2, 16)
