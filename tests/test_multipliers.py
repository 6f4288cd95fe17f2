"""Block-sum criterion, multiplier application, and the H1-side ratio."""

import math

import numpy as np
import pytest

from paleyzyg import (FrequencySet, MultiplierSeq, TrigPoly, apply, block_counts,
                      h1_paley_ratio, paley_block_sums, weighted_l2)


class TestForms:
    def test_inverse_sqrt_values(self):
        m = MultiplierSeq.inverse_sqrt(100)
        assert m.value_at(0) == 0
        assert m.value_at(4) == pytest.approx(0.5)
        assert m.value_at(-4) == pytest.approx(0.5)
        one_sided = MultiplierSeq.inverse_sqrt(100, positive_only=True)
        assert one_sided.value_at(-4) == 0

    def test_real_forms_are_float_arrays(self):
        # inverse-sqrt and indicator are float64, constant and table complex128;
        # a real multiplier gives the bits a complex one with zero imaginary
        # parts gave, in apply and weighted_l2
        ns = np.arange(-40, 41)
        real = [MultiplierSeq.inverse_sqrt(64), MultiplierSeq.inverse_sqrt(64, positive_only=True),
                MultiplierSeq.indicator(FrequencySet(1, frozenset([-9, 1, 3, 27])), horizon=64)]
        for m in real:
            assert m.values_at(ns).dtype == np.float64
            assert m.values_at(np.zeros((2, 0), dtype=int)).shape == (2, 0)
        assert MultiplierSeq.constant(2, 64).values_at(ns).dtype == np.complex128
        assert MultiplierSeq.table({1: 0.5j}).values_at(ns).dtype == np.complex128
        rng = np.random.default_rng(3)
        p = TrigPoly.from_arrays(1, ns, rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size))
        n = p.freqs[:, 0]
        for m in real:
            product = m.values_at(n).astype(np.complex128) * p.values
            assert np.array_equal(apply(m, p).values, TrigPoly.from_arrays(1, n, product).values)
            assert weighted_l2(p, m) == math.sqrt(float(np.sum(np.abs(product) ** 2)))

    def test_indicator_values_are_set_membership(self):
        ns = np.arange(-60, 61).reshape(11, 11)
        for members in ([], [0], [-9, 1, 3, 27], list(range(-60, 61, 7))):
            m = MultiplierSeq.indicator(FrequencySet(1, frozenset(members)), horizon=64)
            want = [[float(n in members) for n in row] for row in ns.tolist()]
            assert m.values_at(ns).tolist() == want

    def test_sup_norms(self):
        assert MultiplierSeq.inverse_sqrt(10).sup_norm() == 1.0
        assert MultiplierSeq.constant(2j, 10).sup_norm() == 2.0
        assert MultiplierSeq.table({3: 0.5, -1: 2.0}).sup_norm() == 2.0
        assert MultiplierSeq.table({3: 3 + 4j, -1: 2.0}).sup_norm() == 5.0
        assert MultiplierSeq.table({}).sup_norm() == 0.0
        assert MultiplierSeq.indicator(FrequencySet(1, frozenset())).sup_norm() == 0.0
        assert MultiplierSeq.indicator(FrequencySet(1, frozenset([-2]))).sup_norm() == 1.0

    @pytest.mark.parametrize("keys, horizon", [
        ([], 1), ([0], 1), ([0, -3], 3), ([5, -40, 7], 40), ([np.int64(-9), np.uint64(2)], 9)])
    def test_tabulated_horizon_defaults_to_the_largest_key(self, keys, horizon):
        indicator = MultiplierSeq.indicator(FrequencySet(1, frozenset(keys)))
        table = MultiplierSeq.table(dict.fromkeys(keys, 2.0))
        assert indicator.horizon == table.horizon == horizon
        assert type(indicator.horizon) is int and type(table.horizon) is int
        assert MultiplierSeq.table({3: 1.0}, horizon=np.int64(16)).horizon == 16
        assert table.values_at(np.array(keys, dtype=np.int64)).tolist() == [2.0] * len(keys)

    @pytest.mark.parametrize("keys", [[], [0], [-64], [64], [-64, 64], [-64, -63, 0, 63, 64],
                                      [-50, -9, -1, 2, 3, 27, 40]])
    def test_tabulated_lookup_matches_a_dict(self, keys):
        # the sorted-key search of values_at against a dict lookup, for both
        # tabulated forms: an empty table, negative keys, keys at +-horizon,
        # points just past them and a 2-D index array
        H = 64
        rng = np.random.default_rng(len(keys))
        table = {n: complex(*rng.standard_normal(2)) for n in keys}
        ns = np.arange(-H - 2, H + 3)
        grid = np.concatenate([ns, ns[:1]]).reshape(-1, 2)
        for m, want, dtype in (
                (MultiplierSeq.table(table, horizon=H), table, np.complex128),
                (MultiplierSeq.indicator(FrequencySet(1, frozenset(keys)), horizon=H),
                 dict.fromkeys(keys, 1.0), np.float64)):
            for points in (ns, grid):
                got = m.values_at(points)
                expect = np.array([[want.get(n, 0) for n in np.ravel(points).tolist()]],
                                  dtype=dtype).reshape(points.shape)
                assert got.dtype == dtype and got.shape == points.shape
                assert np.array_equal(got, expect), m.form


class TestBlockSums:
    def test_single_point_indicator(self):
        m = MultiplierSeq.indicator(FrequencySet(1, frozenset([16])), horizon=256)
        rep = paley_block_sums(m, 6)
        assert rep.sup == 1.0
        assert rep.verdict == "bounded-up-to-horizon"
        # 16 sits in the closed blocks [8,16] and [16,32]
        assert rep.block(3) == 1.0 and rep.block(4) == 1.0

    def test_constant_diverges(self):
        m = MultiplierSeq.constant(1.0, 2 ** 13)
        rep = paley_block_sums(m, 12)
        assert rep.verdict == "diverging"
        assert rep.block_sums[-1] >= 4.0 * rep.block_sums[-4]

    def test_linear_growth_flagged(self):
        # |m|^2 = j at 3 * 2^(j-1), inside block j only: s_j = j grows without
        # bound but never by 4x across the last quarter
        m = MultiplierSeq.table({3 * 2 ** k: math.sqrt(k + 1) for k in range(12)},
                                horizon=2 ** 13)
        rep = paley_block_sums(m, 12)
        assert rep.block_sums == pytest.approx(range(13), rel=1e-12)
        assert rep.verdict == "diverging"

    def test_inverse_sqrt_one_sided_partial_sums(self):
        m = MultiplierSeq.inverse_sqrt(2 ** 6, positive_only=True)
        rep = paley_block_sums(m, 4)
        expected_s2 = sum(1.0 / n for n in range(4, 9))
        assert rep.block(2) == pytest.approx(expected_s2, abs=1e-12)
        assert rep.block(2) == pytest.approx(0.884523809523, abs=1e-9)
        assert rep.sup == pytest.approx(1.5)  # block 0: 1 + 1/2

    def test_horizon_precondition(self):
        m = MultiplierSeq.inverse_sqrt(64)
        with pytest.raises(ValueError, match="horizon"):
            paley_block_sums(m, 8)

    def test_additive_over_disjoint_supports(self):
        m1 = MultiplierSeq.table({3: 1.0, 9: 2.0}, horizon=64)
        m2 = MultiplierSeq.table({5: 1 - 1j, 17: 0.5}, horizon=64)
        merged = dict(m1.params["values"])
        merged.update(m2.params["values"])
        msum = MultiplierSeq.table(merged, horizon=64)
        r1, r2, rs = (paley_block_sums(m, 4) for m in (m1, m2, msum))
        for k in range(5):
            assert rs.block(k) == pytest.approx(r1.block(k) + r2.block(k), abs=1e-14)

    @pytest.mark.parametrize("K", [0, 20])
    def test_chunked_sums_match_the_whole_block_formula(self, K):
        # every half-block summed in chunks of one buffer has the bits of one
        # whole-block expression; from k = 11 on a half-block of 2^k + 1
        # terms crosses a chunk edge
        H = 2 ** (K + 1)
        rng = np.random.default_rng(K)
        keys = rng.integers(-H, H + 1, 3000).tolist()
        forms = [MultiplierSeq.inverse_sqrt(H), MultiplierSeq.inverse_sqrt(H, positive_only=True),
                 MultiplierSeq.constant(0.25 - 1.5j, H),
                 MultiplierSeq.indicator(FrequencySet(1, frozenset(keys)), horizon=H),
                 MultiplierSeq.table({n: complex(*rng.standard_normal(2)) for n in keys}, horizon=H)]
        for m in forms:
            whole = []
            for k in range(K + 1):
                ns = np.arange(2 ** k, 2 ** (k + 1) + 1, dtype=np.int64)
                s = float(np.sum(np.abs(m.values_at(ns)) ** 2))
                s += float(np.sum(np.abs(m.values_at(-ns)) ** 2))
                whole.append(s)
            assert paley_block_sums(m, K).block_sums == tuple(whole), m.form

    def test_indicator_sup_matches_block_counts(self):
        # away from powers of two the closed blocks agree with half-open counts
        fs = FrequencySet(1, frozenset([3, 5, 11, 13, 23, 47]))
        m = MultiplierSeq.indicator(fs, horizon=128)
        rep = paley_block_sums(m, 5)
        _, sup_counts = block_counts(fs, 5)
        assert rep.sup == float(sup_counts)


class TestApply:
    def test_identity(self):
        p = TrigPoly(1, {1: 1.0, -3: 2j})
        q = apply(MultiplierSeq.constant(1.0, 8), p)
        assert q.coeffs == p.coeffs

    def test_indicator_restricts(self):
        p = TrigPoly(1, {1: 1.0, 2: 1.0, 4: 1.0})
        m = MultiplierSeq.indicator(FrequencySet(1, frozenset([2])), horizon=8)
        assert apply(m, p).support == {2}

    def test_inverse_sqrt_scales(self):
        p = TrigPoly(1, {4: 1.0})
        q = apply(MultiplierSeq.inverse_sqrt(8), p)
        assert q.coeffs[4] == pytest.approx(0.5)

    def test_horizon_enforced(self):
        p = TrigPoly(1, {100: 1.0})
        with pytest.raises(ValueError, match="horizon"):
            apply(MultiplierSeq.inverse_sqrt(64), p)

    def test_linear(self):
        rng = np.random.default_rng(3)
        m = MultiplierSeq.inverse_sqrt(64)
        p = {int(n): complex(*rng.standard_normal(2)) for n in range(1, 20)}
        q = {int(n): complex(*rng.standard_normal(2)) for n in range(5, 30)}
        lhs = apply(m, TrigPoly(1, {n: p.get(n, 0j) + q.get(n, 0j) for n in p.keys() | q.keys()}))
        mp, mq = apply(m, TrigPoly(1, p)).coeffs, apply(m, TrigPoly(1, q)).coeffs
        rhs = {n: mp.get(n, 0j) + mq.get(n, 0j) for n in mp.keys() | mq.keys()}
        assert all(abs(lhs.coeffs[n] - rhs.get(n, 0j)) < 1e-14 for n in lhs.coeffs)


class TestH1Ratio:
    def test_powers_of_two_characters_constant(self):
        m = MultiplierSeq.indicator(FrequencySet(1, frozenset(2 ** j for j in range(9))))
        ratios = [h1_paley_ratio(m, TrigPoly(1, {2 ** j: 1.0})) for j in range(2, 9)]
        assert max(ratios) / min(ratios) <= math.sqrt(2) + 1e-9

    def test_zero_multiplier(self):
        m = MultiplierSeq.table({}, horizon=16)
        assert h1_paley_ratio(m, TrigPoly(1, {3: 1.0})) == 0.0

    def test_mean_coefficient_excluded(self):
        m = MultiplierSeq.constant(1.0, 16)
        with_mean = TrigPoly(1, {0: 100.0, 6: 1.0})
        without = TrigPoly(1, {6: 1.0})
        assert h1_paley_ratio(m, with_mean) == pytest.approx(
            h1_paley_ratio(m, without), rel=1e-12)

    def test_degenerate_flagged(self):
        m = MultiplierSeq.constant(1.0, 16)
        assert math.isnan(h1_paley_ratio(m, TrigPoly(1, {0: 1.0})))
