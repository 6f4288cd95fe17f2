"""Moment growth probes, the Gram-matrix algebra, and weighted-sum bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, MultiplierSeq, PlainSpectrum,
                      SumsetSpectrum, TensorSpectrum, TrigPoly, cauchy_schwarz_check,
                      e_matrix, even_p_ratio, even_p_ratio_nd, geometric_lacunary,
                      growth_exponent, lambda_p_ratio, offdiagonal_split,
                      phase_ascent_ratio, sidon_lower_bound, tensor_growth)

P_GRID = (4, 8, 16, 32, 64)


class TestEvenPRatio:
    def test_singleton_is_one(self):
        for p in P_GRID:
            assert even_p_ratio({3: 1.0}, p) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_flat_closed_form(self):
        # mean of |1 + e|^4 expands to 6, so the ratio is 6^{1/4} / 2^{1/2}
        r = even_p_ratio({0: 1.0, 5: 1.0}, 4)
        assert r == pytest.approx(6 ** 0.25 / math.sqrt(2), rel=1e-12)

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            even_p_ratio({1: 1.0}, 3)
        with pytest.raises(ValueError):
            even_p_ratio({1: 1.0}, 2.5)

    def test_scale_invariance(self):
        c = {1: 1.0, 4: 2.0 - 1j, 9: 0.25j}
        assert even_p_ratio(c, 8) == pytest.approx(
            even_p_ratio({n: 5j * v for n, v in c.items()}, 8), rel=1e-12)

    def test_p2_is_one(self):
        rng = np.random.default_rng(31)
        c = {int(n): complex(*rng.standard_normal(2)) for n in range(1, 12)}
        assert even_p_ratio(c, 2) == pytest.approx(1.0, rel=1e-12)


class TestLambdaPRatio:
    def test_lacunary_p64_window(self):
        fs = FrequencySet(1, frozenset(2 ** j for j in range(8)))
        r = lambda_p_ratio(fs, 64, Ensemble("random-signs", seed=101, trials=32))
        assert 2.2 <= r <= 4.5

    def test_flat_two_point(self):
        fs = FrequencySet(1, frozenset([0, 7]))
        r = lambda_p_ratio(fs, 4, Ensemble("flat"))
        assert r == pytest.approx(6 ** 0.25 / math.sqrt(2), rel=1e-12)

    def test_singleton_all_p(self):
        fs = FrequencySet(1, frozenset([9]))
        for p in P_GRID:
            assert lambda_p_ratio(fs, p, Ensemble("steinhaus", seed=1, trials=4)) == \
                pytest.approx(1.0, abs=1e-10)


class TestGrowthExponent:
    def test_singleton_degenerate(self):
        rep = growth_exponent(FrequencySet(1, frozenset([5])), P_GRID,
                              Ensemble("random-signs", seed=1, trials=4))
        assert rep.degenerate and rep.alpha == 0.0

    def test_base_window(self):
        lam = geometric_lacunary(2, 8)
        rep = growth_exponent(PlainSpectrum(FrequencySet(1, frozenset(lam.terms))),
                              P_GRID, Ensemble("random-signs", seed=101, trials=32))
        assert 0.38 <= rep.alpha <= 0.62
        assert rep.alpha == pytest.approx(0.57730359715962, rel=1e-9)

    def test_sumset_window_and_separation(self):
        lam = geometric_lacunary(2, 8)
        base_rep = growth_exponent(PlainSpectrum(FrequencySet(1, frozenset(lam.terms))),
                                   P_GRID, Ensemble("random-signs", seed=101, trials=32))
        rep2 = growth_exponent(SumsetSpectrum(lam, 2), P_GRID,
                               [Ensemble("random-signs", seed=202, trials=32),
                                Ensemble("phase-ascent")])
        assert 0.8 <= rep2.alpha <= 1.2
        assert rep2.alpha - base_rep.alpha >= 0.3

    def test_ratio_scale_free(self):
        # drawing signs vs drawing scaled signs yields identical ratios
        lam = geometric_lacunary(2, 6)
        spec = SumsetSpectrum(lam, 2)
        c = spec.draw(Ensemble("random-signs", seed=5, trials=1), 0)
        r1 = even_p_ratio(c, 8)
        r2 = even_p_ratio({n: 3.5 * v for n, v in c.items()}, 8)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_ordering_invariant_over_k(self):
        lam = geometric_lacunary(2, 8)
        ens = lambda seed: [Ensemble("random-signs", seed=seed, trials=16),
                            Ensemble("phase-ascent")]
        for seed in (11, 22):
            alphas = [growth_exponent(SumsetSpectrum(lam, k), P_GRID, ens(seed)).alpha
                      for k in (1, 2, 3)]
            assert all(b >= a - 0.1 for a, b in zip(alphas, alphas[1:]))

    def test_report_json(self):
        import json
        rep = growth_exponent(FrequencySet(1, frozenset([1, 4])), (4, 8, 16),
                              Ensemble("flat"))
        data = json.loads(rep.to_json())
        assert data["p_grid"] == [4, 8, 16]


class TestTensor:
    def test_rank_one_identity_vs_full_transform(self):
        cg = {1: 1 + 0j, 2: -1 + 0j, 4: 1 + 0j}
        ch = {1: 1 + 0j, 2: 1 + 0j, 4: -1 + 0j}
        coeffs = {(a, b): cg[a] * ch[b] for a in cg for b in ch}
        for p in (4, 8, 16):
            full = even_p_ratio_nd(coeffs, p)
            fact = even_p_ratio(cg, p) * even_p_ratio(ch, p)
            assert full == pytest.approx(fact, rel=1e-11)

    def test_singleton_product_degenerate(self):
        a = FrequencySet(1, frozenset([3]))
        rep = tensor_growth([a, a], (4, 8, 16), Ensemble("flat"))
        assert rep.degenerate and rep.alpha == 0.0

    def test_two_lacunary_product_window(self):
        lam6 = geometric_lacunary(2, 6)
        fs6 = FrequencySet(1, frozenset(lam6.terms))
        rep = tensor_growth([fs6, fs6], P_GRID,
                            [Ensemble("random-signs", seed=303, trials=16),
                             Ensemble("phase-ascent")])
        assert 0.8 <= rep.alpha <= 1.2

    def test_triple_scaling(self):
        lam6 = geometric_lacunary(2, 6)
        rep = tensor_growth([SumsetSpectrum(lam6, 1), SumsetSpectrum(lam6, 2)], P_GRID,
                            [Ensemble("random-signs", seed=404, trials=16),
                             Ensemble("phase-ascent")])
        assert 1.25 <= rep.alpha <= 1.75

    def test_dims_capped(self):
        a = FrequencySet(1, frozenset([1]))
        with pytest.raises(ValueError):
            tensor_growth([a, a, a, a], (4, 8, 16), Ensemble("flat"))


class TestEMatrix:
    def test_rank_one_outer_product(self):
        a = np.array([1 + 1j, 2.0])
        b = np.array([0.5, -1j, 1.0])
        f = TrigPoly(2, {(i, j): a[i] * b[j] for i in range(2) for j in range(3)})
        E = e_matrix(f)
        expected = float(np.sum(np.abs(a) ** 2)) * np.outer(b, np.conj(b))
        assert np.abs(E.matrix - expected).max() <= 1e-12

    def test_single_coefficient(self):
        f = TrigPoly(2, {(3, -2): 2.0})
        E = e_matrix(f)
        assert E.matrix.shape == (1, 1)
        assert E.matrix[0, 0] == pytest.approx(4.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(41)
        f = TrigPoly(2, {(int(m), int(n)): complex(*rng.standard_normal(2))
                         for m in range(-3, 4) for n in range(5)})
        E = e_matrix(f)
        assert E.trace == pytest.approx(sum(abs(c) ** 2 for c in f.coeffs.values()),
                                        rel=1e-12)

    def test_axis_zero(self):
        f = TrigPoly(2, {(1, 2): 1.0, (1, 5): 2.0})
        E = e_matrix(f, axis=0)
        assert E.freqs == (1,)
        assert E.matrix[0, 0] == pytest.approx(5.0)

    def test_cauchy_schwarz_strict_for_random(self):
        rng = np.random.default_rng(42)
        f = TrigPoly(2, {(int(m), int(n)): complex(*rng.standard_normal(2))
                         for m in range(4) for n in range(4)})
        rep = cauchy_schwarz_check(e_matrix(f), f)
        assert rep.frobenius_sq < rep.bound_sq
        assert rep.equality_gap > 0

    def test_rank_one_equality(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = TrigPoly(2, {(i, j): a[i] * b[j] for i in range(3) for j in range(5)})
        rep = cauchy_schwarz_check(e_matrix(f), f)
        assert rep.equality_gap <= 1e-10

    def test_zero_polynomial(self):
        f = TrigPoly(2, {(0, 0): 1.0})
        rep = cauchy_schwarz_check(e_matrix(f), f)
        assert rep.frobenius_sq <= rep.bound_sq

    def test_split_recombines(self):
        rng = np.random.default_rng(44)
        f = TrigPoly(2, {(int(m), int(n)): complex(*rng.standard_normal(2))
                         for m in range(3) for n in range(6)})
        E = e_matrix(f)
        d, u, low = offdiagonal_split(E)
        assert np.abs(d + u + low - E.matrix).max() == 0.0
        assert np.abs(u - low.conj().T).max() <= 1e-14
        assert float(np.trace(d).real) == pytest.approx(
            sum(abs(c) ** 2 for c in f.coeffs.values()), rel=1e-12)

    def test_split_respects_order(self):
        f = TrigPoly(2, {(0, 1): 1.0, (0, 3): 1.0})
        E = e_matrix(f)
        d, u, low = offdiagonal_split(E, order=(3, 1))
        assert u[0, 1] == E.matrix[1, 0]  # reordered upper picks the (3,1) entry


class TestSidonLowerBound:
    def test_singleton(self):
        m = MultiplierSeq.constant(1.0, 100)
        fs = FrequencySet(1, frozenset([7]))
        assert sidon_lower_bound(m, fs, Ensemble("flat")) == pytest.approx(1.0, abs=1e-9)

    def test_two_point_spectrum(self):
        # sup|a + b e| = |a| + |b| somewhere on the circle, so the best ratio
        # is exactly 1 for a two-point spectrum (grid defect aside)
        m = MultiplierSeq.constant(1.0, 100)
        fs = FrequencySet(1, frozenset([0, 6]))
        val = sidon_lower_bound(m, fs, [Ensemble("flat"), Ensemble("phase-ascent")])
        assert val == pytest.approx(1.0, abs=1e-3)
        assert val >= 1.0 - 1e-9

    def test_ascent_never_hurts(self):
        m = MultiplierSeq.constant(1.0, 200)
        fs = FrequencySet(1, frozenset([1, 3, 9, 27, 81]))
        base = sidon_lower_bound(m, fs, Ensemble("steinhaus", seed=9, trials=8))
        both = sidon_lower_bound(m, fs, [Ensemble("steinhaus", seed=9, trials=8),
                                         Ensemble("phase-ascent")])
        assert both >= base - 1e-12


class TestPhaseAscent:
    def test_deterministic(self):
        freqs = [1, 2, 4, 8, 16]
        a = phase_ascent_ratio(freqs, 8)
        b = phase_ascent_ratio(freqs, 8)
        assert a == b

    def test_at_least_flat(self):
        freqs = [1, 2, 4, 8, 16]
        flat = even_p_ratio({n: 1.0 for n in freqs}, 8)
        assert phase_ascent_ratio(freqs, 8) >= flat - 1e-12

    @pytest.mark.parametrize("ratio", (2, 3))
    @pytest.mark.parametrize("p", (4, 16, 64))
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_no_unimodular_member_beats_it(self, ratio, p, seed):
        # ||f||_p^p sums unimodular products over additive tuples, so the
        # triangle inequality caps every Steinhaus member at the flat value
        spec = PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(ratio, 8).terms)))
        best = phase_ascent_ratio(spec.frequency_set().sorted_elements(), p)
        ens = Ensemble("steinhaus", seed=seed, trials=4)
        for t in range(ens.member_count()):
            assert even_p_ratio(spec.draw(ens, t), p) <= best * (1 + 1e-12)
