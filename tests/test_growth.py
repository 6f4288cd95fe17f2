"""Moment growth probes, the Gram-matrix algebra, and weighted-sum bounds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, MultiplierSeq, PlainSpectrum,
                      SumsetSpectrum, TensorSpectrum, TrigPoly, best_ratios,
                      cauchy_schwarz_check, e_matrix, even_p_ratio, geometric_lacunary,
                      growth_exponent, lambda_p_ratio, lp_norm, next_pow2,
                      offdiagonal_split, sidon_lower_bound, synthesize, tensor_growth)
from paleyzyg.cli import main
from paleyzyg.growth import _moment_ratios

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

    def test_report_json(self, capsys):
        assert main(["bonami", "--count", "3", "--k", "1", "--p", "4,8,16",
                     "--ensemble", "flat", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row[0] for row in data["rows"]] == [4, 8, 16]


class TestTensor:
    def test_rank_one_identity_vs_full_transform(self):
        cg = {1: 1 + 0j, 2: -1 + 0j, 4: 1 + 0j}
        ch = {1: 1 + 0j, 2: 1 + 0j, 4: -1 + 0j}
        coeffs = {(a, b): cg[a] * ch[b] for a in cg for b in ch}
        for p in (4, 8, 16):
            full = even_p_ratio(coeffs, p)
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
    FREQS = FrequencySet(1, frozenset([1, 2, 4, 8, 16]))

    def test_deterministic(self):
        a = lambda_p_ratio(self.FREQS, 8, Ensemble("phase-ascent"))
        b = lambda_p_ratio(self.FREQS, 8, Ensemble("phase-ascent"))
        assert a == b

    def test_at_least_flat(self):
        flat = even_p_ratio({n: 1.0 for n in self.FREQS.elements}, 8)
        assert lambda_p_ratio(self.FREQS, 8, Ensemble("phase-ascent")) >= flat - 1e-12

    def test_sumset_draw_is_flat_on_frequency_set(self):
        spec = SumsetSpectrum(geometric_lacunary(2, 6), 2)
        draw = spec.draw(Ensemble("phase-ascent"), 0)
        assert set(draw) == set(spec.frequency_set().elements)
        assert all(c == 1.0 for c in draw.values())
        # the 'flat' draw carries the collision multiplicities of the sumset
        assert draw != spec.draw(Ensemble("flat"), 0)

    def test_tensor_factors_are_flat(self):
        spec = TensorSpectrum([SumsetSpectrum(geometric_lacunary(2, 4), 2),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9])))])
        parts = spec.draw_factors(Ensemble("phase-ascent", seed=5), 0)
        for part, factor in zip(parts, spec.factors):
            assert part == {n: 1.0 for n in factor.frequency_set().elements}

    @pytest.mark.parametrize("ratio", (2, 3))
    @pytest.mark.parametrize("p", (4, 16, 64))
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_no_unimodular_member_beats_it(self, ratio, p, seed):
        # ||f||_p^p sums unimodular products over additive tuples, so the
        # triangle inequality caps every Steinhaus member at the flat value
        spec = PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(ratio, 8).terms)))
        best = lambda_p_ratio(spec, p, Ensemble("phase-ascent"))
        ens = Ensemble("steinhaus", seed=seed, trials=4)
        for t in range(ens.member_count()):
            assert even_p_ratio(spec.draw(ens, t), p) <= best * (1 + 1e-12)


class CountingSpectrum(PlainSpectrum):
    """A plain spectrum that counts its draws per (kind, seed, trial)."""

    def __init__(self, freqs):
        super().__init__(freqs)
        self.draws = {}

    def draw(self, ensemble, trial):
        key = (ensemble.kind, ensemble.seed, trial)
        self.draws[key] = self.draws.get(key, 0) + 1
        return super().draw(ensemble, trial)


class TestMomentRoutine:
    @staticmethod
    def _table(which):
        lam = geometric_lacunary(2, 6)
        if which == "plain":
            return PlainSpectrum(FrequencySet(1, frozenset(lam.terms))).draw(
                Ensemble("steinhaus", seed=3), 0)
        if which == "sumset":
            return SumsetSpectrum(lam, 2).draw(Ensemble("random-signs", seed=4), 0)
        rng = np.random.default_rng(45)
        return {(int(a), int(b)): complex(*rng.standard_normal(2))
                for a in (-5, 0, 2, 7) for b in (1, 3, 4)}

    @pytest.mark.parametrize("which", ("plain", "sumset", "nd"))
    def test_p_grid_matches_per_p(self, which):
        # one synthesis on the grid of p = 64, read at every p, against a
        # synthesis on each p's own exact grid
        table = self._table(which)
        f = TrigPoly(len(next(iter(table))) if which == "nd" else 1, table)
        ratios = _moment_ratios(table, P_GRID)
        for p, r in zip(P_GRID, ratios):
            vals = synthesize(f, tuple(next_pow2(p * d + 1) for d in f.degrees))
            assert r == pytest.approx(lp_norm(vals, p) / lp_norm(vals, 2), rel=1e-12)
            assert r == pytest.approx(even_p_ratio(table, p), rel=1e-12)

    def test_best_ratios_match_lambda_p(self):
        spec = SumsetSpectrum(geometric_lacunary(2, 6), 2)
        ens = [Ensemble("steinhaus", seed=8, trials=3), Ensemble("phase-ascent")]
        grid = best_ratios(spec, P_GRID, ens)
        for p, r in zip(P_GRID, grid):
            assert r == pytest.approx(max(lambda_p_ratio(spec, p, e) for e in ens), rel=1e-12)

    def test_growth_exponent_draws_each_member_once(self):
        spec = CountingSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 6).terms)))
        growth_exponent(spec, P_GRID, [Ensemble("random-signs", seed=1, trials=5),
                                       Ensemble("phase-ascent")])
        assert len(spec.draws) == 6 and set(spec.draws.values()) == {1}

    def test_tensor_growth_draws_each_member_once(self):
        a = CountingSpectrum(FrequencySet(1, frozenset([1, 2, 4, 8])))
        b = CountingSpectrum(FrequencySet(1, frozenset([1, 3, 9])))
        tensor_growth([a, b], P_GRID, [Ensemble("random-signs", seed=2, trials=4),
                                       Ensemble("phase-ascent")])
        for factor in (a, b):
            assert len(factor.draws) == 5 and set(factor.draws.values()) == {1}

    def test_lambda_p_cli_draws_each_member_once(self, monkeypatch, capsys):
        counts = {}
        draw = PlainSpectrum.draw

        def counting(self, ensemble, trial):
            counts[trial] = counts.get(trial, 0) + 1
            return draw(self, ensemble, trial)

        monkeypatch.setattr(PlainSpectrum, "draw", counting)
        assert main(["lambda-p", "--trials", "6", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(P_GRID)
        assert counts == {t: 1 for t in range(6)}
