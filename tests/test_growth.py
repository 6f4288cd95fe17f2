"""Moment growth probes, the Gram-matrix algebra, and weighted-sum bounds."""

import json
import math
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, MultiplierSeq, PlainSpectrum,
                      SumsetSpectrum, TensorSpectrum, TrigPoly, best_ratios,
                      cauchy_schwarz_check, e_matrix, even_p_ratio, geometric_lacunary,
                      growth_exponent, lambda_p_ratio, lp_norm, next_pow2,
                      offdiagonal_split, sidon_lower_bound, synthesize, tensor_growth)
from paleyzyg.cli import main
from paleyzyg import growth, torus
from paleyzyg.growth import _moment_ratios
from paleyzyg.torus import grid_size

P_GRID = (4, 8, 16, 32, 64)


def _as_table(draw, t=0):
    """The coefficient dict of member t of a 1D draw (freqs, V), zeros dropped."""
    freqs, V = draw
    return {n: v for n, v in zip(freqs.tolist(), V[t].tolist()) if v != 0}


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

    def test_huge_p_finite_and_bounded(self):
        # the p/2-th power of |f|^2 overflows past p ~ 500 unless scaled; the
        # ratio is at most sup|f| / ||f||_2 <= sqrt(|Lambda|) for unimodular f.
        # p/2 = 50000 is multiplied out by its binary digits, 2^16 is a rung.
        fs = FrequencySet(1, frozenset([1, 2, 4, 8]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (100000, 2 ** 17):
                for ens in (Ensemble("flat"), Ensemble("random-signs", seed=101, trials=4)):
                    r = lambda_p_ratio(fs, p, ens)
                    assert math.isfinite(r) and 1.0 < r <= 2.0 * (1 + 1e-12)
                assert lambda_p_ratio(fs, p, Ensemble("flat")) > 1.99

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
        c = _as_table(spec.draw(Ensemble("random-signs", seed=5, trials=1)))
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


class TestProbeArgs:
    FS = FrequencySet(1, frozenset(geometric_lacunary(2, 6).terms))

    def test_one_ensemble_reads_as_a_list_of_one(self):
        e = Ensemble("random-signs", seed=3, trials=4)
        assert best_ratios(self.FS, (4, 8), e) == best_ratios(self.FS, [4, 8], [e])
        assert growth_exponent(self.FS, (4, 8, 16), e) == growth_exponent(self.FS, [4, 8, 16], (e,))
        m = MultiplierSeq.constant(1.0, 32)
        assert sidon_lower_bound(m, self.FS, e) == sidon_lower_bound(m, self.FS, [e])

    def test_every_probe_checks_alike(self):
        e = Ensemble("flat")
        for probe in (best_ratios, growth_exponent):
            with pytest.raises(ValueError, match="p must be an even integer"):
                probe(self.FS, (4, 6, 9), e)
            with pytest.raises(TypeError, match="cannot interpret"):
                probe({1, 2}, (4, 8, 16), e)
        with pytest.raises(TypeError, match="cannot interpret"):
            sidon_lower_bound(MultiplierSeq.constant(1.0, 4), {1, 2}, e)


class TestTensor:
    def test_rank_one_identity_vs_full_transform(self):
        cg = {1: 1 + 0j, 2: -1 + 0j, 4: 1 + 0j}
        ch = {1: 1 + 0j, 2: 1 + 0j, 4: -1 + 0j}
        coeffs = {(a, b): cg[a] * ch[b] for a in cg for b in ch}
        for p in (4, 8, 16):
            full = even_p_ratio(coeffs, p)
            fact = even_p_ratio(cg, p) * even_p_ratio(ch, p)
            assert full == pytest.approx(fact, rel=1e-11)

    def test_member_is_the_outer_product_of_rows(self):
        # member t is the outer product of row t on every axis; its full 2D
        # ratio is the product of the rows' 1D ratios
        spec = TensorSpectrum([PlainSpectrum(FrequencySet(1, frozenset([1, 2, 4]))),
                               SumsetSpectrum(geometric_lacunary(2, 3), 2)])
        (f, X), (g, Y) = spec.draw_factors(Ensemble("steinhaus", seed=3, trials=2))
        freqs = np.array([(a, b) for a in f.tolist() for b in g.tolist()])
        full = _moment_ratios(freqs, np.multiply.outer(X[1], Y[1]).reshape(1, -1), P_GRID)[0]
        fact = _moment_ratios(f, X[1:], P_GRID)[0] * _moment_ratios(g, Y[1:], P_GRID)[0]
        assert np.allclose(full, fact, rtol=1e-11, atol=0)

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

    @pytest.mark.parametrize("kind", ["random-signs", "steinhaus"])
    def test_drawn_members_match_exactly_reduced_characters(self, kind):
        # the reference reduces n j mod M in Python ints before the
        # exponential.  Unreduced phases 2 pi n j / M lose digits as n j
        # grows: characters built from them moved this bound by 4.3e-15
        # (signs) and 8.0e-15 (Steinhaus); exact characters keep it within
        # 3.4e-16 on every seed tried
        base = PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 12).terms)))
        ens = Ensemble(kind, seed=5, trials=8)
        elems = base.frequency_set().sorted_elements()
        M = grid_size(max(elems), 8)
        phases = np.array([[n * j % M for j in range(M)] for n in elems])
        chars = np.exp(2j * np.pi * phases / M)
        want = 0.0
        for c in base.draw(ens)[1]:
            want = max(want, float(np.sum(np.abs(c))) / float(np.abs(c @ chars).max()))
        got = sidon_lower_bound(MultiplierSeq.constant(1.0, max(elems)), base, ens)
        assert got == pytest.approx(want, rel=1e-15, abs=0)


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
        draw = _as_table(spec.draw(Ensemble("phase-ascent")))
        assert set(draw) == set(spec.frequency_set().elements)
        assert all(c == 1.0 for c in draw.values())
        # the 'flat' draw carries the collision multiplicities of the sumset
        assert draw != _as_table(spec.draw(Ensemble("flat")))

    def test_tensor_factors_are_flat(self):
        spec = TensorSpectrum([SumsetSpectrum(geometric_lacunary(2, 4), 2),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9])))])
        parts = spec.draw_factors(Ensemble("phase-ascent", seed=5))
        for part, factor in zip(parts, spec.factors):
            assert _as_table(part) == {n: 1.0 for n in factor.frequency_set().elements}

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
        draw = spec.draw(ens)
        for t in range(ens.trials):
            assert even_p_ratio(_as_table(draw, t), p) <= best * (1 + 1e-12)


class TestDraws:
    """A draw is the whole ensemble: row t is member t, what default_rng([seed, t]) draws."""

    @staticmethod
    def _alone(kind, seed, t, size):
        rng = np.random.default_rng([seed, t])
        if kind == "random-signs":
            return rng.choice(np.array([-1.0 + 0j, 1.0 + 0j]), size=size)
        return np.exp(2j * np.pi * rng.random(size))

    # odd sizes leave a half word unread, trials=1 draws t = 0 alone, and
    # seeds from 2^32 on take two words of the seed sequence's entropy
    _STREAMS = [(0, 3, 6), (101, 32, 8), (2 ** 31 + 7, 4, 16), (5, 1, 1), (7, 2, 7),
                (2 ** 32, 3, 9), (2 ** 40 + 3, 2, 33), (2 ** 64 + 1, 1, 5)]

    @pytest.mark.parametrize("seed, trials, size", _STREAMS)
    def test_sign_rows_are_the_stream_of_choice(self, seed, trials, size):
        # the sign rows are read off the raw PCG64 words as the draws
        # rng.integers(0, 2, size) that rng.choice makes: a numpy that changes
        # either fails here instead of drifting every random-signs value
        V = growth._draw_factors(Ensemble("random-signs", seed=seed, trials=trials), size)
        assert V.shape == (trials, size)
        for t, row in enumerate(V):
            assert np.array_equal(row, np.random.default_rng([seed, t]).choice([-1, 1], size))

    @pytest.mark.parametrize("seed, trials, size", _STREAMS)
    def test_phase_rows_are_the_stream_of_random(self, seed, trials, size):
        # likewise the steinhaus rows, from the draws rng.random(size)
        V = growth._draw_factors(Ensemble("steinhaus", seed=seed, trials=trials), size)
        assert V.shape == (trials, size)
        for t, row in enumerate(V):
            uniforms = np.random.default_rng([seed, t]).random(size)
            assert np.array_equal(row, np.exp(2j * np.pi * uniforms))

    @pytest.mark.parametrize("kind", ["random-signs", "steinhaus"])
    def test_plain_rows_are_the_members_drawn_alone(self, kind):
        spec = PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 8).terms)))
        freqs, V = spec.draw(Ensemble(kind, seed=12, trials=5))
        assert V.shape == (5, 8)
        for t, row in enumerate(V):
            assert np.array_equal(row, self._alone(kind, 12, t, 8))

    @pytest.mark.parametrize("kind", ["random-signs", "steinhaus"])
    def test_tensor_axis_rows_are_the_members_drawn_alone(self, kind):
        spec = TensorSpectrum([PlainSpectrum(FrequencySet(1, frozenset([1, 2, 4]))),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9, 27])))])
        for a, (freqs, V) in enumerate(spec.draw_factors(Ensemble(kind, seed=4, trials=3))):
            assert V.shape == (3, len(freqs))
            for t, row in enumerate(V):
                assert np.array_equal(row, self._alone(kind, 4 + 7919 * (a + 1), t, len(freqs)))

    def test_member_stacks_checked_against_the_budget(self, monkeypatch):
        # plain spectra, tensor axes and sumset rows: members times the width
        # of the stack, refused before any member is drawn
        monkeypatch.setattr(torus, "_MAX_GRID_POINTS", 1 << 12)
        fs = FrequencySet(1, frozenset(geometric_lacunary(2, 8).terms))
        cases = [(PlainSpectrum(fs).draw, "600 members of 8 terms needs 4800 points"),
                 (TensorSpectrum([PlainSpectrum(fs)] * 2).draw_factors,
                  "600 members of 8 terms needs 4800 points"),
                 (SumsetSpectrum(geometric_lacunary(2, 8), 2).draw,
                  "600 members of 112 terms needs 67200 points")]
        for draw, message in cases:
            for kind in ("random-signs", "steinhaus"):
                with pytest.raises(ValueError, match=f"{message}, over the budget of 4096"):
                    draw(Ensemble(kind, trials=600))
            draw(Ensemble("flat", trials=600))      # one member, whatever trials says

    @pytest.mark.parametrize("kind", ["flat", "phase-ascent"])
    def test_deterministic_kinds_draw_one_row(self, kind):
        spec = PlainSpectrum(FrequencySet(1, frozenset([1, 2, 4])))
        freqs, V = spec.draw(Ensemble(kind, trials=5))
        assert np.array_equal(V, np.ones((1, 3)))

    @pytest.mark.parametrize("kind", ["random-signs", "steinhaus", "flat"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sumset_rows_sum_every_tuple_and_sign_pattern(self, kind, k):
        # ratio 2 makes many sums collide, and some collisions cancel to 0
        base = geometric_lacunary(2, 7)
        spec = SumsetSpectrum(base, k, cap=512)
        freqs, V = spec.draw(Ensemble(kind, seed=21, trials=3))
        terms = base.terms[:spec.used_terms]
        assert V.shape == (1 if kind == "flat" else 3, len(freqs))
        for t, row in enumerate(V):
            eps = ([1.0] * len(terms) if kind == "flat"
                   else self._alone(kind, 21, t, len(terms)).tolist())
            want = dict.fromkeys(freqs.tolist(), 0)
            for tup in combinations(range(len(terms)), k):
                amp = math.prod(eps[i] for i in tup)
                for signs in product((1, -1), repeat=k):
                    want[sum(s * terms[i] for s, i in zip(signs, tup))] += amp
            got = dict(zip(freqs.tolist(), row.tolist()))
            if kind == "steinhaus":
                # numpy's complex products may round differently from Python's
                assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
            else:
                assert got == want


class CountingSpectrum(PlainSpectrum):
    """A plain spectrum that counts its draws per (kind, seed)."""

    def __init__(self, freqs):
        super().__init__(freqs)
        self.draws = {}

    def draw(self, ensemble):
        key = (ensemble.kind, ensemble.seed)
        self.draws[key] = self.draws.get(key, 0) + 1
        return super().draw(ensemble)


class TestMomentRoutine:
    @staticmethod
    def _table(which):
        lam = geometric_lacunary(2, 6)
        if which == "plain":
            return _as_table(PlainSpectrum(FrequencySet(1, frozenset(lam.terms))).draw(
                Ensemble("steinhaus", seed=3)))
        if which == "sumset":
            return _as_table(SumsetSpectrum(lam, 2).draw(Ensemble("random-signs", seed=4)))
        # one-sided and shifted spectra, whose span grids are 2-4x smaller
        # than their degree grids
        if which == "lacunary":
            return _as_table(PlainSpectrum(FrequencySet(1, frozenset(
                geometric_lacunary(2, 8).terms))).draw(Ensemble("steinhaus", seed=3)))
        if which == "shifted":
            return {1000: 1.0, 1003: 0.5j, 1009: -1.0}
        if which == "negative":
            return {-517: 1.0, -512: 2.0, -509: 1j}
        if which == "nd-shifted":
            return {(20, -8): 1.0, (22, -6): 1j, (25, -8): -0.5, (20, -3): 1.0}
        rng = np.random.default_rng(45)
        return {(int(a), int(b)): complex(*rng.standard_normal(2))
                for a in (-5, 0, 2, 7) for b in (1, 3, 4)}

    @pytest.mark.parametrize("which", ("plain", "sumset", "nd", "lacunary", "shifted",
                                       "negative", "nd-shifted"))
    def test_p_grid_matches_per_p(self, which):
        # one synthesis on the span grid of p = 64, read at every p, against
        # a synthesis on each p's degree grid next_pow2(p * degree + 1)
        table = self._table(which)
        f = TrigPoly(2 if which.startswith("nd") else 1, table)
        ratios = _moment_ratios(list(table), [list(table.values())], P_GRID)[0]
        for p, r in zip(P_GRID, ratios):
            vals = synthesize(f, tuple(next_pow2(p * d + 1) for d in f.degrees))
            assert r == pytest.approx(lp_norm(vals, p) / lp_norm(vals, 2), rel=1e-12)
            assert r == pytest.approx(even_p_ratio(table, p), rel=1e-12)

    @pytest.mark.parametrize("which, p", [("lacunary", 4), ("negative", 4)])
    def test_span_grid_one_power_smaller_aliases(self, which, p):
        # one power of two below the rule, bins of f^{p/2} collide
        table = self._table(which)
        M = grid_size(max(table) - min(table), p // 2) // 2
        spec = np.zeros(M, dtype=np.complex128)
        spec[np.array(list(table)) % M] = list(table.values())
        m2 = np.abs(np.fft.ifft(spec) * M) ** 2
        ratio = np.mean(m2 ** (p // 2)) ** (1 / p) / math.sqrt(np.mean(m2))
        assert abs(ratio / even_p_ratio(table, p) - 1) > 1e-3

    def test_best_ratios_match_lambda_p(self):
        spec = SumsetSpectrum(geometric_lacunary(2, 6), 2)
        ens = [Ensemble("steinhaus", seed=8, trials=3), Ensemble("phase-ascent")]
        grid = best_ratios(spec, P_GRID, ens)
        for p, r in zip(P_GRID, grid):
            assert r == pytest.approx(max(lambda_p_ratio(spec, p, e) for e in ens), rel=1e-12)

    def test_growth_exponent_draws_each_member_once(self):
        # each ensemble is drawn once, as one stack of its members
        spec = CountingSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 6).terms)))
        growth_exponent(spec, P_GRID, [Ensemble("random-signs", seed=1, trials=5),
                                       Ensemble("phase-ascent")])
        assert spec.draws == {("random-signs", 1): 1, ("phase-ascent", 0): 1}

    def test_tensor_growth_draws_each_member_once(self):
        a = CountingSpectrum(FrequencySet(1, frozenset([1, 2, 4, 8])))
        b = CountingSpectrum(FrequencySet(1, frozenset([1, 3, 9])))
        tensor_growth([a, b], P_GRID, [Ensemble("random-signs", seed=2, trials=4),
                                       Ensemble("phase-ascent")])
        for axis, factor in enumerate((a, b)):
            seed = 7919 * (axis + 1)
            assert factor.draws == {("random-signs", 2 + seed): 1, ("phase-ascent", seed): 1}

    def test_lambda_p_cli_draws_each_member_once(self, monkeypatch, capsys):
        shapes = []
        draw = PlainSpectrum.draw

        def counting(self, ensemble):
            freqs, V = draw(self, ensemble)
            shapes.append(V.shape)
            return freqs, V

        monkeypatch.setattr(PlainSpectrum, "draw", counting)
        assert main(["lambda-p", "--trials", "6", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(P_GRID)
        assert shapes == [(6, 8)]


class TestPowerLadder:
    """The p/2-th powers from the ladder of squares against a direct
    np.mean(np.abs(samples) ** p) on each p's own exact grid."""

    GRIDS = ((6, 10, 12, 30), (12, 4, 30, 8, 6), (8, 6, 8, 16, 4))

    @staticmethod
    def _direct(freqs, V, p_grid):
        freqs = np.asarray(freqs).reshape(V.shape[1], -1)
        out = np.empty((len(V), len(p_grid)))
        for r, row in enumerate(V):
            f, c = freqs[row != 0], row[row != 0]
            span = f.max(axis=0) - f.min(axis=0)
            for i, p in enumerate(p_grid):
                sizes = tuple(grid_size(s, p // 2) for s in span)
                spec = np.zeros(sizes, dtype=np.complex128)
                np.add.at(spec, tuple((f % sizes).T), c)
                samples = np.fft.ifftn(spec) * spec.size
                out[r, i] = (np.mean(np.abs(samples) ** p) ** (1 / p)
                             / np.sqrt(np.mean(np.abs(samples) ** 2)))
        return out

    @staticmethod
    def _random_tables(seed):
        # rows with zeros span less than the others, so they take smaller grids
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.choice(np.arange(-40, 41), size=9, replace=False))
        V = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        V[1, 0] = V[2, -1] = V[3, :3] = 0
        return freqs, V

    @pytest.mark.parametrize("p_grid", GRIDS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_1d_tables(self, seed, p_grid):
        freqs, V = self._random_tables(seed)
        np.testing.assert_allclose(_moment_ratios(freqs, V, p_grid),
                                   self._direct(freqs, V, p_grid), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p_grid", GRIDS)
    def test_2d_table(self, p_grid):
        table = TestMomentRoutine._table("nd")
        freqs, V = list(table), np.array([list(table.values())])
        np.testing.assert_allclose(_moment_ratios(freqs, V, p_grid),
                                   self._direct(freqs, V, p_grid), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p_grid", GRIDS)
    def test_sumset_draw(self, p_grid):
        freqs, V = SumsetSpectrum(geometric_lacunary(2, 6), 2).draw(
            Ensemble("random-signs", seed=4, trials=5))
        np.testing.assert_allclose(_moment_ratios(freqs, V, p_grid),
                                   self._direct(freqs, V, p_grid), rtol=1e-14, atol=0)

    def test_order_and_repeats_only_permute_columns(self):
        freqs, V = self._random_tables(3)
        p_grid = (12, 4, 30, 8, 6, 8)
        ratios = _moment_ratios(freqs, V, p_grid)
        ordered = _moment_ratios(freqs, V, tuple(sorted(set(p_grid))))
        for i, p in enumerate(p_grid):
            assert np.array_equal(ratios[:, i], ordered[:, sorted(set(p_grid)).index(p)])


class TestBatchedReader:
    """The batched reading of an ensemble against one-row readings, bit for bit."""

    @staticmethod
    def _per_row(freqs, V, p_grid=P_GRID):
        return np.concatenate([_moment_ratios(freqs, V[i:i + 1], p_grid) for i in range(len(V))])

    @pytest.mark.parametrize("spectrum", [
        PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 6).terms))),
        SumsetSpectrum(geometric_lacunary(2, 6), 2),
        SumsetSpectrum(geometric_lacunary(2, 6), 3),
        PlainSpectrum(FrequencySet(2, frozenset((a, b) for a in (1, 2, 4) for b in (-3, 0, 5))))])
    @pytest.mark.parametrize("ensemble", [Ensemble("random-signs", seed=5, trials=6),
                                          Ensemble("steinhaus", seed=6, trials=6)])
    def test_ensembles(self, spectrum, ensemble):
        freqs, V = spectrum.draw(ensemble)
        assert np.array_equal(_moment_ratios(freqs, V, P_GRID), self._per_row(freqs, V))

    def test_tensor_ensemble(self):
        spec = TensorSpectrum([SumsetSpectrum(geometric_lacunary(2, 5), 2),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9])))])
        ens = Ensemble("steinhaus", seed=7, trials=5)
        per_member = np.ones((ens.trials, len(P_GRID)))
        for freqs, V in spec.draw_factors(ens):
            batched = _moment_ratios(freqs, V, P_GRID)
            assert np.array_equal(batched, self._per_row(freqs, V))
            per_member *= batched
        assert np.array_equal(best_ratios(spec, P_GRID, ens), tuple(per_member.max(axis=0)))

    def test_cancelled_extreme_takes_a_smaller_grid(self):
        # members whose top coefficient cancels span less than the others, so
        # the one ensemble is read on two grids; on the smaller one (512
        # points) the cancelled frequency 515 shares the bin of 3
        freqs = np.array([-5, -1, 0, 3, 515])
        V = np.array([[1, 1j, -1, 2, 1], [1, -1j, 1, 1, 1 - 1],
                      [0.5, 1, 1j, -1, 1j], [2, 1, -1j, 1j, 1j - 1j]])
        assert [grid_size(s, 32) for s in (520, 8)] == [32768, 512]
        assert np.array_equal(_moment_ratios(freqs, V, P_GRID), self._per_row(freqs, V))
        table = {n: v for n, v in zip(freqs.tolist(), V[1].tolist()) if v != 0}
        assert _moment_ratios(freqs, V[1:2], (4,))[0, 0] == even_p_ratio(table, 4)

    def test_ensemble_larger_than_a_chunk(self):
        spec = PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 8).terms)))
        ens = Ensemble("steinhaus", seed=8, trials=40)
        freqs, V = spec.draw(ens)
        assert 0 < growth._CHUNK_POINTS // grid_size(127, 32) < len(V)
        assert np.array_equal(_moment_ratios(freqs, V, P_GRID), self._per_row(freqs, V))
