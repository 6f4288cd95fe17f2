"""Moment growth probes, the Gram-matrix algebra, and weighted-sum bounds."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, MultiplierSeq, PlainSpectrum,
                      SumsetSpectrum, TensorSpectrum, TrigPoly, best_ratios,
                      cauchy_schwarz_check, e_matrix, even_p_ratio, geometric_lacunary,
                      growth_exponent, lambda_p_ratio, lp_norm, next_pow2,
                      offdiagonal_split, sidon_lower_bound, synthesize, tensor_growth)
from paleyzyg.cli import main
from paleyzyg import growth
from paleyzyg.growth import _moment_ratios
from paleyzyg.torus import grid_size

P_GRID = (4, 8, 16, 32, 64)


def _as_table(draw):
    """The coefficient dict of a 1D array draw (freqs, values), zeros dropped."""
    freqs, values = draw
    return {n: v for n, v in zip(freqs.tolist(), values.tolist()) if v != 0}


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
        # ratio is at most sup|f| / ||f||_2 <= sqrt(|Lambda|) for unimodular f
        fs = FrequencySet(1, frozenset([1, 2, 4, 8]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ens in (Ensemble("flat"), Ensemble("random-signs", seed=101, trials=4)):
                r = lambda_p_ratio(fs, 100000, ens)
                assert math.isfinite(r) and 1.0 < r <= 2.0 * (1 + 1e-12)
            assert lambda_p_ratio(fs, 100000, Ensemble("flat")) > 1.99

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
        c = _as_table(spec.draw(Ensemble("random-signs", seed=5, trials=1), 0))
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

    def test_full_draw_is_the_outer_product(self):
        spec = TensorSpectrum([PlainSpectrum(FrequencySet(1, frozenset([1, 2, 4]))),
                               SumsetSpectrum(geometric_lacunary(2, 3), 2)])
        ens = Ensemble("steinhaus", seed=3, trials=2)
        freqs, values = spec.draw(ens, 1)
        (f, x), (g, y) = spec.draw_factors(ens, 1)
        # numpy's complex products may round differently from Python's
        assert {tuple(n): v for n, v in zip(freqs.tolist(), values.tolist())} == pytest.approx(
            {(a, b): u * w for a, u in zip(f.tolist(), x) for b, w in zip(g.tolist(), y)},
            rel=1e-15, abs=0)
        full = _moment_ratios(freqs, values[None], P_GRID)[0]
        fact = _moment_ratios(f, x[None], P_GRID)[0] * _moment_ratios(g, y[None], P_GRID)[0]
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
        for t in range(ens.member_count()):
            _, c = base.draw(ens, t)
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
        draw = _as_table(spec.draw(Ensemble("phase-ascent"), 0))
        assert set(draw) == set(spec.frequency_set().elements)
        assert all(c == 1.0 for c in draw.values())
        # the 'flat' draw carries the collision multiplicities of the sumset
        assert draw != _as_table(spec.draw(Ensemble("flat"), 0))

    def test_tensor_factors_are_flat(self):
        spec = TensorSpectrum([SumsetSpectrum(geometric_lacunary(2, 4), 2),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9])))])
        parts = spec.draw_factors(Ensemble("phase-ascent", seed=5), 0)
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
        for t in range(ens.member_count()):
            assert even_p_ratio(_as_table(spec.draw(ens, t)), p) <= best * (1 + 1e-12)


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
            return _as_table(PlainSpectrum(FrequencySet(1, frozenset(lam.terms))).draw(
                Ensemble("steinhaus", seed=3), 0))
        if which == "sumset":
            return _as_table(SumsetSpectrum(lam, 2).draw(Ensemble("random-signs", seed=4), 0))
        # one-sided and shifted spectra, whose span grids are 2-4x smaller
        # than their degree grids
        if which == "lacunary":
            return _as_table(PlainSpectrum(FrequencySet(1, frozenset(
                geometric_lacunary(2, 8).terms))).draw(Ensemble("steinhaus", seed=3), 0))
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


class TestBatchedReader:
    """The batched reading of an ensemble against one-row readings, bit for bit."""

    @staticmethod
    def _per_row(freqs, V, p_grid=P_GRID):
        return np.concatenate([_moment_ratios(freqs, V[i:i + 1], p_grid) for i in range(len(V))])

    @staticmethod
    def _stack(draws):
        return draws[0][0], np.stack([v for _, v in draws])

    @pytest.mark.parametrize("spectrum", [
        PlainSpectrum(FrequencySet(1, frozenset(geometric_lacunary(2, 6).terms))),
        SumsetSpectrum(geometric_lacunary(2, 6), 2),
        SumsetSpectrum(geometric_lacunary(2, 6), 3),
        PlainSpectrum(FrequencySet(2, frozenset((a, b) for a in (1, 2, 4) for b in (-3, 0, 5))))])
    @pytest.mark.parametrize("ensemble", [Ensemble("random-signs", seed=5, trials=6),
                                          Ensemble("steinhaus", seed=6, trials=6)])
    def test_ensembles(self, spectrum, ensemble):
        freqs, V = self._stack([spectrum.draw(ensemble, t) for t in range(ensemble.trials)])
        assert np.array_equal(_moment_ratios(freqs, V, P_GRID), self._per_row(freqs, V))

    def test_tensor_ensemble(self):
        spec = TensorSpectrum([SumsetSpectrum(geometric_lacunary(2, 5), 2),
                               PlainSpectrum(FrequencySet(1, frozenset([1, 3, 9])))])
        ens = Ensemble("steinhaus", seed=7, trials=5)
        members = [spec.draw_factors(ens, t) for t in range(ens.trials)]
        per_member = np.ones((ens.trials, len(P_GRID)))
        for axis in zip(*members):
            freqs, V = self._stack(axis)
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
        freqs, V = self._stack([spec.draw(ens, t) for t in range(ens.trials)])
        assert 0 < growth._CHUNK_POINTS // grid_size(127, 32) < len(V)
        assert np.array_equal(_moment_ratios(freqs, V, P_GRID), self._per_row(freqs, V))
