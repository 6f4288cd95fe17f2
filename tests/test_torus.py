"""Transforms, norms, and functionals on the torus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, GridSignal, MultiplierSeq, TrigPoly, analyze,
                      coeffs_close, even_p_ratio, fejer, ingham_tail_sup, ingham_weight_trend,
                      paley_block_sums, sharpness_experiment, sidon_lower_bound,
                      sidon_weight_divergence, lp_norm, orlicz_functional,
                      periodic_square_function_norm, synthesize, vallee_poussin, weighted_l2,
                      zygmund_ratio)
from paleyzyg import extremals, torus
from paleyzyg.torus import square_function_blocks


def random_poly(rng, dim, degree, count):
    coeffs = {}
    for _ in range(count):
        if dim == 1:
            n = int(rng.integers(-degree, degree + 1))
        else:
            n = tuple(int(v) for v in rng.integers(-degree, degree + 1, size=dim))
        coeffs[n] = complex(*rng.standard_normal(2))
    return TrigPoly(dim, coeffs)


class TestTrigPoly:
    def test_zero_coefficients_elided(self):
        p = TrigPoly(1, {3: 0.0, 5: 1.0})
        assert p.support == {5}

    def test_degree(self):
        p = TrigPoly(2, {(3, -7): 1.0, (-4, 2): 1.0})
        assert p.degrees == (4, 7)
        assert p.degree == 7

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
            TrigPoly(2, {(1, 2, 3): 1.0})
        with pytest.raises(ValueError, match=r"\(4,\)"):
            TrigPoly(1, {3: 1.0, (4,): 1.0})

    def test_numpy_int_keys(self):
        p = TrigPoly(1, {np.int64(3): 1.0, np.int32(-2): 2j})
        assert p.coeffs == {3: 1.0, -2: 2j}
        assert all(type(n) is int for n in p.coeffs)
        assert p.freqs.dtype == np.int64 and p.freqs.tolist() == [[3], [-2]]

    def test_2d_keys(self):
        p = TrigPoly(2, {(3, -7): 1.0, (np.int64(-4), 2): 0.5j})
        assert p.coeffs == {(3, -7): 1.0, (-4, 2): 0.5j}
        assert p.freqs.tolist() == [[3, -7], [-4, 2]]
        assert p.values.tolist() == [1.0, 0.5j]

    def test_non_finite_value_names_the_key(self):
        with pytest.raises(ValueError, match=r"non-finite coefficient at \(2, -5\)"):
            TrigPoly(2, {(1, 1): 1.0, (2, -5): complex(0.0, math.nan)})
        with pytest.raises(ValueError, match="non-finite coefficient at 7"):
            TrigPoly(1, {7: math.inf})

    def test_zeros_dropped_from_every_view(self):
        p = TrigPoly(1, {1: 1.0, 2: 0.0, 3: 0j, 4: -2.0})
        assert p.coeffs == {1: 1.0, 4: -2.0}
        assert p.freqs.tolist() == [[1], [4]]
        assert p.values.tolist() == [1.0, -2.0]
        empty = TrigPoly(2, {(1, 1): 0.0})
        assert empty.coeffs == {} and empty.freqs.shape == (0, 2) and empty.values.size == 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_from_arrays_equals_the_dict_table_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        grid = np.stack(np.meshgrid(*[np.arange(-30, 30)] * dim), axis=-1).reshape(-1, dim)
        freqs = rng.permutation(grid)[:40]
        freqs = freqs[:, 0] if dim == 1 else freqs
        values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        values[::7] = 0.0
        keys = freqs.tolist() if dim == 1 else map(tuple, freqs.tolist())
        want = TrigPoly(dim, dict(zip(keys, values.tolist())))
        got = TrigPoly.from_arrays(dim, freqs, values)
        assert got == want
        assert got.freqs.tobytes() == want.freqs.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.freqs.shape == want.freqs.shape

    def test_from_arrays_validates_like_the_dict_table(self):
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            TrigPoly.from_arrays(1, np.array([1.5, 2.0]), np.ones(2))
        with pytest.raises(ValueError, match="is not a tuple of 2 integers"):
            TrigPoly.from_arrays(2, np.array([[1, 2, 3]]), np.ones(1))
        with pytest.raises(ValueError, match="non-finite coefficient at 7"):
            TrigPoly.from_arrays(1, np.array([3, 7]), np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="3 coefficients for 2 frequencies"):
            TrigPoly.from_arrays(1, np.array([3, 7]), np.ones(3))
        with pytest.raises(ValueError, match="two nonzero coefficients"):
            TrigPoly.from_arrays(1, np.array([3, 3]), np.ones(2))
        with pytest.raises(ValueError, match="dim must be >= 1"):
            TrigPoly.from_arrays(0, np.array([], dtype=np.int64), np.ones(0))

    def test_coeffs_is_a_view_built_on_first_read(self):
        p = TrigPoly.from_arrays(1, np.array([5, -2, 9, 5]), np.array([1.0, 2j, 0.0, 0.0]))
        assert "coeffs" not in vars(p)
        assert p.coefficient(-2) == 2j and p.coefficient(9) == 0j and p.degree == 5
        assert p.coeffs == {5: 1.0, -2: 2j} and "coeffs" in vars(p)
        assert p.coeffs is p.coeffs

    def test_equality_compares_tables(self):
        p = TrigPoly.from_arrays(2, np.array([[1, 2], [0, -3]]), np.array([1.0, 2j]))
        assert p == TrigPoly(2, {(0, -3): 2j, (1, 2): 1.0, (4, 4): 0.0})
        assert p != TrigPoly(2, {(0, -3): 2j, (1, 2): 1.5})
        assert p != TrigPoly(2, {(0, -3): 2j, (1, 3): 1.0})
        assert p != TrigPoly(2, {(0, -3): 2j})
        assert TrigPoly(1, {3: 1.0}) != TrigPoly(2, {(3, 0): 1.0})

    @pytest.mark.parametrize("dim, freqs, key", [
        (1, [3, 1, 3], "3"), (2, [[1, 2], [0, 0], [1, 2]], r"\(1, 2\)")])
    def test_repeated_frequency_named(self, dim, freqs, key):
        with pytest.raises(ValueError, match=f"frequency {key} carries two nonzero"):
            TrigPoly.from_arrays(dim, np.array(freqs), np.ones(3))

    def test_frequencies_past_int64_rejected(self):
        with pytest.raises(ValueError, match="do not fit in int64"):
            TrigPoly(1, {2 ** 63: 1.0})
        with pytest.raises(ValueError, match="do not fit in int64"):
            TrigPoly.from_arrays(1, np.array([2 ** 63], dtype=np.uint64), np.ones(1))


def plain_samples(n, c, M):
    """The samples of the table {n: c} on M points by one scatter and one FFT."""
    spec = np.zeros(M, dtype=np.complex128)
    np.add.at(spec, n % M, c)
    return np.fft.ifft(spec, norm="forward")


def split_table(M, S):
    """S seeded terms whose frequencies coincide mod _SPLIT_ROWS, alias mod M
    and have both signs."""
    R = torus._SPLIT_ROWS
    rng = np.random.default_rng([M, S])
    n = rng.integers(-3 * M, 3 * M, S)
    n[1:6] = n[0] + np.array([R, -R, M, -2 * M, 5 * R - M])
    n[6] = -abs(n[6])
    return n, rng.standard_normal(S) + 1j * rng.standard_normal(S)


def whole_grid_readings(samples, terms):
    s = GridSignal(samples)
    return [lp_norm(s, math.inf) if p == math.inf else orlicz_functional(s, r)
            for p, r in terms]


class TestSynthesize:
    def test_unimodular_character(self):
        s = synthesize(TrigPoly(1, {3: 1.0}), 16)
        assert np.abs(np.abs(s.values) - 1.0).max() <= 1e-12

    def test_constant(self):
        s = synthesize(TrigPoly(1, {0: 2.5 - 1j}), 32)
        assert np.abs(s.values - (2.5 - 1j)).max() <= 1e-12

    @pytest.mark.parametrize("dim, fine", [(1, 256), (2, 64)])
    def test_sample_wraps_bins_like_a_strided_alias_free_grid(self, dim, fine):
        # degree up to 20 on a grid of 16 per axis: bins collide and add
        p = random_poly(np.random.default_rng(5), dim, 20, 40)
        coarse = torus._sample(p.freqs, p.values, (16,) * dim)
        strided = synthesize(p, fine).values[(slice(None, None, fine // 16),) * dim]
        assert np.abs(coarse - strided).max() <= 1e-12 * np.abs(strided).max()

    @pytest.mark.parametrize("M", [1 << 15, 1 << 16])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_split_matches_the_plain_scatter(self, M, extra):
        R = torus._SPLIT_ROWS
        S = R // 4 + extra
        n, c = split_table(M, S)
        spec = np.zeros(M, dtype=np.complex128)
        np.add.at(spec, n % M, c)
        plain = np.fft.ifft(spec) * M
        got = torus._sample(n[:, None], c, (M,))
        if M >= torus._SPLIT_MIN_POINTS and S <= R // 4:
            assert not np.array_equal(got, plain)  # the split ran
            assert np.abs(got - plain).max() <= 1e-13 * np.abs(c).sum()
        else:
            assert np.array_equal(got, plain)

    def test_split_needs_rows_that_divide_the_grid(self):
        # GridSignal takes only powers of two, but _sample itself takes any
        # size; _SPLIT_ROWS does not divide 100,000: the plain scatter
        p = random_poly(np.random.default_rng(15), 1, 40000, 40)
        M = 100_000
        assert np.array_equal(torus._sample(p.freqs, p.values, (M,)),
                              plain_samples(p.freqs[:, 0], p.values, M))

    def test_grid_too_small_reports_minimum(self):
        p = TrigPoly(1, {40: 1.0})
        with pytest.raises(ValueError, match="128"):
            synthesize(p, 64)

    def test_round_trip_deg100(self):
        rng = np.random.default_rng(11)
        p = random_poly(rng, 1, 100, 60)
        q = analyze(synthesize(p, 256))
        assert coeffs_close(p, q, 1e-10)

    def test_round_trip_on_a_split_grid(self):
        p = random_poly(np.random.default_rng(13), 1, 60000, 40)
        q = analyze(synthesize(p, 1 << 17))
        assert coeffs_close(p, q, 1e-10)

    def test_zygmund_ratio_invariant_under_a_grid_rotation(self):
        p = random_poly(np.random.default_rng(14), 1, 40000, 40)
        m = MultiplierSeq.inverse_sqrt(p.degree)
        base = zygmund_ratio(p, m)
        assert base.grid >= torus._SPLIT_MIN_POINTS  # 40 terms: the split's grid
        # f(theta + 12345 / M) samples f on the same grid, cyclically shifted
        rotated = TrigPoly.from_arrays(
            1, p.freqs[:, 0], p.values * np.exp(2j * np.pi * (p.freqs[:, 0] * 12345 % base.grid)
                                                / base.grid))
        assert zygmund_ratio(rotated, m).ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_round_trip_2d(self):
        rng = np.random.default_rng(12)
        p = random_poly(rng, 2, 30, 40)
        q = analyze(synthesize(p, (64, 64)))
        assert coeffs_close(p, q, 1e-10)


@given(st.dictionaries(st.integers(min_value=-30, max_value=30),
                       st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(coeffs):
    p = TrigPoly(1, coeffs)
    if not p.coeffs:
        return
    q = analyze(synthesize(p, 128))
    assert coeffs_close(p, q, 1e-10)


class TestAnalyze:
    def test_constant_signal(self):
        s = GridSignal(np.ones(16, dtype=complex))
        p = analyze(s)
        assert set(p.coeffs) == {0}
        assert p.coeffs[0] == pytest.approx(1.0)

    def test_pure_tone(self):
        theta = np.arange(32) / 32
        s = GridSignal(np.exp(2j * np.pi * 5 * theta))
        p = analyze(s)
        assert set(p.coeffs) == {5}
        assert p.coeffs[5] == pytest.approx(1.0, abs=1e-12)


class TestLpNorm:
    def test_character_all_p(self):
        s = synthesize(TrigPoly(1, {7: 1.0}), 64)
        for p in (1, 2, 3.5, 6, math.inf):
            assert lp_norm(s, p) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_l2(self):
        s = synthesize(TrigPoly(1, {1: 0.5, -1: 0.5}), 16)
        assert lp_norm(s, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_p_below_one_rejected(self):
        s = synthesize(TrigPoly(1, {1: 1.0}), 16)
        with pytest.raises(ValueError):
            lp_norm(s, 0.5)

    def test_parseval(self):
        rng = np.random.default_rng(13)
        p = random_poly(rng, 1, 60, 30)
        s = synthesize(p, 256)
        assert lp_norm(s, 2) ** 2 == pytest.approx(
            sum(abs(c) ** 2 for c in p.coeffs.values()), rel=1e-10)

    def test_even_p_grid_doubling_invariance(self):
        rng = np.random.default_rng(14)
        p = random_poly(rng, 1, 10, 8)
        for q in (4, 6):
            m = 1
            while m <= q * p.degree:
                m *= 2
            a = lp_norm(synthesize(p, m), q)
            b = lp_norm(synthesize(p, 2 * m), q)
            assert a == pytest.approx(b, rel=1e-10)


class TestOrlicz:
    def test_r_zero_is_l1(self):
        rng = np.random.default_rng(15)
        p = random_poly(rng, 1, 20, 10)
        s = synthesize(p, 64)
        assert orlicz_functional(s, 0) == pytest.approx(lp_norm(s, 1), rel=1e-12)

    def test_zero_signal(self):
        s = GridSignal(np.zeros(16, dtype=complex))
        assert orlicz_functional(s, 0.5) == 0.0

    def test_flat_kernel_sqrt_growth(self):
        # Phi_{1/2}(V_{2^N}) fitted against N gives a slope close to 1/2
        ns, vals = [], []
        for N in range(4, 9):
            vp = vallee_poussin(N)
            s = synthesize(vp, 2 ** (N + 4))
            ns.append(N)
            vals.append(orlicz_functional(s, 0.5))
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert 0.35 <= slope <= 0.65

    @given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_r_when_values_large(self, r1, r2, seed):
        # |values| >= e - 1 makes log1p >= 1, so the functional grows with r
        rng = np.random.default_rng(seed)
        vals = (math.e - 1.0) + rng.random(16) * 5.0
        s = GridSignal(vals.astype(complex))
        lo, hi = sorted((r1, r2))
        assert orlicz_functional(s, lo) <= orlicz_functional(s, hi) + 1e-12

    def test_monotone_in_pointwise_magnitude(self):
        rng = np.random.default_rng(16)
        a = rng.random(32)
        s1 = GridSignal(a.astype(complex))
        s2 = GridSignal((a + 0.5).astype(complex))
        assert orlicz_functional(s1, 0.5) <= orlicz_functional(s2, 0.5)


class TestBlockedReadings:
    """Readings reduced block by block against readings of the whole sample
    array from one plain FFT."""

    TERMS = [(1, 0.25), (1, 0.5), (math.inf, 0)]

    @pytest.mark.parametrize("M", [1 << 16, 1 << 18, 1 << 20])
    def test_sparse_tables(self, M):
        n, c = split_table(M, torus._SPLIT_ROWS // 4)
        assert next(torus._sample_blocks(n[:, None], c, M)).shape == (torus._SPLIT_ROWS, 16)
        got = torus._abs_readings(torus._sample_blocks(n[:, None], c, M), M, self.TERMS)
        want = whole_grid_readings(plain_samples(n, c, M), self.TERMS)
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [12, 13, 14, 15])
    def test_ingham_tails(self, k):
        M = 2 ** k
        G = torus.grid_size(2 * M, torus.SUP_L1_FACTOR)
        n, a = extremals._ingham_coefficients(0.5, 0.8, M + 1, 2 * M)
        assert next(torus._sample_blocks(n[:, None], a, G)).shape == (G // 32, 1)
        want = lp_norm(GridSignal(plain_samples(n, a, G)), math.inf)
        assert ingham_tail_sup(0.5, 0.8, M) == pytest.approx(want, rel=1e-14, abs=0)

    def test_ingham_weight_trend_sup(self):
        (M, _, sup, _), = ingham_weight_trend(0.5, 0.8, [10000])
        p = extremals.ingham_partial_sum(0.5, 0.8, M)
        G = torus.grid_size(M, torus.SUP_L1_FACTOR)
        assert next(torus._sample_blocks(p.freqs, p.values, G)).shape[0] < G
        want = lp_norm(GridSignal(plain_samples(p.freqs[:, 0], p.values, G)), math.inf)
        assert sup == pytest.approx(want, rel=1e-14, abs=0)

    def test_vallee_poussin_sharpness(self):
        t = sharpness_experiment(range(10, 15), (0.25, 0.5))
        for i, (N, M) in enumerate(zip(t.n_values, t.grids)):
            vp = vallee_poussin(N)
            if M >= torus._SPLIT_MIN_POINTS:
                assert next(torus._sample_blocks(vp.freqs, vp.values, M)).shape == (M // 4, 1)
            want = whole_grid_readings(plain_samples(vp.freqs[:, 0], vp.values, M),
                                       [(1, 0.25), (1, 0.5)])
            assert [t.phi[0.25][i], t.phi[0.5][i]] == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("table", ["sparse", "ingham", "vallee_poussin"])
    def test_assembled_samples_match_the_plain_fft(self, table):
        if table == "sparse":
            M = 1 << 17
            n, c = split_table(M, 300)
        elif table == "ingham":
            M = 1 << 18
            n, c = extremals._ingham_coefficients(0.5, 0.8, 2 ** 13 + 1, 2 ** 14)
        else:
            M = 1 << 17
            vp = vallee_poussin(13)
            n, c = vp.freqs[:, 0], vp.values
        plain = plain_samples(n, c, M)
        got = torus._sample(n[:, None], c, (M,))
        assert not np.array_equal(got, plain)  # a block form ran
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("count", [40, 12000])
    def test_below_the_threshold_every_reading_keeps_its_bits(self, count):
        M = torus._SPLIT_MIN_POINTS // 2
        p = random_poly(np.random.default_rng(count), 1, M // 2 - 1, count)
        plain = plain_samples(p.freqs[:, 0], p.values, M)
        blocks = list(torus._sample_blocks(p.freqs, p.values, M))
        assert len(blocks) == 1 and np.array_equal(blocks[0][:, 0], plain)
        assert np.array_equal(synthesize(p, M).values, plain)
        a = np.abs(plain)
        got = torus._grid_readings(p, M, [(1, 0.5), (1, 0.25), (1, 0), (2, 0), (math.inf, 0)])
        assert got == [float(np.mean(a * np.log1p(a) ** 0.5)),
                       float(np.mean(a * np.log1p(a) ** 0.25)), float(np.mean(a)),
                       float(np.mean(a ** 2.0)), float(a.max())]

    @pytest.mark.parametrize("table", ["sparse", "dense"])
    def test_overflow_raises_like_synthesize(self, table):
        M = 1 << 16
        if table == "sparse":
            p = TrigPoly(1, {20000: 1e308, 30001: 1e308})
        else:
            n = np.arange(M // 4, M // 2)   # span below M / 4: decimated
            p = TrigPoly.from_arrays(1, n, np.full(len(n), 1e305))
        assert torus.grid_size(p.degree, 2) == M
        with np.errstate(over="ignore", invalid="ignore"):
            assert next(torus._sample_blocks(p.freqs, p.values, M)).shape[0] < M
        with pytest.raises(ValueError, match="must be finite"):
            synthesize(p, M)
        with pytest.raises(ValueError, match="must be finite"):
            zygmund_ratio(p, MultiplierSeq.inverse_sqrt(M), check_multiplier=False)
        with pytest.raises(ValueError, match="must be finite"):
            torus._grid_readings(p, M, [(math.inf, 0)])

    def test_readings_that_overflow_raise(self):
        s = GridSignal(np.full(16, 1e308, dtype=complex))
        with pytest.raises(ValueError, match="must be finite"):
            orlicz_functional(s, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            lp_norm(s, 2)
        assert lp_norm(s, math.inf) == 1e308


class TestWeightedL2:
    def test_constant_weight_is_parseval(self):
        rng = np.random.default_rng(17)
        p = random_poly(rng, 1, 50, 20)
        m = MultiplierSeq.constant(1.0, 64)
        assert weighted_l2(p, m) == pytest.approx(p.l2_coeff_norm(), rel=1e-12)

    def test_indicator_restriction(self):
        from paleyzyg import FrequencySet
        p = TrigPoly(1, {1: 1.0, 2: 1.0, 4: 1.0})
        m = MultiplierSeq.indicator(FrequencySet(1, frozenset([1, 4])))
        assert weighted_l2(p, m) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_flat_kernel_harmonic_lower_bound(self):
        # exact harmonic sum H_1024 = sum_{n <= 2^10} 1/n computed directly
        H = float(np.sum(1.0 / np.arange(1, 1025)))
        assert H == pytest.approx(7.509176, abs=1e-6)
        vp = vallee_poussin(10)
        m = MultiplierSeq.inverse_sqrt(2 ** 11)
        assert weighted_l2(vp, m) >= math.sqrt(H)

    def test_sup_weight_bound(self):
        rng = np.random.default_rng(18)
        p = random_poly(rng, 1, 30, 12)
        m = MultiplierSeq.inverse_sqrt(64)
        s = synthesize(p, 128)
        assert weighted_l2(p, m) <= m.sup_norm() * lp_norm(s, 2) + 1e-12


class TestSquareFunction:
    def test_single_character_blocks(self):
        blocks = square_function_blocks(TrigPoly(1, {2: 1.0}))
        assert set(blocks) <= {0, 1}
        assert periodic_square_function_norm(TrigPoly(1, {2: 1.0})) <= math.sqrt(2) + 1e-12

    def test_zero_polynomial(self):
        assert periodic_square_function_norm(TrigPoly(1, {})) == 0.0

    def test_mean_never_enters(self):
        p = TrigPoly(1, {0: 100.0, 5: 1.0})
        q = TrigPoly(1, {5: 1.0})
        assert periodic_square_function_norm(p) == pytest.approx(
            periodic_square_function_norm(q), rel=1e-12)

    def test_split_frequency_two_blocks(self):
        # n = 5 meets two windows with weights 1/2 each
        blocks = square_function_blocks(TrigPoly(1, {5: 1.0}))
        weights = sorted(abs(b.coeffs[5]) for b in blocks.values())
        assert weights == pytest.approx([0.5, 0.5])
        val = periodic_square_function_norm(TrigPoly(1, {5: 1.0}))
        assert val == pytest.approx(math.sqrt(0.5), rel=1e-9)


class TestGridSize:
    def test_smallest_power_of_two_past_the_extent(self):
        # M >= 16 and M > factor * extent
        assert [torus.grid_size(e, 8) for e in (0, 1, 2, 3, 4)] == [16, 16, 32, 32, 64]
        assert [torus.grid_size(e, 2) for e in (7, 8, 15, 16)] == [16, 32, 32, 64]
        assert torus.grid_size(127, 32) == 4096


class TestBudget:
    """One cap on array sizes, checked before allocating; tested at a small cap."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(torus, "_MAX_GRID_POINTS", 64)

    @pytest.mark.parametrize("call, size", [
        (lambda: synthesize(TrigPoly(1, {3: 1.0}), 128), 128),
        (lambda: fejer(32), 65),
        (lambda: ingham_tail_sup(0.5, 0.8, 4), 128),
        (lambda: sidon_weight_divergence(0.8, 100), 99),
        (lambda: paley_block_sums(MultiplierSeq.inverse_sqrt(2 ** 10), 6), 65),
        (lambda: sidon_lower_bound(MultiplierSeq.constant(1.0, 8),
                                   FrequencySet(1, frozenset([1, 2, 4, 8])),
                                   Ensemble("flat")), 512),
        (lambda: even_p_ratio({0: 1.0, 9: 1.0}, 16), 128),
    ])
    def test_over_cap_names_the_size(self, call, size):
        with pytest.raises(ValueError, match=f"needs {size} points, over the budget of 64"):
            call()

    def test_at_cap_allowed(self):
        assert synthesize(TrigPoly(1, {3: 1.0}), 64).npoints == 64
        assert even_p_ratio({5: 1.0}, 16) == pytest.approx(1.0, abs=1e-12)   # 16 points
        assert len(fejer(31).coeffs) == 63
        assert len(paley_block_sums(MultiplierSeq.inverse_sqrt(2 ** 10), 5).block_sums) == 6
