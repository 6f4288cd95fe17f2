"""Transforms, norms, and functionals on the torus."""

import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleyzyg import (Ensemble, FrequencySet, GridSignal, MultiplierSeq, TrigPoly, analyze,
                      block_filling_corpus, coeffs_close, even_p_ratio, fejer, ingham_tail_sup,
                      ingham_weight_trend, paley_block_sums, sharpness_experiment, sidon_lower_bound,
                      sidon_weight_divergence, lp_norm, orlicz_functional,
                      periodic_square_function_norm, synthesize, vallee_poussin, weighted_l2,
                      zygmund_ratio)
from paleyzyg import extremals, torus, window


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


def loop_keys(keys, dim):
    """The frequency keys by a per-element loop, the reference for
    _int_keys: int() of each key, or of each component of a tuple of dim."""
    if dim == 1:
        return [int(n) for n in keys]
    return [tuple(int(v) for v in n) for n in keys]


class TestIntKeys:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_int_keys_match_the_per_element_loop(self, dim):
        rng = np.random.default_rng(dim)
        kinds = (int, np.int64, np.int32, np.uint64, np.int8)
        keys = []
        for i, v in enumerate(rng.integers(0, 100, size=(60, dim)).tolist()):
            parts = [kinds[(i + j) % len(kinds)](x) for j, x in enumerate(v)]
            keys.append(parts[0] if dim == 1 else tuple(parts))
        keys += [2 ** 63 - 1, -2 ** 63] if dim == 1 else [(2 ** 63 - 1, -2 ** 63)]
        got = torus._int_keys(keys, dim)
        assert got.dtype == np.int64
        assert got.shape == ((len(keys),) if dim == 1 else (len(keys), dim))
        want = loop_keys(keys, dim)
        assert (got.tolist() if dim == 1 else list(map(tuple, got.tolist()))) == want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_int64_arrays_come_back_uncopied(self, dim):
        freqs = np.arange(12, dtype=np.int64).reshape((12,) if dim == 1 else (6, 2))
        got = torus._int_keys(freqs, dim)
        assert np.shares_memory(got, freqs) and got.shape == freqs.shape
        assert torus._int_keys(np.arange(3, dtype=np.uint64), 1).tolist() == [0, 1, 2]
        assert torus._int_keys([], dim).shape == ((0,) if dim == 1 else (0, dim))

    @pytest.mark.parametrize("key", [2.5, 2.7, np.float64(3.0), "3", None])
    def test_non_integers_are_not_truncated(self, key):
        assert loop_keys([2.5], 1) == [2]           # what the loop did
        with pytest.raises(ValueError, match=re.escape(f"frequency {key!r} is not an integer")):
            torus._int_keys([1, key], 1)
        with pytest.raises(ValueError, match="is not a tuple of 2 integers"):
            torus._int_keys([(1, 2), (key, 1)], 2)

    @pytest.mark.parametrize("key", [2 ** 63, 2 ** 64, 2 ** 70, -2 ** 63 - 1])
    def test_integers_past_int64_are_named(self, key):
        with pytest.raises(ValueError, match=f"do not fit in int64: {key}"):
            torus._int_keys([1, key], 1)
        with pytest.raises(ValueError, match=f"do not fit in int64: \\(3, {key}\\)"):
            torus._int_keys([(3, key)], 2)

    @pytest.mark.parametrize("key, message", [
        (2.5, "frequency 2.5 is not an integer"),
        (2 ** 70, f"frequencies do not fit in int64: {2 ** 70}")])
    @pytest.mark.parametrize("build", [
        lambda n: FrequencySet(1, frozenset([3, n])),
        lambda n: MultiplierSeq.table({3: 1.0, n: 1.0}),
        lambda n: even_p_ratio({3: 1.0, n: 1.0}, 4),
        lambda n: TrigPoly(1, {3: 1.0, n: 1.0})],
        ids=["FrequencySet", "MultiplierSeq.table", "even_p_ratio", "TrigPoly"])
    def test_one_key_rule_for_every_table(self, build, key, message):
        with pytest.raises(ValueError, match=message):
            build(key)

    def test_nd_tables_share_the_rule(self):
        for build in (lambda keys: FrequencySet(2, frozenset(keys)),
                      lambda keys: even_p_ratio(dict.fromkeys(keys, 1.0), 4),
                      lambda keys: TrigPoly(2, dict.fromkeys(keys, 1.0))):
            with pytest.raises(ValueError, match=r"frequency \(1, 2.5\) is not a tuple of 2"):
                build([(0, 1), (1, 2.5)])
            with pytest.raises(ValueError, match="is not a tuple of 2 integers"):
                build([(0, 1), (1, 2, 3)])


def plain_samples(n, c, M):
    """The samples of the table {n: c} on M points by one scatter and one FFT."""
    spec = np.zeros(M, dtype=np.complex128)
    np.add.at(spec, n % M, c)
    return np.fft.ifft(spec, norm="forward")


def assembled_samples(n, c, M):
    """The blocks of every group of _block_form for the table {n: c} on M
    points, put in grid order: the split's blocks side by side, as a
    row-major array of _SPLIT_ROWS rows, or the decimation's block r, read
    row-major, as the samples r, r + D, ... (one group, D blocks)."""
    groups, shape, sample = torus._block_form(n, c, M)
    X = np.empty(shape, dtype=np.complex128)
    blocks = [b.copy() for b in sample(0, groups, X)]
    if groups == 1:
        return np.stack([b.reshape(-1) for b in blocks], axis=1).reshape(M)
    return np.concatenate(blocks, axis=1).reshape(M)


def decimated_blocks(n, c, M):
    """The decimated blocks of _block_form for the table {n: c} on M points,
    read row-major, and the same blocks from one inverse FFT each of their
    table values[n] e^{2 pi i n r / M} on L = M / D points, with exact
    twiddles."""
    groups, shape, sample = torus._block_form(n, c, M)
    X = np.empty(shape, dtype=np.complex128)
    got = [b.reshape(-1).copy() for b in sample(0, groups, X)]
    L = X.size
    for r in range(M // L):
        T = np.zeros(L, dtype=np.complex128)
        np.add.at(T, n % L, c * np.exp((2j * np.pi / M) * (n * r % M)))
        yield got[r], np.fft.ifft(T, norm="forward")


def block_shape(n, c, M):
    """The shape of the blocks _block_form takes for the table {n: c} on M
    points: (M, 1) for the whole grid."""
    return torus._block_form(n, c, M)[1][::-1]


def split_table(M, S):
    """S seeded terms whose frequencies coincide mod _SPLIT_ROWS, alias mod M
    and have both signs."""
    R = torus._SPLIT_ROWS
    rng = np.random.default_rng([M, S])
    n = rng.integers(-3 * M, 3 * M, S)
    n[1:6] = n[0] + np.array([R, -R, M, -2 * M, 5 * R - M])
    n[6] = -abs(n[6])
    return n, rng.standard_normal(S) + 1j * rng.standard_normal(S)


def readable_split_table(M, S):
    """split_table(M, S) with each frequency moved by a multiple of M into
    -M / 2 < n < M / 2, where _grid_readings takes it: the same samples."""
    n, c = split_table(M, S)
    n = (n + M // 2) % M - M // 2
    assert (n != -M // 2).all()
    return n, c


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
        # _sample is the plain scatter at every size; the blocks of
        # _block_form take the split on large grids
        R = torus._SPLIT_ROWS
        S = R // 4 + extra
        n, c = split_table(M, S)
        spec = np.zeros(M, dtype=np.complex128)
        np.add.at(spec, n % M, c)
        plain = np.fft.ifft(spec) * M
        assert np.array_equal(torus._sample(n[:, None], c, (M,)), plain)
        got = assembled_samples(n, c, M)
        if M >= torus._SPLIT_MIN_POINTS and S <= R // 4:
            assert not np.array_equal(got, plain)  # the split ran
            assert np.abs(got - plain).max() <= 1e-13 * np.abs(c).sum()
        else:
            assert np.array_equal(got, plain)

    def test_split_needs_rows_that_divide_the_grid(self):
        # GridSignal and _grid_readings take only powers of two, but _sample
        # itself takes any size, 100,000 too, by the plain scatter
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


class TestStackedSample:
    """A stack of tables (rows, n) on shared frequencies, sampled together."""

    @staticmethod
    def stack(sizes, rows=5, terms=40):
        rng = np.random.default_rng([len(sizes), *sizes])
        # frequencies past the grid wrap, and some share a bin
        freqs = rng.integers(-3 * max(sizes), 3 * max(sizes), (terms, len(sizes)))
        freqs[1:4] = freqs[0] + np.array(sizes)
        V = rng.standard_normal((rows, terms)) + 1j * rng.standard_normal((rows, terms))
        V[1, ::3] = 0    # zeros, which the scatter skips
        return freqs, V

    @pytest.mark.parametrize("sizes", [(16,), (1 << 12,), (1 << 15,), (64, 32), (8, 16, 4)])
    def test_rows_keep_their_bits(self, sizes):
        freqs, V = self.stack(sizes)
        got = torus._sample(freqs, V, sizes)
        assert got.shape == (len(V),) + sizes
        for row, v in zip(got, V):
            assert np.array_equal(row, torus._sample(freqs, v, sizes))
        assert np.array_equal(torus._sample(freqs, V[1:2], sizes)[0], got[1])

    @pytest.mark.parametrize("M", [1 << 16, 1 << 17])
    def test_rows_of_large_grids_agree(self, M):
        # where _block_form takes its block forms, one table and a stack
        # both take one plain FFT per row
        freqs, V = self.stack((M,))
        got = torus._sample(freqs, V, (M,))
        for row, v in zip(got, V):
            assert np.array_equal(row, torus._sample(freqs, v, (M,)))
            assert np.array_equal(row, plain_samples(freqs[:, 0], v, M))

    @pytest.mark.parametrize("sizes", [(16,), (1 << 12,), (1 << 16,), (64, 32)])
    def test_zeros_are_not_scattered(self, sizes):
        # a stack scatters only its nonzero entries; a bin starts at +0 and
        # never holds -0, so the samples keep the bits of the scatter of every
        # entry: a moment stack with zeros of both signs, and the one-hot rows
        # of the Sidon characters on frequencies that share bins
        freqs, V = self.stack(sizes)
        V[2, ::2] = -0.0
        V[3, 1::4] = complex(-0.0, -0.0)
        V[4] = np.where(np.arange(V.shape[1]) % 2, 1.0, -1.0)
        for values in (V, np.eye(len(freqs)), np.eye(len(freqs))[:, ::-1]):
            bins = np.ravel_multi_index(tuple((freqs % sizes).T), sizes)
            spec = np.zeros((len(values), math.prod(sizes)), dtype=np.complex128)
            np.add.at(spec, (np.arange(len(values))[:, None], bins), values)
            want = np.fft.ifftn(spec.reshape((len(values),) + sizes), norm="forward",
                                axes=tuple(range(1, 1 + len(sizes))))
            assert torus._sample(freqs, values, sizes).tobytes() == want.tobytes()

    def test_one_hot_rows_are_characters(self):
        # the Sidon ascent's characters, against e^{2 pi i (n j mod M) / M}
        n = np.array([2 ** k for k in range(11)] + [3 * 2 ** 10 - 1])
        M = torus.grid_size(int(n.max()), torus.SUP_L1_FACTOR)
        chars = torus._sample(n[:, None], np.eye(len(n)), (M,))
        exact = np.exp(2j * np.pi * (np.outer(n, np.arange(M)) % M) / M)
        assert chars.shape == (len(n), M)
        assert np.abs(chars - exact).max() <= 2e-15


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


    @pytest.mark.parametrize("shape, view", [((16, 32), np.transpose), ((64,), lambda x: x[::2])],
                             ids=["transposed", "strided"])
    def test_strided_samples_read_as_their_contiguous_copy(self, shape, view):
        rng = np.random.default_rng(5)
        v = view(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        s, copy = GridSignal(v), GridSignal(np.ascontiguousarray(v))
        assert s.values.flags.c_contiguous and np.array_equal(s.values, v)
        for p in (1, 2, math.inf):
            assert lp_norm(s, p) == lp_norm(copy, p)
        assert orlicz_functional(s, 0.5) == orlicz_functional(copy, 0.5)
        assert analyze(s) == analyze(copy)


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
        n, c = readable_split_table(M, torus._SPLIT_ROWS // 4)
        assert block_shape(n, c, M) == (torus._SPLIT_ROWS, 16)
        got = torus._grid_readings(n[:, None], c, M, self.TERMS)
        want = whole_grid_readings(plain_samples(n, c, M), self.TERMS)
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [12, 13, 14, 15])
    def test_ingham_tails(self, k):
        M = 2 ** k
        G = torus.grid_size(2 * M, torus.SUP_L1_FACTOR)
        n, a = extremals._ingham_coefficients(0.5, 0.8, M + 1, 2 * M)
        assert block_shape(n, a, G) == (G // 32, 1)
        want = lp_norm(GridSignal(plain_samples(n, a, G)), math.inf)
        assert ingham_tail_sup(0.5, 0.8, M) == pytest.approx(want, rel=1e-14, abs=0)

    def test_ingham_weight_trend_sup(self):
        (M, _, sup, _), = ingham_weight_trend(0.5, 0.8, [10000])
        p = extremals.ingham_partial_sum(0.5, 0.8, M)
        G = torus.grid_size(M, torus.SUP_L1_FACTOR)
        assert block_shape(p.freqs[:, 0], p.values, G)[0] < G
        want = lp_norm(GridSignal(plain_samples(p.freqs[:, 0], p.values, G)), math.inf)
        assert sup == pytest.approx(want, rel=1e-14, abs=0)

    def test_vallee_poussin_sharpness(self):
        t = sharpness_experiment(range(10, 15), (0.25, 0.5))
        for i, (N, M) in enumerate(zip(t.n_values, t.grids)):
            vp = vallee_poussin(N)
            if M >= torus._SPLIT_MIN_POINTS:
                # D = 4: one FFT of M / 4 points, or rows of 4096 from 2^16 points on
                L, R = M // 4, torus._SPLIT_ROWS
                want = (L, 1) if L < torus._SPLIT_COLUMNS * R else (R, L // R)
                assert block_shape(vp.freqs[:, 0], vp.values, M) == want
            want = whole_grid_readings(plain_samples(vp.freqs[:, 0], vp.values, M),
                                       [(1, 0.25), (1, 0.5)])
            assert [t.phi[0.25][i], t.phi[0.5][i]] == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("table, shape", [
        ("ingham/15", (1 << 15, 1)),        # below 16 rows of 4096: one FFT a block
        ("ingham/16", (4096, 16)),
        ("ingham/17", (4096, 32)),
        ("vallee_poussin/13", (1 << 15, 1)),
        ("vallee_poussin/14", (4096, 16)),
    ])
    def test_four_step_blocks_match_one_fft_a_block(self, table, shape):
        # decimated blocks of 16 or more rows of 4096 take the four-step,
        # smaller ones one FFT of L points
        kind, k = table.split("/")
        if kind == "ingham":
            n, c = extremals._ingham_coefficients(0.5, 0.8, 2 ** int(k) + 1, 2 ** (int(k) + 1))
            M = torus.grid_size(2 ** (int(k) + 1), torus.SUP_L1_FACTOR)
        else:
            vp = vallee_poussin(int(k))
            n, c, M = vp.freqs[:, 0], vp.values, torus.grid_size(vp.degree, torus.SUP_L1_FACTOR)
        assert block_shape(n, c, M) == shape
        worst = sup = 0.0
        for got, one_fft in decimated_blocks(n, c, M):
            worst = max(worst, np.abs(got - one_fft).max() / np.abs(one_fft).max())
            sup = max(sup, np.abs(one_fft).max())
        # the twiddle recurrence, and the four-step where it runs, against one
        # FFT a block of exact twiddles: at most 1.4e-15 measured
        assert worst <= 2e-15
        reading = torus._grid_readings(n[:, None], c, M, [(math.inf, 0)])[0]
        assert reading == pytest.approx(sup, rel=1e-15, abs=0)

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
        assert np.array_equal(torus._sample(n[:, None], c, (M,)), plain)
        got = assembled_samples(n, c, M)
        assert not np.array_equal(got, plain)  # a block form ran
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("count", [40, 12000])
    def test_below_the_threshold_every_reading_keeps_its_bits(self, count):
        M = torus._SPLIT_MIN_POINTS // 2
        p = random_poly(np.random.default_rng(count), 1, M // 2 - 1, count)
        plain = plain_samples(p.freqs[:, 0], p.values, M)
        assert torus._block_form(p.freqs[:, 0], p.values, M)[:2] == (1, (1, M))
        assert np.array_equal(assembled_samples(p.freqs[:, 0], p.values, M), plain)
        assert np.array_equal(synthesize(p, M).values, plain)
        a = np.abs(plain)
        got = torus._grid_readings(p.freqs, p.values, M,
                                   [(1, 0.5), (1, 0.25), (1, 0), (2, 0), (math.inf, 0)])
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
        assert block_shape(p.freqs[:, 0], p.values, M)[0] < M
        with pytest.raises(ValueError, match="must be finite"):
            synthesize(p, M)
        with pytest.raises(ValueError, match="must be finite"):
            zygmund_ratio(p, MultiplierSeq.inverse_sqrt(M), check_multiplier=False)
        with pytest.raises(ValueError, match="must be finite"):
            torus._grid_readings(p.freqs, p.values, M, [(math.inf, 0)])

    def test_a_grid_that_is_not_a_power_of_two_is_refused(self):
        # every caller reads on a grid_size grid; on a power of two every
        # column group of the split is full
        p = random_poly(np.random.default_rng(21), 1, 1000, 40)
        with pytest.raises(ValueError, match="69632"):
            torus._grid_readings(p.freqs, p.values, 4096 * 17, self.TERMS)

    def test_readings_that_overflow_raise(self):
        s = GridSignal(np.full(16, 1e308, dtype=complex))
        with pytest.raises(ValueError, match="must be finite"):
            orlicz_functional(s, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            lp_norm(s, 2)
        assert lp_norm(s, math.inf) == 1e308


# Both log terms matter: every log term but the last reads a C-order copy of
# the transposed log block, whose sum differs from the block's own by an ulp.
SPLIT_TERMS = [(1, 0.25), (1, 0.5), (math.inf, 0), (2, 0)]


class CountingThread(threading.Thread):
    started = []

    def start(self):
        CountingThread.started.append(self)
        super().start()


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): pretend the process may run on k CPUs, and count the threads
    started from then on in CountingThread.started."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(threading, "Thread", CountingThread)
        CountingThread.started = []
    return set_cpus


class TestSplitRuns:
    """The split blocks of a sparse table are read in two runs on two or
    more CPUs, the second on a thread that ends with the call."""

    @staticmethod
    def table():
        # a criterion-4 polynomial on blocks 1..15, read on 2^17 points: two
        # column groups
        p = block_filling_corpus(1, k_lo=1, k_hi=15, seed=20240)[0]
        assert torus.grid_size(p.degree, 2) == 1 << 17
        return p.freqs, p.values, 1 << 17

    def test_runs_keep_the_bits_of_one_run(self, cpus):
        # 2, 4 and 16 column groups: one run on one CPU, two on two
        for M in (1 << 17, 1 << 18, 1 << 20):
            n, c = readable_split_table(M, torus._SPLIT_ROWS // 4)
            cpus(1)
            want = torus._grid_readings(n[:, None], c, M, SPLIT_TERMS)
            assert CountingThread.started == []
            cpus(2)
            assert torus._grid_readings(n[:, None], c, M, SPLIT_TERMS) == want
            assert len(CountingThread.started) == 1

    @pytest.mark.parametrize("table, shape", [
        ("ingham", (1, 1 << 12)),               # decimated, D = 32
        ("vallee_poussin", (1, 1 << 14)),       # on its sharpness grid, D = 4
        ("split", (16, torus._SPLIT_ROWS)),     # 2^16 points: one column group
        ("whole", (1, 2048)),
        ("four_step", (16, torus._SPLIT_ROWS)),  # the Ingham tail k = 16: D = 32
    ])
    def test_one_group_starts_no_thread(self, cpus, table, shape):
        # the decimation and the whole grid are one group: two runs of the
        # Ingham tail of 2^17 terms raised the grid benchmark's peak RSS
        # from 58.7 to 70.3 MB
        if table == "ingham":
            n, c = extremals._ingham_coefficients(0.5, 0.8, 2 ** 12 + 1, 2 ** 13)
            M = torus.grid_size(2 ** 13, torus.SUP_L1_FACTOR)
        elif table == "four_step":
            n, c = extremals._ingham_coefficients(0.5, 0.8, 2 ** 16 + 1, 2 ** 17)
            M = torus.grid_size(2 ** 17, torus.SUP_L1_FACTOR)
        elif table == "vallee_poussin":
            vp = vallee_poussin(12)
            n, c, M = vp.freqs[:, 0], vp.values, torus.grid_size(vp.degree, torus.SUP_L1_FACTOR)
        elif table == "split":
            M = 1 << 16
            n, c = readable_split_table(M, torus._SPLIT_ROWS // 4)
        else:
            p = random_poly(np.random.default_rng(2048), 1, 1023, 40)
            n, c, M = p.freqs[:, 0], p.values, 2048
        assert torus._block_form(n, c, M)[:2] == (1, shape)
        cpus(1)
        want = torus._grid_readings(n[:, None], c, M, SPLIT_TERMS)
        cpus(2)
        assert torus._grid_readings(n[:, None], c, M, SPLIT_TERMS) == want
        assert CountingThread.started == []

    def test_two_cpus_start_one_thread_that_ends_with_the_call(self, cpus):
        freqs, values, M = self.table()
        cpus(1)
        want = torus._grid_readings(freqs, values, M, SPLIT_TERMS)
        cpus(2)
        before = threading.active_count()
        assert torus._grid_readings(freqs, values, M, SPLIT_TERMS) == want
        assert len(CountingThread.started) == 1
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, cpus, monkeypatch):
        freqs, values, M = self.table()
        cpus(1)
        torus._grid_readings(freqs, values, M, SPLIT_TERMS)
        assert CountingThread.started == []
        # where the OS reports no affinity, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        for count, threads in ((1, 0), (None, 0), (2, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            CountingThread.started = []
            torus._grid_readings(freqs, values, M, SPLIT_TERMS)
            assert len(CountingThread.started) == threads

    def test_overflow_in_the_worker_raises_with_no_warning(self, cpus):
        # the table of test_overflow_raises_like_synthesize on 2^17 points,
        # two column groups: the worker reads the second under its own errstate
        p = TrigPoly(1, {20000: 1e308, 30001: 1e308})
        cpus(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                torus._grid_readings(p.freqs, p.values, 1 << 17, [(1, 0.5), (math.inf, 0)])
        assert len(CountingThread.started) == 1

    def test_an_exception_in_the_worker_is_raised_after_the_join(self, cpus, monkeypatch):
        M = 1 << 18
        n, c = readable_split_table(M, 300)
        main, partials = threading.current_thread(), torus._block_partials

        def failing(block, *args):
            if threading.current_thread() is not main:
                raise MemoryError("planted in the worker")
            return partials(block, *args)

        monkeypatch.setattr(torus, "_block_partials", failing)
        cpus(2)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="planted in the worker"):
            torus._grid_readings(n[:, None], c, M, SPLIT_TERMS)
        assert len(CountingThread.started) == 1
        assert threading.active_count() == before

    def test_a_criterion_4_ratio_holds_two_runs_of_buffers(self, cpus):
        # per run 2 MiB: samples, |f| and log(1 + |f|), each 16 x 4096
        p = block_filling_corpus(1, k_lo=1, k_hi=18, seed=20240)[0]
        assert torus.grid_size(p.degree, 2) == 1 << 20
        cpus(2)
        peak = traced_peak(lambda: zygmund_ratio(p, MultiplierSeq.inverse_sqrt(2 ** 19),
                                                 check_multiplier=False))
        assert len(CountingThread.started) == 1
        assert peak < 4 * 2 ** 20 + 256 * 1024


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

    def test_long_table_matches_the_whole_table_formula(self):
        # the squares of a table of several chunks, summed in chunks, have
        # the bits of one whole-table expression
        rng = np.random.default_rng(19)
        size = 3 * torus._SUM_CHUNK + 5
        n = rng.permutation(np.arange(-2 * size, 2 * size))[:size]
        p = TrigPoly.from_arrays(1, n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for m in (MultiplierSeq.inverse_sqrt(4 * size), MultiplierSeq.constant(0.5 - 2j, 4 * size),
                  MultiplierSeq.indicator(FrequencySet(1, frozenset(n[::3].tolist())))):
            whole = m.values_at(p.freqs[:, 0]) * p.values
            assert weighted_l2(p, m) == math.sqrt(float(np.sum(np.abs(whole) ** 2)))


def traced_peak(f):
    """The tracemalloc peak, in bytes, of a call of f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Long sums hold their one output buffer and a chunk's temporaries
    (_chunked_sum); tables are built with no table-sized temporary but one
    sorted copy of the frequencies.  The figures in parentheses are those of
    whole-array expressions."""

    def test_block_sums_hold_one_buffer(self):
        # 2^20 + 1 floats and under _CHUNK_BYTES more (41 MB with whole-block
        # temporaries)
        m = MultiplierSeq.inverse_sqrt(2 ** 21)
        peak = traced_peak(lambda: paley_block_sums(m, 20))
        assert peak < 8 * (2 ** 20 + 1) + torus._CHUNK_BYTES

    def test_weighted_l2_holds_one_float_per_term(self):
        # 8.0 MB on V_{2^18}, 2^20 - 1 terms (25 MB with whole-table temporaries)
        vp = vallee_poussin(18)
        m = MultiplierSeq.inverse_sqrt(2 ** 19)
        peak = traced_peak(lambda: weighted_l2(vp, m))
        assert peak < 8 * len(vp.values) + torus._CHUNK_BYTES

    def test_vallee_poussin_holds_the_table_and_one_sorted_copy(self):
        # the table, 24 bytes a term, is 24 MB at N = 18; one sorted copy of
        # the frequencies and a few flag arrays bring it to 35 MB (66 MB with
        # whole-table temporaries and copies)
        assert traced_peak(lambda: vallee_poussin(18)) < 40 * 2 ** 20


def dyadic_blocks_by_scale(p, ks):
    """{k: Delta_k} over the _dyadic_blocks of p's table, one scatter on its
    square-function grid, for the k in ks that are not skipped."""
    grid = torus.grid_size(p.degree, torus.SUP_L1_FACTOR)
    spec = np.zeros(grid, dtype=np.complex128)
    np.add.at(spec, p.freqs[:, 0] % grid, p.values)
    xi = np.fft.fftfreq(grid, d=1.0 / grid)
    return {k: stack[0] for k in ks for stack in torus._dyadic_blocks(spec, xi, [k], "forward")}


def per_block_square_function_norm(p):
    """periodic_square_function_norm block by block, the reference for its
    one scatter: one table per block, each sampled by the blocks of
    _block_form (the split or decimation on grids of 2^16 points or more)."""
    n = p.freqs[:, 0]
    grid = torus.grid_size(p.degree, torus.SUP_L1_FACTOR)
    acc = np.zeros(grid)
    mags = np.abs(n[n != 0])
    for k in window.blocks_meeting(int(mags.min()), int(mags.max())):
        w = window.eta_scaled(n, k)
        keep = w != 0.0
        if keep.any():
            acc += np.abs(assembled_samples(n[keep], w[keep] * p.values[keep], grid)) ** 2
    return float(np.mean(np.sqrt(acc)))


class TestSquareFunction:
    def test_single_character_blocks(self):
        # n = 2 meets only blocks 0 and 1, and sits on the edge of block 1,
        # where the window is 0: block 1 is skipped
        p = TrigPoly(1, {2: 1.0})
        blocks = dyadic_blocks_by_scale(p, range(-3, 8))
        assert set(blocks) == {0}
        assert np.abs(np.abs(blocks[0]) - 1.0).max() <= 1e-15
        assert periodic_square_function_norm(p) <= math.sqrt(2) + 1e-12

    def test_zero_polynomial(self):
        assert periodic_square_function_norm(TrigPoly(1, {})) == 0.0

    def test_mean_never_enters(self):
        p = TrigPoly(1, {0: 100.0, 5: 1.0})
        q = TrigPoly(1, {5: 1.0})
        assert periodic_square_function_norm(p) == pytest.approx(
            periodic_square_function_norm(q), rel=1e-12)

    def test_split_frequency_two_blocks(self):
        # n = 5 meets two windows with weights 1/2 each
        blocks = dyadic_blocks_by_scale(TrigPoly(1, {5: 1.0}), range(-3, 8))
        assert set(blocks) == {1, 2}
        for block in blocks.values():
            assert np.abs(np.abs(block) - 0.5).max() <= 1e-15
        val = periodic_square_function_norm(TrigPoly(1, {5: 1.0}))
        assert val == pytest.approx(math.sqrt(0.5), rel=1e-9)

    @pytest.mark.parametrize("degree, count", [(3, 4), (100, 60), (1000, 40), (4000, 900)])
    def test_one_scatter_keeps_the_bits_of_the_per_block_tables(self, degree, count):
        # below 2^16 points every block table is one plain FFT
        p = random_poly(np.random.default_rng([degree, count]), 1, degree, count)
        assert torus.grid_size(p.degree, torus.SUP_L1_FACTOR) < torus._SPLIT_MIN_POINTS
        assert periodic_square_function_norm(p) == per_block_square_function_norm(p)

    @pytest.mark.parametrize("grid", [2 ** e for e in range(4, 14)])
    def test_stacks_have_the_bits_of_one_block_at_a_time(self, grid):
        # stacks of max(1, _CHUNK_BYTES // (32 M)) blocks, each row equal to
        # the block's own inverse FFT: one stack below 2^8 points, stacks of
        # 2^7 .. 2 blocks up to 2^11 and one block a stack from 2^12 on
        rng = np.random.default_rng(grid)
        spec = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
        spec[0] = 0.0
        xi = np.fft.fftfreq(grid, d=1.0 / grid)
        ks = range(-1, grid.bit_length() - 2)
        rows = max(1, torus._CHUNK_BYTES // (32 * grid))
        stacks = list(torus._dyadic_blocks(spec, xi, ks, "forward"))
        meeting = [k for k in window.blocks_meeting(1, grid // 2) if k in ks]
        assert [len(stack) for stack in stacks] == [
            min(rows, len(meeting) - lo) for lo in range(0, len(meeting), rows)]
        got = [row for stack in stacks for row in stack]
        for k, row in zip(meeting, got, strict=True):
            assert np.array_equal(row, np.fft.ifft(window.eta_scaled(xi, k) * spec,
                                                   norm="forward"))

    def test_one_inverse_fft_per_block_from_two_to_the_twelve(self, monkeypatch):
        # a 2^13-point grid holds one block a stack
        p = random_poly(np.random.default_rng(13), 1, 1000, 40)
        grid = torus.grid_size(p.degree, torus.SUP_L1_FACTOR)
        assert grid == 2 ** 13
        mags = np.abs(p.freqs[:, 0][p.freqs[:, 0] != 0])
        blocks = [k for k in window.blocks_meeting(int(mags.min()), int(mags.max()))
                  if -1 <= k < grid.bit_length() - 2]
        want = periodic_square_function_norm(p)
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        assert periodic_square_function_norm(p) == want
        assert calls == [(1, grid)] * len(blocks)

    @pytest.mark.parametrize("table", ["sparse", "vallee_poussin"])
    def test_per_block_tables_on_large_grids(self, table):
        # there the block tables took the split or decimation
        if table == "sparse":
            p = random_poly(np.random.default_rng(19), 1, 12000, 40)
        else:
            p = vallee_poussin(12)
        assert torus.grid_size(p.degree, torus.SUP_L1_FACTOR) >= torus._SPLIT_MIN_POINTS
        want = per_block_square_function_norm(p)
        assert periodic_square_function_norm(p) == pytest.approx(want, rel=1e-15, abs=0)


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
        (lambda: periodic_square_function_norm(TrigPoly(1, {9: 1.0})), 128),
    ])
    def test_over_cap_names_the_size(self, call, size):
        with pytest.raises(ValueError, match=f"needs {size} points, over the budget of 64"):
            call()

    def test_at_cap_allowed(self):
        assert synthesize(TrigPoly(1, {3: 1.0}), 64).npoints == 64
        assert even_p_ratio({5: 1.0}, 16) == pytest.approx(1.0, abs=1e-12)   # 16 points
        assert len(fejer(31).coeffs) == 63
        assert len(paley_block_sums(MultiplierSeq.inverse_sqrt(2 ** 10), 5).block_sums) == 6
