"""Compact signals, dyadic blocks, Paley measures, and the line harnesses."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from paleyzyg import _kernels, realline, torus, window
from paleyzyg import (CompactSignal, PaleyMeasure, fourier_transform, low_block_divergence,
                      lp_block, mean_zero_reduction, mu_l2_sq, paley_inequality_probe,
                      paley_sup, product_paley_sup_2d, raised_cosine_bump,
                      random_mean_zero_corpus, rudin_counterexample, square_function_norm,
                      zygmund_realline_probe)
from paleyzyg.realline import default_k_range


def gaussian_signal(L=8.0, M=2048, sigma=0.5):
    h = 2 * L / M
    x = -L + h * np.arange(M)
    return CompactSignal(np.exp(-x ** 2 / (2 * sigma ** 2)).astype(complex), L)


def block_signal(k, decay, L=8.0, M=2048):
    """The signal on [-L, L) whose transform on the dual grid xi_m = m/(2L)
    is exp(-|xi| / decay) on 1.5 * 2^k <= |xi| <= 2^(k+1) and 0 elsewhere.
    There f_hat(xi_m) = h (-1)^m fft(f)_m, so f = ifft((-1)^m f_hat) / h."""
    m = np.fft.fftfreq(M, d=1.0 / M)
    xi = m / (2 * L)
    hat = np.where((np.abs(xi) >= 1.5 * 2 ** k) & (np.abs(xi) <= 2.0 ** (k + 1)),
                   np.exp(-np.abs(xi) / decay), 0.0)
    return CompactSignal(np.fft.ifft((-1.0) ** m * hat) / (2 * L / M), L)


def dense_mu_l2_sq(mu, s, k_range):
    """int |f_hat|^2 dmu at the nodes of mu, with f_hat by the dense sum."""
    xs, ws, _ = mu._nodes(k_range)
    fhat = s.h * _kernels.nudft(s.values, s.x(), xs.ravel()).reshape(xs.shape)
    return float(np.sum(ws * np.abs(fhat) ** 2))


class TestTransform:
    def test_zero_frequency_is_plain_quadrature(self):
        s = gaussian_signal()
        got = fourier_transform(s, [0.0])[0]
        assert got == pytest.approx(s.h * s.values.sum(), rel=1e-14)

    def test_gaussian_pair(self):
        sigma = 0.5
        s = gaussian_signal(sigma=sigma)
        xi = np.linspace(-8, 8, 33)
        got = fourier_transform(s, xi)
        exact = np.sqrt(2 * np.pi) * sigma * np.exp(-2 * (np.pi * sigma * xi) ** 2)
        assert np.abs(got - exact).max() <= 1e-4

    def test_real_even_gives_real_even(self):
        s = gaussian_signal()
        xi = np.linspace(-4, 4, 17)
        got = fourier_transform(s, xi)
        assert np.abs(got.imag).max() <= 1e-10
        assert np.abs(got - got[::-1]).max() <= 1e-10

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(3)
        L, M = 4.0, 256
        vals = rng.standard_normal(M)
        s = CompactSignal(vals.astype(complex), L)
        xi = np.array([0.3, 1.1, 2.7])
        a = fourier_transform(s, xi)
        b = fourier_transform(s, -xi)
        assert np.abs(a - np.conj(b)).max() <= 1e-12

    def test_linearity(self):
        s1 = gaussian_signal(sigma=0.4)
        s2 = gaussian_signal(sigma=0.9)
        xi = np.array([0.5, 1.5])
        combo = CompactSignal(2 * s1.values + 1j * s2.values, s1.half_width)
        got = fourier_transform(combo, xi)
        ref = 2 * fourier_transform(s1, xi) + 1j * fourier_transform(s2, xi)
        assert np.abs(got - ref).max() <= 1e-12

    def test_band_rejection(self):
        s = gaussian_signal(L=8.0, M=256)
        with pytest.raises(ValueError, match="band"):
            fourier_transform(s, [s.band * 2])
        with pytest.raises(ValueError, match="frequency grid lies outside the validity band"):
            fourier_transform(s, [0.0, math.nan])
        # the band's edge, with its 1e-12 slack, is inside for nodes and blocks
        assert fourier_transform(s, [-s.band * (1 + 1e-13)]).shape == (1,)
        top = int(math.log2(s.band)) - 2
        assert lp_block(s, top).size == s.size
        with pytest.raises(ValueError, match=f"block {top + 1} lies outside the validity band"):
            lp_block(s, top + 1)

    @pytest.mark.parametrize("half_width", [math.nan, math.inf, 0.0, -1.0])
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            CompactSignal(np.ones(16, dtype=complex), half_width)

    @pytest.mark.parametrize("values, message", [
        (np.ones((16, 16), dtype=complex), "need a 1D sample array of length >= 16"),
        (np.ones(8, dtype=complex), "need a 1D sample array of length >= 16"),
        (np.ones(48, dtype=complex), "grid sizes must be powers of two"),
        (np.r_[np.ones(15), np.nan].astype(complex), "grid values must be finite")])
    def test_sample_rules(self, values, message):
        # a 1-D GridSignal of 16 samples or more: the grid rules are torus's
        with pytest.raises(ValueError, match=message):
            CompactSignal(values, 4.0)

    def test_a_signal_is_a_grid_signal(self):
        s = random_mean_zero_corpus(1)[0]
        assert isinstance(s, torus.GridSignal)
        assert torus.lp_norm(s, 1) == torus.lp_norm(torus.GridSignal(s.values), 1)
        assert torus.orlicz_functional(s, 0.5) == \
            torus.orlicz_functional(torus.GridSignal(s.values), 0.5)
        assert torus.lp_norm(s, math.inf) == float(np.abs(s.values).max())

    def test_l1_and_orlicz_keep_the_rectangle_rule_bits(self):
        # the criterion-9 corpus against the rectangle rules the torus means
        # replaced: h sum |f| and h sum |f| sqrt(log(1 + |f|))
        for s in random_mean_zero_corpus(100):
            a = np.abs(s.values)
            assert s.l1() == float(s.h * np.abs(s.values).sum())
            assert s.orlicz_half() == float(s.h * np.sum(a * np.sqrt(np.log1p(a))))

    @pytest.mark.parametrize("M", [16, 32, 2048, 2 ** 15])
    @pytest.mark.parametrize("L", [0.5, 4.0, 64.0])
    def test_nufft_matches_dense_sum(self, M, L):
        # from the smallest window to 2^15 samples, nodes at the band edges,
        # where the Gaussian gather reaches the extended spectrum's ends
        rng = np.random.default_rng([M, int(4 * L)])
        s = CompactSignal(rng.standard_normal(M) + 1j * rng.standard_normal(M), L)
        freqs = np.concatenate([[0.0, s.band, -s.band],
                                rng.uniform(-s.band, s.band, 200)])
        got = fourier_transform(s, freqs)
        dense = s.h * _kernels.nudft(s.values, s.x(), freqs)
        assert np.abs(got - dense).max() <= 1e-13 * s.l1()
        assert fourier_transform(s, []).shape == (0,)

    def test_large_frequency_grid_is_blocked(self):
        # 10,000 frequencies at M = 2^15 take 79 passes of 128 nodes and peak
        # at 2.1 MB; one pass over all of them would peak at 7.4 MB.
        rng = np.random.default_rng(11)
        M = 2 ** 15
        s = CompactSignal(rng.standard_normal(M) + 1j * rng.standard_normal(M), 4.0)
        freqs = rng.uniform(-s.band, s.band, 10_000)
        tracemalloc.start()
        try:
            got = fourier_transform(s, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        pieces = [fourier_transform(s, freqs[i:i + 128]) for i in range(0, freqs.size, 128)]
        assert np.array_equal(got, np.concatenate(pieces))


class TestBlocks:
    def test_block_of_band_limited_signal_is_identity(self):
        k = 2
        f = block_signal(k, 1.0)
        g = lp_block(f, k)
        scale = np.abs(f.values).max()
        assert np.abs(g.values - f.values).max() <= 1e-10 * scale

    def test_block_of_zero_is_zero(self):
        s = CompactSignal(np.zeros(64, dtype=complex), 2.0)
        assert np.abs(lp_block(s, 0).values).max() == 0.0

    def test_band_violation_rejected(self):
        s = gaussian_signal(L=8.0, M=256)
        with pytest.raises(ValueError, match="band"):
            lp_block(s, 10)

    def test_square_function_zero(self):
        s = CompactSignal(np.zeros(64, dtype=complex), 2.0)
        assert square_function_norm(s, (-2, 0)) == 0.0

    def test_square_function_single_block(self):
        k = 2
        f = block_signal(k, 8.0)
        assert square_function_norm(f, (k - 3, k + 1)) >= f.l1() * 0.9

    def test_square_function_stable_under_widening(self):
        s = random_mean_zero_corpus(1)[0]
        kr = default_k_range(s)
        a = square_function_norm(s, kr)
        b = square_function_norm(s, (kr[0] - 5, kr[1]))
        assert abs(a - b) <= 0.01 * a

    def test_blocks_below_the_float_range_are_skipped(self):
        # blocks -1100..-11 hold no dual-grid point m/8 of the L = 4 corpus;
        # from k = -1075 on down 2^k is 0 and eta_scaled(0, k) would be 0/0
        s = random_mean_zero_corpus(1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = square_function_norm(s, (-1100, 2))
            assert not lp_block(s, -1100).values.any()
        assert got.hex() == square_function_norm(s, (-10, 2)).hex()

    def test_far_below_ranges_are_not_walked(self):
        # the blocks of a range are intersected with the few that meet the
        # dual grid, and one band check reads the top block
        s = random_mean_zero_corpus(1)[0]
        want = square_function_norm(s, (-10, 2))
        assert square_function_norm(s, (-10 ** 12, 2)) == want
        assert not lp_block(s, -10 ** 12).values.any()
        with pytest.raises(ValueError, match=r"^block 5 lies outside the validity band"):
            square_function_norm(s, (-10 ** 12, 10 ** 12))

    def test_a_mass_table_past_the_budget_is_refused(self, monkeypatch):
        mu = PaleyMeasure.from_atoms([(3.0, 1.0)])
        with pytest.raises(ValueError, match=r"^the mass table of blocks -100000000\.\.2 needs "
                                             r"100000003 points, over the budget of 16777216$"):
            paley_sup(mu, (-10 ** 8, 2))
        # at a small cap: a table of the cap's size is made, one more block is not
        monkeypatch.setattr(torus, "_MAX_GRID_POINTS", 64)
        assert paley_sup(mu, (-61, 2)).sup == 1.0
        with pytest.raises(ValueError, match=r"^the mass table of blocks -62\.\.2 needs 65 points"):
            paley_sup(mu, (-62, 2))


class TestPaleyMeasure:
    def test_atoms_block_mass(self):
        mu = PaleyMeasure.from_atoms([(2.0 ** k, 1.0) for k in range(5)])
        rep = paley_sup(mu, (0, 4))
        assert rep.sup == 1.0
        assert rep.verdict == "bounded-in-range"

    def test_growing_atoms_flagged(self):
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, float(k + 1)) for k in range(12)])
        rep = paley_sup(mu, (0, 11))
        assert rep.sup == 12.0
        assert rep.verdict == "diverging"

    def test_inverse_abs_block_mass(self):
        mu = PaleyMeasure.inverse_abs(-20, 10)
        for k in (-20, -3, 0, 7):
            assert mu.block_mass(k) == pytest.approx(2 * math.log(2), abs=1e-10)
        assert paley_sup(mu, (-20, 10)).sup == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_block_masses_follow_the_dyadic_edges(self):
        # block edges at powers of two, both signs, a zero atom (in no block,
        # also where 2^k underflows to 0), a zero weight, the smallest
        # subnormal, a block holding two atoms, and ranges holding no atom;
        # masses sum in atom order from 0.0, compared by repr (0 and 0.0 differ)
        atoms = [(1.5 * 2.0 ** k, 0.1 * (k + 21)) for k in range(-20, 30, 3)]
        atoms += [(2.0, 0.3), (-2.0, 0.2), (-3.999, 0.7), (4.0, 0.5), (0.0, 1.0),
                  (5.0, 0.0), (5e-324, 2.0), (-0.3, 0.1), (0.35, 0.7)]

        def mass(k):
            total = 0.0
            for xi, w in atoms:
                if w > 0 and xi != 0 and 2.0 ** k <= abs(xi) < 2.0 ** (k + 1):
                    total += w
            return total

        mu = PaleyMeasure.from_atoms(atoms)
        for k_lo, k_hi in ((-25, 35), (0, 0), (3, 2), (-1080, -1070), (-1080, -1076)):
            want = [mass(k) for k in range(k_lo, k_hi + 1)]
            assert repr(mu.block_masses(k_lo, k_hi)) == repr(want)
            assert repr([mu.block_mass(k) for k in range(k_lo, k_hi + 1)]) == repr(want)
        assert PaleyMeasure.from_atoms([]).block_masses(-3, 2) == [0.0] * 6
        dens = PaleyMeasure.inverse_abs(-5, 5)
        assert dens.block_masses(-7, 7) == [dens.block_mass(k) for k in range(-7, 8)]

    def test_density_block_masses_keep_the_bits_of_each_block_alone(self):
        mu = PaleyMeasure.inverse_abs(-6, 8)
        for k_lo, k_hi in ((-40, 12), (5, 2), (0, 1000), (-6, 8), (3, 3), (-9, -7)):
            want = [realline._sum_by_block(mu._nodes((k, k))[1]) for k in range(k_lo, k_hi + 1)]
            assert repr(mu.block_masses(k_lo, k_hi)) == repr(want)

    def test_density_blocks_outside_the_normal_range_rejected(self):
        assert PaleyMeasure.inverse_abs(-1022, 1022).block_mass(-1022) > 0
        for k_min, k_max in ((-1023, 0), (-1100, 2), (0, 1023)):
            with pytest.raises(ValueError, match="density blocks must lie in -1022..1022"):
                PaleyMeasure.inverse_abs(k_min, k_max)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be 'atoms' or 'density', got 'bogus'"):
            PaleyMeasure(kind="bogus", k_min=0, k_max=2)

    def test_density_built_directly_rejects_an_empty_block_range(self):
        with pytest.raises(ValueError, match="k_max must be >= k_min"):
            PaleyMeasure(kind="density", k_min=5, k_max=3)

    def test_density_built_directly_rejects_blocks_outside_the_normal_range(self):
        # checked before any node is made, so no divide-by-zero warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k_min, k_max in ((-1100, 0), (1100, 1100)):
                with pytest.raises(ValueError, match="density blocks must lie in -1022..1022"):
                    PaleyMeasure(kind="density", k_min=k_min, k_max=k_max)
                with pytest.raises(ValueError, match="density blocks must lie in -1022..1022"):
                    PaleyMeasure.inverse_abs(k_min, k_max)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PaleyMeasure.from_atoms([(1.0, -2.0)])

    def test_atom_inside_gap_rejected(self):
        with pytest.raises(ValueError):
            PaleyMeasure.from_atoms([(0.1, 1.0)], gap=0.5)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf, -1.0])
    def test_gap_must_be_finite_and_non_negative(self, gap):
        for build in (lambda: PaleyMeasure.from_atoms([(3.0, 1.0)], gap=gap),
                      lambda: PaleyMeasure(kind="density", k_min=0, k_max=2, gap=gap)):
            with pytest.raises(ValueError, match="gap must be finite and >= 0"):
                build()
        assert PaleyMeasure.from_atoms([(3.0, 1.0)], gap=0.0).gap == 0.0
        assert PaleyMeasure.inverse_abs(-3, 2).gap == 0.125

    def test_measures_are_data(self):
        # equal measures compare and hash equal, whichever call built them
        for build in (lambda: PaleyMeasure.inverse_abs(-2, 4),
                      lambda: PaleyMeasure.from_atoms([(3.0, 1.0), (-5.0, 2.0)], gap=1.0)):
            assert build() == build() and hash(build()) == hash(build())
        assert len({PaleyMeasure.inverse_abs(-2, 4), PaleyMeasure.inverse_abs(-2, 4),
                    PaleyMeasure.inverse_abs(-10, 4)}) == 2

    def test_nodes_name_the_block_of_each_row(self):
        mu = PaleyMeasure.inverse_abs(-3, 5)
        xs, ws, ks = mu._nodes((-10, 2))
        assert ks.tolist() == list(range(-3, 3)) and xs.shape == ws.shape == (6, 128)
        for row, k in zip(xs, ks.tolist()):
            assert np.all((2.0 ** k <= np.abs(row)) & (np.abs(row) < 2.0 ** (k + 1)))
            assert np.array_equal(mu.block_nodes(k)[0], row)
        atoms = PaleyMeasure.from_atoms([(0.0, 1.0), (-3.0, 2.0), (5.0, 0.0), (1.0, 4.0)])
        xs, ws, ks = atoms._nodes((0, 3))
        assert xs.ravel().tolist() == [-3.0, 1.0] and ws.ravel().tolist() == [2.0, 4.0]
        assert ks.tolist() == [1, 0]
        assert atoms._nodes(None)[0].ravel().tolist() == [0.0, -3.0, 1.0]
        assert atoms.block_masses(-1, 2) == [0.0, 4.0, 2.0, 0.0]

    def test_subadditive_for_atom_sums(self):
        a = PaleyMeasure.from_atoms([(3.0, 1.0), (12.0, 2.0)])
        b = PaleyMeasure.from_atoms([(3.5, 0.5), (100.0, 1.0)])
        merged = PaleyMeasure.from_atoms(list(a.atoms) + list(b.atoms))
        for kr in ((0, 7),):
            assert paley_sup(merged, kr).sup <= paley_sup(a, kr).sup + paley_sup(b, kr).sup


class TestProbe:
    def test_zero_measure_ratio_zero(self):
        mu = PaleyMeasure.from_atoms([])
        corpus = random_mean_zero_corpus(2)
        rep = paley_inequality_probe(mu, corpus)
        assert rep.max_ratio == 0.0

    def test_single_atom_single_block(self):
        k = 2
        f = block_signal(k, 8.0)
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k + 0.25, 1.0)])
        rep = paley_inequality_probe(mu, [f])
        assert rep.max_ratio <= 1.0 + 0.05

    def test_atoms_restricted_to_k_range(self):
        # modulated Gaussians: |f_hat| is about 1.25 at xi = 3 (block 1) and xi = 40 (block 5)
        L, M = 4.0, 2048
        x = -L + (2 * L / M) * np.arange(M)
        f = CompactSignal(np.exp(-x ** 2 / 0.5) * (np.exp(6j * np.pi * x)
                                                    + np.exp(80j * np.pi * x)), L)
        low = PaleyMeasure.from_atoms([(3.0, 1.0)])
        both = PaleyMeasure.from_atoms([(3.0, 1.0), (40.0, 2.0)])
        assert mu_l2_sq(low, f) > 1.0
        assert mu_l2_sq(both, f, (6, 6)) == 0.0
        assert mu_l2_sq(both, f, (0, 1)) == mu_l2_sq(low, f)
        assert mu_l2_sq(both, f, (-10, 5)) == pytest.approx(mu_l2_sq(both, f), rel=1e-15)
        assert mu_l2_sq(both, f) > 2.0 * mu_l2_sq(low, f)

    @pytest.mark.parametrize("k_lo, k_hi", [(-10, 4), (-2, 4)])
    def test_gauss_legendre_error_against_exact_integral(self, k_lo, k_hi):
        # int |f_hat|^2 dmu = h^2 sum_l r(l) mu_hat(l h) exactly, with r the
        # sample autocorrelation and, for the |xi|^-1 density on a <= |xi| < b,
        # mu_hat(t) = 2 [Ci(2 pi b t) - Ci(2 pi a t)], mu_hat(0) = 2 ln(b/a).
        # The quadrature error measured on the first 20 criterion-9 signals
        # is 1.14e-7 relative for both block ranges.  Over all 100 it is up
        # to 2.36e-4 (signal 49, all of it from block 3), and over 1e-7 on 7
        # signals: the bound below holds on this sample only.
        sici = pytest.importorskip("scipy.special").sici
        a, b = 2.0 ** k_lo, 2.0 ** (k_hi + 1)
        mu = PaleyMeasure.inverse_abs(k_lo, k_hi)
        worst = 0.0
        for s in random_mean_zero_corpus(20, seed=513):
            spec = np.fft.fft(s.values, 2 * s.size)
            r = np.fft.ifft(np.abs(spec) ** 2)[:s.size].real
            t = s.h * np.arange(1, s.size)
            mu_hat = 2.0 * (sici(2 * np.pi * b * t)[1] - sici(2 * np.pi * a * t)[1])
            exact = s.h ** 2 * (2.0 * math.log(b / a) * r[0] + 2.0 * np.dot(r[1:], mu_hat))
            worst = max(worst, abs(mu_l2_sq(mu, s) - exact) / exact)
        assert worst <= 2e-7

    def test_corpus_bounded(self):
        mu = PaleyMeasure.inverse_abs(-10, 4)
        corpus = random_mean_zero_corpus(10)
        rep = paley_inequality_probe(mu, corpus)
        assert 0 < rep.max_ratio < 5.0

    def test_non_mean_zero_rejected(self):
        mu = PaleyMeasure.inverse_abs(-2, 2)
        bad = raised_cosine_bump(4.0, 2048)
        with pytest.raises(ValueError, match="mean-zero"):
            paley_inequality_probe(mu, [bad])


class TestBlockTables:
    """Blocks, of a density or of the square function: each gives the same
    number in any range that holds it."""

    def test_a_node_has_the_same_bits_alone_or_in_any_batch(self):
        # passes of _PASS nodes: batches that start inside a pass, cross its
        # end, or hold one node must not change a node's f_hat
        mu = PaleyMeasure.inverse_abs(-10, 4)
        xs = mu._nodes(None)[0].ravel()
        for s in random_mean_zero_corpus(3):
            whole = fourier_transform(s, xs)
            P = realline._PASS
            for lo, hi in ((0, 1), (7, 8), (P // 2, P + P // 2), (P - 1, P + 1),
                           (P - 5, 3 * P + 2), (1000, xs.size)):
                assert np.array_equal(fourier_transform(s, xs[lo:hi]), whole[lo:hi])
            assert np.array_equal(fourier_transform(s, xs[::-1]), whole[::-1])
            for k_range in ((-10, 4), (-2, 4)):
                total = 0.0
                for k in range(k_range[0], k_range[1] + 1):
                    total += mu_l2_sq(mu, s, (k, k))
                assert mu_l2_sq(mu, s, k_range) == total

    def test_a_pass_fits_its_byte_budget(self):
        # _PASS is the largest power of two of nodes whose complex weights
        # and terms, 32 bytes a tap, fit in torus._CHUNK_BYTES; tracemalloc
        # sees all that a pass of fourier_transform allocates, its weights
        # and numpy's casting buffers included
        S, P, budget = realline._SPREAD, realline._PASS, torus._CHUNK_BYTES
        assert P & (P - 1) == 0 and P * 2 * S * 32 <= budget < 2 * P * 2 * S * 32
        rows = np.lib.stride_tricks.sliding_window_view(np.ones(4 * P, complex), 2 * S)
        frac, first = np.linspace(0.0, 0.99, P)[:, None], 3 * np.arange(P)
        out = np.empty(P, dtype=complex)
        assert realline._weights(frac).dtype == np.complex128
        realline._grid_pass(rows, realline._weights(frac), first, out)
        tracemalloc.start()
        try:
            realline._grid_pass(rows, realline._weights(frac), first, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget
        # a density block's plan, which outlives the call, fits it too
        plan = realline._density_block(4.0, 0)
        assert sum(a.nbytes for a in (plan.xs, plan.ws, plan.bins, plan.weights)) < budget

    def test_complex_weights_keep_the_bits_of_the_float_products(self):
        # (a + bi)(w + 0i) differs from (a w) + (b w) i at most in the sign
        # of a zero, so every |f_hat|^2 keeps its bits
        rng = np.random.default_rng(5)
        rows = np.lib.stride_tricks.sliding_window_view(
            rng.standard_normal(600) + 1j * rng.standard_normal(600), 2 * realline._SPREAD)
        frac, first = rng.random(realline._PASS)[:, None], rng.integers(0, 500, realline._PASS)
        weights = realline._weights(frac)
        assert not weights.imag.any()
        terms = rows[first]
        terms.real *= weights.real
        terms.imag *= weights.real
        out = np.empty(realline._PASS, dtype=complex)
        realline._grid_pass(rows, weights, first, out)
        assert np.array_equal(np.abs(out), np.abs(terms.sum(axis=1)))

    def test_the_deconvolution_factor_is_built_once_per_size(self):
        for size in (2048, 4096, 2048):
            factor = realline._deconvolution(size)
            n = np.arange(-(size // 2), size // 2)
            assert np.array_equal(factor, np.exp((np.pi * realline._SPREAD / 3) * (n / size) ** 2))
            assert not factor.flags.writeable
        assert realline._deconvolution(2048) is realline._deconvolution(2048)
        info = realline._deconvolution.cache_info()
        assert info.maxsize == 2 and info.currsize <= 2

    @pytest.mark.parametrize("size, rows", [(2048, 2), (4096, 1)])
    def test_a_square_function_fits_its_byte_budget(self, size, rows):
        # the square function holds acc, 8 bytes a sample, and one stack at
        # a time with its eta table or its |Delta|^2, 24 bytes a point, each
        # dropped before the next stack is made.  At M = 4096 those arrays
        # are 128 KiB, the budget itself, and tracemalloc counts their
        # headers on top
        budget = torus._CHUNK_BYTES
        assert max(1, budget // (32 * size)) == rows
        rng = np.random.default_rng(size)
        s = CompactSignal(rng.standard_normal(size) + 1j * rng.standard_normal(size), 4.0)
        spec, xi = np.fft.fft(s.values), np.fft.fftfreq(size, d=s.h)
        ks = range(-10, default_k_range(s)[1] + 1)

        def square_function():
            return torus._square_function(torus._dyadic_blocks(spec, xi, ks, "backward"), size)

        square_function()
        tracemalloc.start()
        try:
            square_function()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (24 * rows + 8) * size + 2048
        if rows > 1:
            assert peak <= budget

    @pytest.mark.parametrize("size", [2 ** e for e in range(4, 14)])
    def test_stacks_have_the_bits_of_one_block_at_a_time(self, size):
        # every row of a stack equals the block's own inverse FFT, at every
        # stack height; at M = 2048 the nine blocks -4..4 come as four
        # stacks of two and a last stack of one
        rng = np.random.default_rng(size)
        s = CompactSignal(rng.standard_normal(size) + 1j * rng.standard_normal(size), 4.0)
        spec, xi = np.fft.fft(s.values), np.fft.fftfreq(size, d=s.h)
        ks = range(-12, default_k_range(s)[1] + 1)
        rows = max(1, torus._CHUNK_BYTES // (32 * size))
        stacks = list(torus._dyadic_blocks(spec, xi, ks, "backward"))
        meeting = [k for k in window.blocks_meeting(1 / 8, size / 16) if k in ks]
        assert [len(stack) for stack in stacks] == [
            min(rows, len(meeting) - lo) for lo in range(0, len(meeting), rows)]
        got = [row for stack in stacks for row in stack]
        for k, row in zip(meeting, got, strict=True):
            assert np.array_equal(row, np.fft.ifft(window.eta_scaled(xi, k) * spec))
            assert np.array_equal(lp_block(s, k).values, row)

    def test_one_inverse_fft_per_stack(self, monkeypatch):
        # the corpus window meets blocks -4..6, so blocks -10..4 read nine
        # blocks in stacks of two at M = 2048: five inverse FFTs
        s = random_mean_zero_corpus(1)[0]
        want = square_function_norm(s, (-10, 4))
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        assert square_function_norm(s, (-10, 4)) == want
        assert calls == [(2, 2048)] * 4 + [(1, 2048)]

    @pytest.mark.parametrize("half_width", [0.5, 4.0, 64.0])
    def test_a_plan_holds_the_nodes_rows_and_their_weights(self, half_width):
        mu = PaleyMeasure.inverse_abs(-12, 8)
        for k in (-12, -10, -3, 0, 4, 8):
            plan = realline._density_block(half_width, k)
            xs, ws, _ = mu._nodes((k, k))
            assert np.all(plan.xs == xs[0]) and np.all(plan.ws == ws[0])
            u = 4.0 * half_width * xs[0]
            assert np.array_equal(plan.bins, np.floor(u).astype(np.int64))
            assert np.array_equal(plan.weights, realline._weights((u - np.floor(u))[:, None]))

    @staticmethod
    def transform_at_the_nodes(mu, s, k_range):
        """int |f_hat|^2 dmu by one fourier_transform at every node of the
        range, summed by _sum_by_block: the oracle the plans must match."""
        xs, ws, _ = mu._nodes(k_range)
        fhat = fourier_transform(s, xs.ravel()).reshape(xs.shape)
        return realline._sum_by_block(ws * np.abs(fhat) ** 2)

    def test_plans_give_the_bits_of_the_transform_on_the_corpus(self):
        mu = PaleyMeasure.inverse_abs(-10, 4)
        for s in random_mean_zero_corpus(100):
            for k_range in ((-10, 4), (-2, 4), (-10, -10), (0, 0), (4, 4), (3, 2), None):
                want = self.transform_at_the_nodes(mu, s, k_range)
                assert mu_l2_sq(mu, s, k_range) == want

    def test_plans_are_kept_per_window(self):
        # the same blocks on two windows, in turn: a plan keyed on the
        # block alone would read one window's bins on the other
        rng = np.random.default_rng(11)
        for size in (2 ** e for e in range(4, 16)):
            signals = [CompactSignal(rng.standard_normal(size) + 1j * rng.standard_normal(size),
                                     half_width) for half_width in (0.5, 64.0)]
            top = min(default_k_range(s)[1] for s in signals)
            for k_range in ((-10, top), (top - 3, top), (top, top)):
                mu = PaleyMeasure.inverse_abs(*k_range)
                for s in signals:
                    assert mu_l2_sq(mu, s) == self.transform_at_the_nodes(mu, s, None)

    def test_plans_are_read_only_and_bounded(self):
        plan = realline._density_block(4.0, 1)
        for a in (plan.xs, plan.ws, plan.bins, plan.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        for half_width in (0.5, 1.0, 2.0, 8.0):
            for k in range(-5, 5):
                realline._density_block(half_width, k)
        info = realline._density_block.cache_info()
        assert info.maxsize == realline._PLANS and info.currsize <= realline._PLANS

    def test_a_density_past_the_band_names_its_first_block(self):
        # block 5's nodes lie below 64, the corpus window's band; block 6's
        # do not.  No plan or bin is made for a block past the band, so no
        # cast warns, even at the top of the float range
        s = random_mean_zero_corpus(1)[0]
        assert s.band == 64.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k_hi in (6, 9, 1022):
                with pytest.raises(ValueError, match=r"^block 6 lies outside the validity "
                                                     r"band \|xi\| <= 64.0$"):
                    mu_l2_sq(PaleyMeasure.inverse_abs(-2, k_hi), s)
        assert mu_l2_sq(PaleyMeasure.inverse_abs(-2, 5), s) > 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the budget is glibc's default trim threshold")
    def test_steady_calls_take_no_page_faults(self):
        # a fresh interpreter, whose allocator thresholds no other test has
        # moved, runs whole items of the benchmark: both probes, and so both
        # density integrals and the square function.  With 512-node passes
        # each mu_l2_sq took 150 to 200 minor faults, and with stacks of four
        # blocks each item took over 100
        probe = (
            "import resource\n"
            "from paleyzyg import (PaleyMeasure, paley_inequality_probe,\n"
            "                      random_mean_zero_corpus, zygmund_realline_probe)\n"
            "paley, zygmund = PaleyMeasure.inverse_abs(-10, 4), PaleyMeasure.inverse_abs(-2, 4)\n"
            "s = random_mean_zero_corpus(1)[0]\n"
            "def item():\n"
            "    paley_inequality_probe(paley, [s])\n"
            "    zygmund_realline_probe(zygmund, s)\n"
            "for _ in range(5):\n"
            "    item()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    item()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(realline.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        assert int(run.stdout) <= 8

    @pytest.mark.parametrize("k_range", [None, (-2, 4)])
    def test_mu_l2_sq_matches_the_dense_sum_at_its_nodes(self, k_range):
        mu = PaleyMeasure.inverse_abs(-10, 4)
        for s in random_mean_zero_corpus(3):
            want = dense_mu_l2_sq(mu, s, k_range)
            assert abs(mu_l2_sq(mu, s, k_range) - want) <= 1e-13 * want

    # Where |f_hat| is small a block holds no relative bound, but f_hat is
    # within 1e-13 ||f||_1 of the dense sum (test_nufft_matches_dense_sum) and
    # |f_hat| <= ||f||_1, so |f_hat|^2 is within 3e-13 ||f||_1^2 at each node.
    @pytest.mark.parametrize("k_range", [(-10, -10), (-3, -3), (0, 0), (4, 4)])
    def test_single_blocks_are_within_the_transform_bound(self, k_range):
        mu = PaleyMeasure.inverse_abs(-10, 4)
        mass = mu.block_mass(k_range[0])
        for s in random_mean_zero_corpus(3):
            want = dense_mu_l2_sq(mu, s, k_range)
            assert abs(mu_l2_sq(mu, s, k_range) - want) <= 3e-13 * mass * s.l1() ** 2

    @pytest.mark.parametrize("k_range", [(-10, 4), (-2, 4), (-6, -4), (-12, -5)])
    def test_square_function_is_the_sum_of_its_blocks(self, k_range):
        # blocks -12..-5 hold no dual-grid point m/8 of the L = 4 corpus, and
        # block -4 holds only m = +-1
        for s in random_mean_zero_corpus(3):
            xi, dft = np.fft.fftfreq(s.size, d=s.h), np.fft.fft(s.values)
            acc = np.zeros(s.size)
            for k in range(k_range[0], k_range[1] + 1):
                block = lp_block(s, k).values
                assert np.array_equal(block, np.fft.ifft(window.eta_scaled(xi, k) * dft))
                acc += np.abs(block) ** 2
            assert square_function_norm(s, k_range) == float(s.h * np.sum(np.sqrt(acc)))


class TestMeanZero:
    def test_already_zero_unchanged(self):
        f = random_mean_zero_corpus(1)[0]
        g = mean_zero_reduction(f)
        assert np.abs(g.values - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_psi_goes_to_zero(self):
        psi = raised_cosine_bump(4.0, 1024)
        g = mean_zero_reduction(psi, psi)
        assert np.abs(g.values).max() <= 1e-12

    def test_random_signal_mean_removed(self):
        rng = np.random.default_rng(8)
        s = CompactSignal((rng.standard_normal(512) + 1j * rng.standard_normal(512)), 4.0)
        g = mean_zero_reduction(s)
        assert abs(g.integral()) <= 1e-10

    def test_bad_psi_rejected(self):
        psi = raised_cosine_bump(4.0, 1024)
        crooked = CompactSignal(psi.values * 1.001, psi.half_width)
        f = random_mean_zero_corpus(1)[0]
        with pytest.raises(ValueError, match="deviates"):
            mean_zero_reduction(
                CompactSignal(f.values[:1024], 4.0) if f.size != 1024 else f, crooked)


class TestRudin:
    @staticmethod
    def j4_measure(J=6):
        ks = []
        k = 0
        for j in range(1, J + 1):
            ks.append(k)
            k = 5 * k + 1 if k > 0 else k + 1
        return PaleyMeasure.from_atoms(
            [(1.5 * 2.0 ** k, float(j ** 4)) for j, k in enumerate(ks, start=1)]), ks

    def test_witness_uniformly_bounded_below(self):
        mu, ks = self.j4_measure()
        rep = rudin_counterexample(mu, 6)
        assert rep.block_indices == tuple(ks)
        for w, f in zip(rep.witnesses, rep.floors):
            assert w >= 0.5 * f

    def test_paley_measure_refused(self):
        mu = PaleyMeasure.inverse_abs(0, 30)
        with pytest.raises(ValueError, match="Paley"):
            rudin_counterexample(mu, 2, k_search_max=30)

    def test_single_bump(self):
        mu = PaleyMeasure.from_atoms([(3.0, 2.0)])
        rep = rudin_counterexample(mu, 1)
        assert len(rep.witnesses) == 1
        assert math.isfinite(rep.witnesses[0]) and rep.witnesses[0] > 0
        assert len(rep.partial_signals) == 1

    def test_partial_signals_limited_by_band(self):
        mu, _ = self.j4_measure()
        rep = rudin_counterexample(mu, 6)
        assert 0 < len(rep.partial_signals) < 6

    def test_a_block_4_partial_sum_is_the_scaled_kernel(self, psi_by_quadrature):
        # one atom in block 4, the top block of the corpus window: the partial
        # sum is 2^4 psi(2^4 x), with |2^4 x| <= 64
        rep = rudin_counterexample(PaleyMeasure.from_atoms([(24.0, 1.0)]), 1)
        assert rep.block_indices == (4,) and len(rep.partial_signals) == 1
        s = rep.partial_signals[0]
        want = 16.0 * psi_by_quadrature(16.0 * s.x())
        assert np.abs(s.values - want).max() <= 1e-12

    @pytest.mark.parametrize("k", range(21))
    def test_partials_stop_where_three_times_two_to_k_leaves_the_band(self, k):
        # the cut 3 * 2^k <= band keeps the same blocks as default_k_range's
        # top, 4 * 2^k <= band: no integer k has 3 * 2^k <= 64 < 4 * 2^k
        band = random_mean_zero_corpus(1)[0].band
        rep = rudin_counterexample(PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, 1.0)]), 1)
        assert rep.block_indices == (k,)
        assert len(rep.partial_signals) == (1 if 3.0 * 2.0 ** k <= band else 0)


class TestLineZygmund:
    def test_empty_block_range_rejected_by_both_probes(self):
        s = random_mean_zero_corpus(1)[0]
        mu = PaleyMeasure.from_atoms([(3.0, 1.0)], gap=1.0)
        with pytest.raises(ValueError, match="empty block range 5..3"):
            paley_inequality_probe(mu, [s], (5, 3))
        with pytest.raises(ValueError, match="empty block range 5..3"):
            zygmund_realline_probe(mu, s, (5, 3))
        with pytest.raises(ValueError, match="empty block range 5..3"):
            square_function_norm(s, (5, 3))
        assert mu.block_masses(5, 3) == [] and paley_inequality_probe(mu, [s], (3, 3)).rows

    def test_missing_gap_rejected_with_pointer(self):
        mu = PaleyMeasure.from_atoms([(4.0, 1.0)])  # gap undeclared
        f = random_mean_zero_corpus(1)[0]
        with pytest.raises(ValueError, match="low_block_divergence"):
            zygmund_realline_probe(mu, f)

    def test_zero_signal(self):
        mu = PaleyMeasure.inverse_abs(-2, 3)
        z = CompactSignal(np.zeros(2048, dtype=complex), 4.0)
        rep = zygmund_realline_probe(mu, z)
        assert rep.ratio == 0.0

    def test_single_block_single_atom_bound(self):
        k = 2
        f = block_signal(k, 8.0)
        w = 2.5
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, w)], gap=1.0)
        rep = zygmund_realline_probe(mu, f)
        assert rep.lhs <= math.sqrt(w) * f.l1() + 1e-9

    def test_translation_invariance(self):
        f = random_mean_zero_corpus(1)[0]
        shift = f.size // 8
        g = CompactSignal(np.roll(f.values, shift), f.half_width)
        mu = PaleyMeasure.inverse_abs(-2, 3)
        a = zygmund_realline_probe(mu, f)
        b = zygmund_realline_probe(mu, g)
        # |f_hat| and the integrand are translation invariant up to wrap-around
        assert a.rhs == pytest.approx(b.rhs, rel=1e-8)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-3)

    def test_low_block_divergence_floor(self):
        bump = raised_cosine_bump(4.0, 2048, support=2.0)
        f0 = abs(fourier_transform(bump, np.array([0.0]))[0])
        floor = 0.4 * f0 ** 2 * math.log(2)
        for _, inc in low_block_divergence(bump, range(-20, -10)):
            assert inc >= floor


class TestProduct:
    def test_atom_per_block_product(self):
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, 1.0) for k in range(6)])
        rep = product_paley_sup_2d(mu, mu, (0, 5))
        assert rep.sup == 1.0
        assert rep.verdict == "bounded-in-range"

    def test_product_identity(self):
        # (mu x nu)(I_j x I_k) = mu(I_j) nu(I_k): the sup over every block
        # rectangle is the product of the 1D sups, bit for bit
        atoms = PaleyMeasure.from_atoms([(1.5, 2.0), (3.0, 0.5), (50.0, 1.0)])
        thirds = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, 0.1 * (k % 3) + 1 / 3)
                                          for k in range(-4, 12)])
        measures = (atoms, thirds, PaleyMeasure.inverse_abs(-2, 6),
                    PaleyMeasure.inverse_abs(-20, 3), PaleyMeasure.from_atoms([]))
        for mu in measures:
            for nu in measures:
                for k_range in ((-2, 6), (-30, 12), (4, 4), (5, 3)):
                    rep = product_paley_sup_2d(mu, nu, k_range)
                    grid = np.multiply.outer(mu.block_masses(*k_range), nu.block_masses(*k_range))
                    assert rep.sup == (grid.max() if grid.size else 0.0)
                    assert rep.factor_sups == (paley_sup(mu, k_range).sup,
                                               paley_sup(nu, k_range).sup)

    def test_unbounded_factor_flagged(self):
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, float(k + 1)) for k in range(12)])
        nu = PaleyMeasure.inverse_abs(0, 11)
        rep = product_paley_sup_2d(mu, nu, (0, 11))
        assert rep.verdict == "diverging"
