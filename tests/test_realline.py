"""Compact signals, dyadic blocks, Paley measures, and the line harnesses."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from paleyzyg import _kernels, realline, window
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
    xs, ws = mu._nodes(k_range)
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
        # 10,000 frequencies at M = 2^15 take 20 passes of 512 nodes and peak
        # at 3.4 MB; one pass over all of them would peak at 11 MB.
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
        assert peak < 6 * 2 ** 20
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

    @pytest.mark.parametrize("density", [lambda xi: 1.0 / xi, lambda xi: np.exp(-xi) + xi ** 2,
                                         lambda xi: np.sqrt(xi), lambda xi: np.cos(xi) ** 2])
    def test_density_block_masses_keep_the_bits_of_each_block_alone(self, density):
        mu = PaleyMeasure.from_density(density, -6, 8)
        for k_lo, k_hi in ((-40, 12), (5, 2), (0, 1000), (-6, 8), (3, 3), (-9, -7)):
            want = [realline._sum_by_block(mu._nodes((k, k))[1]) for k in range(k_lo, k_hi + 1)]
            assert repr(mu.block_masses(k_lo, k_hi)) == repr(want)

    def test_density_blocks_outside_the_normal_range_rejected(self):
        assert PaleyMeasure.inverse_abs(-1022, 1022).block_mass(-1022) > 0
        for k_min, k_max in ((-1023, 0), (-1100, 2), (0, 1023)):
            with pytest.raises(ValueError, match="density blocks must lie in -1022..1022"):
                PaleyMeasure.inverse_abs(k_min, k_max)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PaleyMeasure.from_atoms([(1.0, -2.0)])

    def test_atom_inside_gap_rejected(self):
        with pytest.raises(ValueError):
            PaleyMeasure.from_atoms([(0.1, 1.0)], gap=0.5)

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
        # is 1.14e-7 relative for both block ranges.
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
        # _PASS is the largest power of two of nodes whose weights and terms,
        # 24 bytes a tap, fit in _PASS_BYTES; tracemalloc sees all that a
        # pass allocates, numpy's casting buffers included
        S, P, budget = realline._SPREAD, realline._PASS, realline._PASS_BYTES
        assert P & (P - 1) == 0 and P * 2 * S * 24 <= budget < 2 * P * 2 * S * 24
        rows = np.lib.stride_tricks.sliding_window_view(np.ones(4 * P, complex), 2 * S)
        frac, first = np.linspace(0.0, 0.99, P)[:, None], 3 * np.arange(P)
        out = np.empty(P, dtype=complex)
        realline._grid_pass(rows, frac, first, out)
        tracemalloc.start()
        try:
            realline._grid_pass(rows, frac, first, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the budget is glibc's default trim threshold")
    def test_steady_calls_take_no_page_faults(self):
        # a fresh interpreter, whose allocator thresholds no other test has
        # moved; with 512-node passes each call took 150 to 200 minor faults
        probe = (
            "import resource\n"
            "from paleyzyg import PaleyMeasure, mu_l2_sq, random_mean_zero_corpus\n"
            "mu = PaleyMeasure.inverse_abs(-10, 4)\n"
            "s = random_mean_zero_corpus(1)[0]\n"
            "for _ in range(5):\n"
            "    mu_l2_sq(mu, s)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    mu_l2_sq(mu, s)\n"
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

    def test_user_density(self):
        mu = PaleyMeasure.from_density(lambda xi: np.exp(-xi) + xi ** 2, -4, 3, name="user")
        for s in random_mean_zero_corpus(3, seed=2):
            for k_range in (None, (-6, 1), (-1, -1)):
                want = dense_mu_l2_sq(mu, s, k_range)
                mass = float(np.sum(mu._nodes(k_range)[1]))
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
        rep = rudin_counterexample(mu, 6, signal=(4.0, 2048))
        assert 0 < len(rep.partial_signals) < 6


class TestLineZygmund:
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
        mu = PaleyMeasure.from_atoms([(1.5, 2.0), (3.0, 0.5), (50.0, 1.0)])
        nu = PaleyMeasure.inverse_abs(-2, 6)
        rep = product_paley_sup_2d(mu, nu, (-2, 6))
        assert rep.product_identity_gap <= 1e-12
        assert rep.sup == pytest.approx(rep.factor_sups[0] * rep.factor_sups[1], rel=1e-12)

    def test_unbounded_factor_flagged(self):
        mu = PaleyMeasure.from_atoms([(1.5 * 2.0 ** k, float(k + 1)) for k in range(12)])
        nu = PaleyMeasure.inverse_abs(0, 11)
        rep = product_paley_sup_2d(mu, nu, (0, 11))
        assert rep.verdict == "diverging"
