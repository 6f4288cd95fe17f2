"""Acceptance suite: one test per criterion, one printed verdict line per check.

Run with `pytest tests/test_acceptance.py -s` (or `paleyzyg selftest`) to see
the PASS/FAIL lines.  Every tolerance is pinned here; regression snapshots
are frozen values recomputed bit-identically from fixed seeds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import paleyzyg as pz
from paleyzyg import window


def check(criterion, label, ok):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {criterion}: {label}"


def test_criterion_1_transform_exactness():
    """Round trip and Parseval to 1e-10 relative, 100 seeded polys per dim."""
    worst_rt, worst_par = 0.0, 0.0
    for t in range(100):
        rng = np.random.default_rng([1001, t])
        coeffs = {int(n): complex(*rng.standard_normal(2))
                  for n in rng.integers(-512, 513, size=60)}
        p = pz.TrigPoly(1, coeffs)
        s = pz.synthesize(p, 2048)
        q = pz.analyze(s)
        scale = max(abs(c) for c in p.coeffs.values())
        worst_rt = max(worst_rt, max(abs(p.coeffs.get(n, 0j) - q.coeffs.get(n, 0j))
                                     for n in set(p.coeffs) | set(q.coeffs)) / scale)
        par = abs(pz.lp_norm(s, 2) ** 2 - sum(abs(c) ** 2 for c in p.coeffs.values()))
        worst_par = max(worst_par, par / sum(abs(c) ** 2 for c in p.coeffs.values()))
    for t in range(100):
        rng = np.random.default_rng([1002, t])
        coeffs = {(int(a), int(b)): complex(*rng.standard_normal(2))
                  for a, b in zip(rng.integers(-64, 65, size=25),
                                  rng.integers(-64, 65, size=25))}
        p = pz.TrigPoly(2, coeffs)
        s = pz.synthesize(p, (256, 256))
        q = pz.analyze(s)
        scale = max(abs(c) for c in p.coeffs.values())
        worst_rt = max(worst_rt, max(abs(p.coeffs.get(n, 0j) - q.coeffs.get(n, 0j))
                                     for n in set(p.coeffs) | set(q.coeffs)) / scale)
        par = abs(pz.lp_norm(s, 2) ** 2 - sum(abs(c) ** 2 for c in p.coeffs.values()))
        worst_par = max(worst_par, par / sum(abs(c) ** 2 for c in p.coeffs.values()))
    check(1, f"round trip worst rel err {worst_rt:.2e} <= 1e-10", worst_rt <= 1e-10)
    check(1, f"Parseval worst rel err {worst_par:.2e} <= 1e-10", worst_par <= 1e-10)


def test_criterion_2_kernel_facts():
    for n, grid in ((4, 64), (64, 512), (1023, 8192)):
        l1 = pz.lp_norm(pz.synthesize(pz.fejer(n), grid), 1)
        check(2, f"||K_{n}||_1 = {l1:.10f} within 1e-8 of 1", abs(l1 - 1.0) <= 1e-8)
        exact = sum(1 - Fraction(abs(j), n + 1) for j in range(-n, n + 1))
        check(2, f"K_{n}(0) = n+1 exactly (rational identity)", exact == n + 1)
    flat_ok = True
    for N in range(1, 11):
        V = pz.vallee_poussin(N)
        flat_ok &= all(V.coefficient(n) == 1.0 and V.coefficient(-n) == 1.0
                       for n in range(0, 2 ** N + 1))
    check(2, "flat kernel coefficient exactly 1 on |n| <= 2^N for N <= 10", flat_ok)


@pytest.fixture(scope="module")
def sharpness_table():
    return pz.sharpness_experiment(range(4, 15), (0.25, 0.5))


def test_criterion_3_sharpness(sharpness_table):
    t = sharpness_table
    r_half = t.ratios[0.5]
    spread = max(r_half) / min(r_half)
    check(3, f"r=1/2 ratio max/min = {spread:.4f} <= 2", spread <= 2.0)
    growth = t.ratios[0.25][-1] / t.ratios[0.25][0]
    check(3, f"r=1/4 ratio grows x{growth:.4f} >= 1.3 from N=4 to N=14", growth >= 1.3)


@pytest.mark.xfail(
    strict=True,
    reason="the fitted slope of log L_N vs log N over N in 4..14 is 0.43, not "
           "0.50 +- 0.05: L_N^2 = 2(N ln 2 + c) with c ~ 0.85 exactly caps the "
           "least-squares slope below 0.46 on this range, for any grid; the "
           "asymptotic slope 1/2 is only approached as N -> infinity")
def test_criterion_3_lhs_slope(sharpness_table):
    slope = sharpness_table.lhs_slope
    check(3, f"slope of log L_N vs log N = {slope:.4f} within 0.50 +- 0.05",
          0.45 <= slope <= 0.55)


def test_criterion_4_block_machinery():
    m = pz.MultiplierSeq.inverse_sqrt(2 ** 19)
    corpus = pz.block_filling_corpus(200, k_lo=1, k_hi=18, seed=20240)
    ratios = []
    energy_ok, split_ok = True, True
    for p in corpus:
        sel = pz.dyadic_max_select(p)
        lam1, lam2 = pz.even_odd_split(sel)  # raises outside [2, 16]
        for seq in (lam1, lam2):
            for a, b in zip(seq.terms, seq.terms[1:]):
                split_ok &= 2.0 <= b / a <= 16.0
        split_sq = sorted(abs(p.coeffs[n]) * abs(p.coeffs[n])
                          for seq in (lam1, lam2) if seq for n in seq.terms)
        energy_ok &= split_sq == sorted(mm * mm for mm in sel.maxima)
        ratios.append(pz.zygmund_ratio(p, m, check_multiplier=False).ratio)
    check(4, "even/odd split ratios inside [2, 16] for all 200 polynomials", split_ok)
    check(4, "selection energy equals split energy exactly (200 polynomials)", energy_ok)
    snapshot = 0.251636436802219
    got = max(ratios)
    check(4, f"corpus max ratio {got:.15f} matches frozen snapshot",
          abs(got - snapshot) <= 1e-12)
    rerun = [pz.zygmund_ratio(p, m, check_multiplier=False).ratio
             for p in pz.block_filling_corpus(20, k_lo=1, k_hi=18, seed=20240)]
    check(4, "re-run with the same seed is bit-identical (20-poly subset)",
          rerun == ratios[:20])


def test_criterion_5_block_sum_criterion():
    m_ind = pz.MultiplierSeq.indicator(
        pz.FrequencySet(1, frozenset([2 ** 5])), horizon=2 ** 10)
    rep = pz.paley_block_sums(m_ind, 9)
    check(5, f"single-point indicator sup = {rep.sup} equals 1", rep.sup == 1.0)
    rep1 = pz.paley_block_sums(pz.MultiplierSeq.constant(1.0, 2 ** 13), 12)
    quarter = rep1.block_sums[12 - max(2, 12 // 4)]
    check(5, "constant weight flagged diverging", rep1.verdict == "diverging")
    check(5, f"last-quarter growth {rep1.block_sums[-1] / quarter:.1f}x >= 4x",
          rep1.block_sums[-1] >= 4 * quarter)
    m = pz.MultiplierSeq.inverse_sqrt(2 ** 8, positive_only=True)
    repc = pz.paley_block_sums(m, 6)
    worst = max(abs(repc.block(k) - sum(1.0 / n for n in range(2 ** k, 2 ** (k + 1) + 1)))
                for k in range(7))
    check(5, f"one-sided inverse-sqrt blocks match partial harmonic sums "
             f"(worst {worst:.2e} <= 1e-12)", worst <= 1e-12)
    check(5, f"block N=4 = {repc.block(2):.9f} (0.884523810 one-sided)",
          abs(repc.block(2) - 0.8845238095238095) <= 1e-12)


P_GRID = (4, 8, 16, 32, 64)


def test_criterion_6_growth_exponents():
    lam8 = pz.geometric_lacunary(2, 8)
    fs8 = pz.FrequencySet(1, frozenset(lam8.terms))
    lam6 = pz.geometric_lacunary(2, 6)
    fs6 = pz.FrequencySet(1, frozenset(lam6.terms))
    base_ok = sum_ok = tensor_ok = diff_ok = True
    for seed in range(5):
        a_base = pz.growth_exponent(
            pz.PlainSpectrum(fs8), P_GRID,
            pz.Ensemble("random-signs", seed=101 + seed, trials=32)).alpha
        a_sum = pz.growth_exponent(
            pz.SumsetSpectrum(lam8, 2), P_GRID,
            [pz.Ensemble("random-signs", seed=202 + seed, trials=32),
             pz.Ensemble("phase-ascent")]).alpha
        a_2d = pz.tensor_growth(
            [fs6, fs6], P_GRID,
            [pz.Ensemble("random-signs", seed=303 + seed, trials=16),
             pz.Ensemble("phase-ascent")]).alpha
        base_ok &= 0.38 <= a_base <= 0.62
        sum_ok &= 0.8 <= a_sum <= 1.2
        tensor_ok &= 0.8 <= a_2d <= 1.2
        diff_ok &= (a_sum - a_base) >= 0.3
        print(f"[criterion 6] seed {seed}: base={a_base:.3f} sumset2={a_sum:.3f} "
              f"2d={a_2d:.3f} diff={a_sum - a_base:.3f}")
    check(6, "lacunary base exponent within 0.5 +- 0.12 on every seed", base_ok)
    check(6, "2-fold sumset exponent within 1.0 +- 0.2 on every seed", sum_ok)
    check(6, "2D lacunary product exponent within 1.0 +- 0.2 on every seed", tensor_ok)
    check(6, "sumset-vs-base separation >= 0.3 on every seed", diff_ok)


def test_criterion_7_gram_matrix_algebra():
    trace_ok = herm_ok = split_ok = cs_ok = True
    for t in range(100):
        rng = np.random.default_rng([7007, t])
        coeffs = {(int(a), int(b)): complex(*rng.standard_normal(2))
                  for a, b in zip(rng.integers(-8, 9, size=20),
                                  rng.integers(-8, 9, size=20))}
        f = pz.TrigPoly(2, coeffs)
        E = pz.e_matrix(f)
        total = sum(abs(c) ** 2 for c in f.coeffs.values())
        trace_ok &= abs(E.trace - total) <= 1e-12 * total
        herm_ok &= np.abs(E.matrix - E.matrix.conj().T).max() <= 1e-14 * max(total, 1)
        d, u, low = pz.offdiagonal_split(E)
        split_ok &= np.abs(d + u + low - E.matrix).max() == 0.0
        rep = pz.cauchy_schwarz_check(E, f)  # raises beyond 1 + 1e-10
        cs_ok &= rep.frobenius_sq <= rep.bound_sq * (1 + 1e-10)
    check(7, "trace identity to 1e-12 (100 seeded 2D polynomials)", trace_ok)
    check(7, "Hermitian symmetry", herm_ok)
    check(7, "diagonal/off-diagonal split recombines exactly", split_ok)
    check(7, "Frobenius bound never exceeded", cs_ok)
    eq_ok = True
    for t in range(20):
        rng = np.random.default_rng([7008, t])
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = pz.TrigPoly(2, {(i, j): a[i] * b[j] for i in range(4) for j in range(5)})
        eq_ok &= pz.cauchy_schwarz_check(pz.e_matrix(f), f).equality_gap <= 1e-10
    check(7, "rank-one tables attain equality to 1e-10", eq_ok)


def test_criterion_8_ingham_example():
    tails = [pz.ingham_tail_sup(0.5, 0.8, 2 ** k) for k in range(10, 18)]
    strict = all(b < a for a, b in zip(tails, tails[1:]))
    print("[criterion 8] tails:", " ".join(f"{v:.5f}" for v in tails))
    check(8, "tail sup-norms strictly decrease over M = 2^10 .. 2^17", strict)
    rep = pz.sidon_weight_divergence(0.8, 10 ** 6)
    check(8, f"weight sum {rep.partial_sum:.6f} exceeds 3.5", rep.partial_sum > 3.5)
    rel = abs(rep.partial_sum - rep.corrected_estimate) / rep.corrected_estimate
    check(8, f"sum within 5% of the endpoint-corrected integral estimate "
             f"({100 * rel:.2f}%)", rel <= 0.05)
    check(8, f"closed-form integral = {rep.integral_estimate:.6f} (frozen 3.807035)",
          abs(rep.integral_estimate - 3.8070350960896575) <= 1e-12)


def test_criterion_9_real_line():
    mu = pz.PaleyMeasure.inverse_abs(-10, 4)
    masses = [mu.block_mass(k) for k in range(-10, 5)]
    worst = max(abs(m - 2 * math.log(2)) for m in masses)
    check(9, f"inverse-|xi| block mass 2 ln 2 within {worst:.2e} <= 1e-10", worst <= 1e-10)
    rep_sup = pz.paley_sup(mu, (-10, 4))
    check(9, "inverse-|xi| dyadic sup bounded",
          rep_sup.verdict == "bounded-in-range" and rep_sup.sup <= 2 * math.log(2) + 1e-10)

    corpus = pz.random_mean_zero_corpus(100, seed=513)
    probe = pz.paley_inequality_probe(mu, corpus)
    snapshot = 0.657427307249948
    check(9, f"probe max ratio {probe.max_ratio:.15f} matches frozen snapshot",
          abs(probe.max_ratio - snapshot) <= 1e-12)

    ks, k = [], 0
    for j in range(1, 7):
        ks.append(k)
        k = 5 * k + 1 if k > 0 else k + 1
    muR = pz.PaleyMeasure.from_atoms(
        [(1.5 * 2.0 ** kk, float(j ** 4)) for j, kk in enumerate(ks, start=1)])
    rud = pz.rudin_counterexample(muR, 6)
    wmin = min(rud.witnesses)
    check(9, f"witness terms >= 0.5 across j = 1..6 (min {wmin:.3f})", wmin >= 0.5)

    bump = pz.raised_cosine_bump(4.0, 2048, support=2.0)
    f0 = abs(pz.fourier_transform(bump, np.array([0.0]))[0])
    floor = 0.4 * f0 ** 2 * math.log(2)
    incs = [inc for _, inc in pz.low_block_divergence(bump, range(-20, -10))]
    check(9, f"each added low block contributes >= 0.4 |f_hat(0)|^2 ln 2 "
             f"(min {min(incs):.4f} vs floor {floor:.4f})", min(incs) >= floor)


def test_criterion_10_window_partition():
    xi = np.logspace(np.log10(2.0 ** -8), np.log10(2.0 ** 18), 10_000)
    s = window.partition_sum(xi, -10, 20)
    ok = (s.min() >= 1.0 - 1e-12) and (s.max() <= 2.0 + 1e-12)
    check(10, f"1 <= sum_k eta(2^-k xi) <= 2 on a 10^4-point log grid "
              f"(range [{s.min():.6f}, {s.max():.6f}])", ok)
