"""Kernel constructions, the sharpness sweep, and the Ingham example."""

import json
import math

import numpy as np
import pytest

from paleyzyg import (fejer, ingham_partial_sum, ingham_tail_sup, ingham_weight_trend,
                      lp_norm, sharpness_experiment, sidon_weight_divergence,
                      synthesize, vallee_poussin)
from paleyzyg.cli import main
from paleyzyg.extremals import SharpnessTable


class TestFejer:
    def test_order_one_coefficients(self):
        K1 = fejer(1)
        assert K1.coeffs[-1] == pytest.approx(0.5)
        assert K1.coeffs[0] == pytest.approx(1.0)
        assert K1.coeffs[1] == pytest.approx(0.5)

    def test_value_at_zero_is_order_plus_one(self):
        # telescoping identity, exact over the rationals
        from fractions import Fraction
        for n in (4, 64, 1023):
            exact = sum(1 - Fraction(abs(j), n + 1) for j in range(-n, n + 1))
            assert exact == n + 1
            total = math.fsum(c.real for c in fejer(n).coeffs.values())
            assert total == pytest.approx(n + 1, abs=1e-9)

    def test_l1_norm_one(self):
        assert lp_norm(synthesize(fejer(4), 64), 1) == pytest.approx(1.0, abs=1e-8)

    def test_positivity(self):
        for n in (3, 10, 33):
            vals = synthesize(fejer(n), 256).values
            assert vals.real.min() >= -1e-10
            assert np.abs(vals.imag).max() <= 1e-10


class TestValleePoussin:
    def test_closed_form_is_the_fejer_combination_exactly(self):
        for N in range(1, 17):
            big, small = fejer(2 ** (N + 1) - 1), fejer(2 ** N - 1)
            combo = 2.0 * big.values
            combo[2 ** N:-2 ** N] -= small.values
            V = vallee_poussin(N)
            assert np.array_equal(V.freqs, big.freqs) and V.values.dtype == np.complex128
            assert np.array_equal(V.values, combo)

    def test_flat_coefficient_example(self):
        V = vallee_poussin(3)
        # 2*(1 - 5/16) - (1 - 5/8) = 1
        assert V.coefficient(5) == 1.0
        assert V.coefficient(0) == 1.0

    def test_flatness_exact(self):
        for N in (1, 4, 7, 10):
            V = vallee_poussin(N)
            for n in (0, 1, 2 ** (N - 1), 2 ** N - 1, 2 ** N):
                assert V.coefficient(n) == 1.0
                assert V.coefficient(-n) == 1.0

    def test_boundary_value(self):
        for N in (3, 6, 9):
            V = vallee_poussin(N)
            assert V.coefficient(2 ** N + 1) == pytest.approx(1.0 - 2.0 ** (-N), abs=1e-15)

    def test_degree_and_top_coefficient(self):
        # top frequency 2^{N+1} - 1 carries 2 * 2^{-(N+1)} = 2^{-N}
        for N in (2, 5):
            V = vallee_poussin(N)
            assert V.degree == 2 ** (N + 1) - 1
            assert V.coefficient(V.degree) == pytest.approx(2.0 ** (-N))

    def test_l1_bounded_by_three(self):
        for N in (2, 5, 8, 12):
            V = vallee_poussin(N)
            M = 2 ** (N + 4)
            assert lp_norm(synthesize(V, M), 1) <= 3.0 + 1e-9


@pytest.fixture(scope="module")
def table():
    return sharpness_experiment(range(4, 10), (0.25, 0.5))


class TestSharpness:

    def test_lhs_increasing(self, table):
        assert all(b > a for a, b in zip(table.lhs, table.lhs[1:]))

    def test_grid_adequacy(self, table):
        for N, M in zip(table.n_values, table.grids):
            assert M >= 8 * 2 ** (N + 1)

    def test_half_ratio_flat_quarter_ratio_grows(self, table):
        r_half = table.ratios[0.5]
        r_quarter = table.ratios[0.25]
        assert max(r_half) / min(r_half) <= 2.0
        assert r_quarter[-1] > r_quarter[0]

    def test_quarter_dominates_half(self, table):
        # Phi_{1/4} <= Phi_{1/2} on the large-value region, so the quarter
        # ratio sits above; recorded as a regression property of this sweep
        for a, b in zip(table.ratios[0.25], table.ratios[0.5]):
            assert a >= b

    def test_serialisation(self, table, capsys):
        assert main(["sharpness", "--n-min", "4", "--n-max", "6", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,L_N,phi_0.25,ratio_0.25,phi_0.5,ratio_0.5,grid"
        assert len(lines) == 3 + 1
        assert main(["sharpness", "--n-min", "4", "--n-max", "9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row[0] for row in data["rows"]] == list(table.n_values)
        assert [row[1] for row in data["rows"]] == list(table.lhs)


class TestIngham:
    def test_parameter_window(self):
        with pytest.raises(ValueError):
            ingham_partial_sum(1.2, 0.9, 100)
        with pytest.raises(ValueError):
            ingham_partial_sum(0.5, 0.7, 100)   # c <= (gamma+1)/2
        with pytest.raises(ValueError):
            ingham_partial_sum(0.5, 1.1, 100)

    def test_tail_sup_parameter_window(self):
        with pytest.raises(ValueError, match="gamma"):
            ingham_tail_sup(1.5, 0.8, 1024)
        with pytest.raises(ValueError, match="c must"):
            ingham_tail_sup(0.5, 0.7, 1024)
        with pytest.raises(ValueError):
            ingham_tail_sup(0.5, 0.8, 0)

    def test_coefficient_magnitudes(self):
        p = ingham_partial_sum(0.5, 0.8, 50)
        for n in range(2, 51):
            mag = 1.0 / (math.sqrt(n) * math.log(n) ** 0.8)
            assert abs(p.coeffs[n]) == pytest.approx(mag, rel=1e-12)

    def test_vanishes_below_two(self):
        p = ingham_partial_sum(0.5, 0.8, 50)
        assert 0 not in p.coeffs and 1 not in p.coeffs
        assert min(p.coeffs) == 2

    def test_tail_sups_decrease(self):
        tails = [ingham_tail_sup(0.5, 0.8, 2 ** k) for k in (8, 10, 12)]
        assert tails[0] > tails[1] > tails[2]

    def test_divergence_report(self):
        rep = sidon_weight_divergence(0.8, 10 ** 4)
        expected_integral = (math.log(10 ** 4) ** 0.2 - math.log(2) ** 0.2) / 0.2
        assert rep.integral_estimate == pytest.approx(expected_integral, rel=1e-12)
        n = np.arange(2, 10 ** 4 + 1, dtype=float)
        assert rep.partial_sum == pytest.approx(
            float(np.sum(1 / (n * np.log(n) ** 0.8))), rel=1e-12)
        assert rep.corrected_estimate > rep.integral_estimate

    @pytest.mark.parametrize("c", [0.5, 0.8, 1.0])
    def test_chunked_partial_sum_matches_the_whole_range_formula(self, c):
        # summed in chunks of one buffer, with the bits of one expression
        # over n = 2..M, for runs of one chunk, across an edge and of many
        for M in (2, 2049, 2050, 10 ** 5 + 3):
            n = np.arange(2, M + 1, dtype=float)
            assert sidon_weight_divergence(c, M).partial_sum == float(np.sum(1.0 / (n * np.log(n) ** c)))

    def test_partial_sums_increase_in_m(self):
        a = sidon_weight_divergence(0.8, 10 ** 3).partial_sum
        b = sidon_weight_divergence(0.8, 10 ** 6).partial_sum
        assert b > a

    def test_weight_trend_grows(self):
        rows = ingham_weight_trend(0.5, 0.8, (256, 1024, 4096))
        ratios = [r[3] for r in rows]
        assert ratios[0] < ratios[1] < ratios[2]
        sups = [r[2] for r in rows]
        assert max(sups) <= 3.0  # uniform convergence keeps the sups tame
