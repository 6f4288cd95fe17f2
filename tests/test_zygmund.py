"""Greedy block selection, the even/odd split, and the ratio harness."""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from paleyzyg import zygmund
from paleyzyg import (FrequencySet, MultiplierSeq, PaleyReport, TrigPoly, block_filling_corpus,
                      inverse_sqrt_ratio_check, dyadic_max_select, even_odd_split,
                      vallee_poussin, zygmund_ratio)
from paleyzyg.cli import main
from paleyzyg.spectra import DyadicBlocks


class TestSelection:
    def test_example_blocks(self):
        p = TrigPoly(1, {1: 1.0, 3: 1.0, 7: 1.0})
        sel = dyadic_max_select(p)
        assert sel.block_indices == (1, 2, 3)
        assert sel.lambdas == (1, 3, 7)

    def test_tie_takes_smallest(self):
        p = TrigPoly(1, {3: 1.0, 5: 1.0})  # both in I_2 = [3, 6]
        sel = dyadic_max_select(p)
        assert sel.lambdas == (3,)

    def test_mean_only_gives_empty_selection(self):
        sel = dyadic_max_select(TrigPoly(1, {0: 2.0}))
        assert sel.lambdas == ()
        assert sel.skipped_mean == 2.0

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dyadic_max_select(TrigPoly(1, {-3: 1.0}))

    def test_energy_identity_exact(self):
        # the split partitions the selected frequencies, so the squared maxima
        # match the split coefficients exactly, value for value
        rng = np.random.default_rng(21)
        p = TrigPoly(1, {int(n): complex(*rng.standard_normal(2))
                         for n in rng.integers(1, 5000, size=200)})
        sel = dyadic_max_select(p)
        lam1, lam2 = even_odd_split(sel)
        split_sq = sorted(abs(p.coeffs[n]) * abs(p.coeffs[n])
                          for seq in (lam1, lam2) if seq for n in seq.terms)
        sel_sq = sorted(m * m for m in sel.maxima)
        assert split_sq == sel_sq


class TestSplit:
    def test_block_starts(self):
        # lambda_k = 2^k - 1, the smallest member of each block
        p = TrigPoly(1, {2 ** k - 1: 1.0 for k in range(1, 12)})
        lam1, lam2 = even_odd_split(dyadic_max_select(p))
        for seq in (lam1, lam2):
            for a, b in zip(seq.terms, seq.terms[1:]):
                assert 2.0 <= b / a <= 16.0

    def test_block_tops(self):
        p = TrigPoly(1, {2 ** (k + 1) - 2: 1.0 for k in range(1, 12)})
        lam1, lam2 = even_odd_split(dyadic_max_select(p))
        for seq in (lam1, lam2):
            for a, b in zip(seq.terms, seq.terms[1:]):
                assert 2.0 <= b / a <= 16.0

    def test_single_block(self):
        p = TrigPoly(1, {4: 1.0})
        lam1, lam2 = even_odd_split(dyadic_max_select(p))
        assert lam1.terms == (4,)
        assert lam2 is None

    def test_missing_blocks_skipped_and_still_lacunary(self):
        p = TrigPoly(1, {1: 1.0, 2 ** 7: 1.0, 2 ** 15: 1.0})
        lam1, lam2 = even_odd_split(dyadic_max_select(p))
        for seq in (lam1, lam2):
            if seq and len(seq) > 1:
                assert seq.ratio >= 2.0

    def test_corpus_always_in_range(self):
        for p in block_filling_corpus(40, k_lo=1, k_hi=14, seed=77):
            sel = dyadic_max_select(p)
            lam1, lam2 = even_odd_split(sel)  # raises on violation
            for seq in (lam1, lam2):
                for a, b in zip(seq.terms, seq.terms[1:]):
                    assert 2.0 <= b / a <= 16.0

    # sha256 of the freqs and values bytes of every polynomial, in table
    # order, as drawn one coefficient at a time
    @pytest.mark.parametrize("args, digest", [
        ((400,), "887778050d7ec84028ceba823bcd1ee2514ce42d6214dfdfc8a171d205e2e2de"),
        ((7, 3, 11, 5), "ecc85a05b637c39b3875dc1516c0f166c091c4455f8b02c56534b0c63b70308c")])
    def test_corpus_keeps_its_stream(self, args, digest):
        h = hashlib.sha256()
        for p in block_filling_corpus(*args):
            h.update(p.freqs.tobytes())
            h.update(p.values.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("args", [(20, 0, 40, 3), (10, 25, 62, 9), (40, 1, 18, 0)])
    def test_corpus_reads_the_stream_of_integers(self, args):
        # the reference: one rng.integers call per block, then one
        # standard_normal(2) call per distinct pick; blocks 0 (no draw),
        # past 32 (64-bit draws) and up to 62 (the last in int64)
        count, k_lo, k_hi, seed = args
        for t, p in enumerate(block_filling_corpus(*args)):
            rng = np.random.default_rng([seed, t])
            coeffs = {}
            for k in range(k_lo, k_hi + 1):
                lo, hi = DyadicBlocks.shifted_block_range(k)
                for n in set(rng.integers(lo, hi + 1, size=min(3, hi - lo + 1)).tolist()):
                    coeffs[n] = complex(*rng.standard_normal(2))
            assert p.freqs[:, 0].tolist() == list(coeffs)
            assert p.values.tolist() == list(coeffs.values())

    @pytest.mark.parametrize("kwargs, message", [
        ({"k_hi": 63}, "block 63 reaches frequency 18446744073709551614, past int64"),
        ({"seed": -1}, "--seed must be a non-negative integer, got -1")])
    def test_refused_before_any_draw(self, monkeypatch, kwargs, message):
        def no_draw(seed):
            raise AssertionError("drew")
        monkeypatch.setattr(np.random, "PCG64", no_draw)
        with pytest.raises(ValueError, match=message):
            block_filling_corpus(1, **kwargs)

    def test_empty_block_range_rejected(self):
        with pytest.raises(ValueError, match="empty block range 5..3"):
            block_filling_corpus(1, k_lo=5, k_hi=3)
        assert len(block_filling_corpus(2, k_lo=3, k_hi=3)[0].support) >= 1


class TestShiftedBlocks:
    def test_partition_up_to_2_pow_20(self):
        # floor(log2(n+1)) is exact below 2^53, so the sweep vectorises
        n = np.arange(2 ** 20 + 1, dtype=np.int64)
        ks = np.floor(np.log2(n + 1)).astype(np.int64)
        los = 2 ** ks - 1
        his = 2 ** (ks + 1) - 2
        assert np.all((los <= n) & (n <= his))
        jumps = np.diff(ks)
        assert set(np.unique(jumps)) <= {0, 1}
        for probe in (0, 1, 2, 3, 6, 7, 2 ** 19, 2 ** 20):
            assert DyadicBlocks.shifted_block_of(probe) == int(ks[probe])


class TestRatioHarness:
    def test_single_character_closed_form(self):
        p = TrigPoly(1, {6: 1.0})
        m = MultiplierSeq.indicator(FrequencySet(1, frozenset([6])))
        rep = zygmund_ratio(p, m, check_multiplier=False)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0 + math.sqrt(math.log(2.0)), rel=1e-12)
        assert rep.ratio == pytest.approx(1.0 / (1.0 + math.sqrt(math.log(2.0))), rel=1e-12)

    def test_zero_polynomial(self):
        m = MultiplierSeq.inverse_sqrt(16)
        rep = zygmund_ratio(TrigPoly(1, {}), m, check_multiplier=False)
        assert rep.ratio == 0.0
        assert rep.grid == 16

    def test_unimodular_scaling_invariance(self):
        p = TrigPoly(1, {1: 1.0, 5: 2.0, 9: 1.5})
        m = MultiplierSeq.inverse_sqrt(16)
        a = zygmund_ratio(p, m, check_multiplier=False)
        rotated = TrigPoly(1, {n: np.exp(0.7j) * c for n, c in p.coeffs.items()})
        b = zygmund_ratio(rotated, m, check_multiplier=False)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12)

    def test_diverging_multiplier_rejected(self):
        m = MultiplierSeq.constant(1.0, 2 ** 13)
        with pytest.raises(ValueError, match="criterion"):
            zygmund_ratio(TrigPoly(1, {1: 1.0}), m)

    def test_checked_range_is_the_largest_fitting_k(self, monkeypatch):
        # the closed form of _check_bounded against the decrement loop it
        # replaced: the largest K with 2^(K+1) <= horizon, none below 2
        def loop_k(horizon):
            K = max(2, horizon.bit_length() - 2)
            while 2 ** (K + 1) > horizon:
                K -= 1
            return K

        seen = []

        def record(m, K):
            seen.append(K)
            return PaleyReport((), 0.0, "bounded-up-to-horizon")

        monkeypatch.setattr(zygmund, "paley_block_sums", record)
        for horizon in range(1, 2 ** 16 + 1):
            seen.clear()
            zygmund._check_bounded(SimpleNamespace(horizon=horizon))
            want = loop_k(horizon)
            assert seen == ([want] if want >= 0 else []), horizon

    def test_flat_kernel_ratio_bounded_in_n(self):
        ratios = []
        for N in (4, 6, 8, 10):
            rep = inverse_sqrt_ratio_check(vallee_poussin(N))
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) <= 1.6

    def test_report_json(self, capsys):
        assert main(["zygmund-ratio", "--vp", "4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["columns"] == ["kind", "index", "lhs", "rhs", "ratio", "grid"]
        assert len(data["rows"]) == 1
