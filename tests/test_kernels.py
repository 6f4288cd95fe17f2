"""The kernels against direct loop and complex-arithmetic references."""

import numpy as np
import pytest

from paleyzyg import (Ensemble, FrequencySet, MultiplierSeq, SumsetSpectrum, _kernels,
                      geometric_lacunary, sidon_lower_bound)
from paleyzyg.torus import SUP_L1_FACTOR, _sample, grid_size


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def test_nudft_matches_direct_sum(rng):
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    points = np.linspace(0, 1, 64, endpoint=False)
    freqs = np.array([0.0, 1.0, -3.5])
    out = _kernels.nudft(values, points, freqs)
    for i, xi in enumerate(freqs):
        direct = np.sum(values * np.exp(-2j * np.pi * xi * points))
        assert abs(out[i] - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_min_sup_phase_matches_loop(rng):
    base = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    char = np.exp(2j * np.pi * np.arange(128) * 5 / 128)
    phases = np.exp(2j * np.pi * np.arange(16) / 16)
    best_i, best_sup = 0, np.inf
    for i, ph in enumerate(phases):
        sup = max(abs(b + ph * c) for b, c in zip(base, char))
        if sup < best_sup:
            best_i, best_sup = i, sup
    bi, bv = _kernels.min_sup_phase(base, char, phases)
    assert bi == best_i
    assert abs(bv - best_sup) <= 1e-12 * max(best_sup, 1.0)


def test_min_sup_phase_buffers_change_nothing(rng):
    base = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    char = np.exp(2j * np.pi * np.arange(256) * 7 / 256)
    phases = np.exp(2j * np.pi * np.arange(16) / 16)
    sq = np.empty((16, 256))
    for _ in range(2):      # the buffer holds the last call's squared moduli
        assert _kernels.min_sup_phase(base, char, phases, sq) == \
            _kernels.min_sup_phase(base, char, phases)
        np.testing.assert_allclose(sq, np.abs(base + phases[:, None] * char) ** 2,
                                   rtol=1e-12, atol=1e-12 * np.abs(base).max() ** 2)
        base = base[::-1].copy()


def _complex_ascent(chars):
    """The coordinate ascent of sidon_lower_bound on complex moduli: the
    (term, phase index) moves it accepts, and the sup it ends with."""
    phases = np.exp(2j * np.pi * np.arange(16) / 16)
    coeffs = np.ones(len(chars), dtype=np.complex128)
    f = chars.sum(axis=0)
    sup = float(np.abs(f).max())
    moves = []
    for _ in range(3):
        for i in range(len(chars)):
            base = f - coeffs[i] * chars[i]
            sups = np.abs(base + phases[:, None] * chars[i]).max(axis=1)
            b = int(np.argmin(sups))
            if sups[b] < sup:
                sup, coeffs[i] = float(sups[b]), phases[b]
                f = base + phases[b] * chars[i]
                moves.append((i, b))
    return moves, sup


def _phase_changes(moves):
    """The moves that change a coefficient's phase: an accepted move to the
    phase a term already has changes nothing, and on ties of the sup up to
    rounding the two arithmetics may accept such a move or not."""
    phase, changes = {}, []
    for i, b in moves:
        if phase.get(i, 0) != b:
            phase[i] = b
            changes.append((i, b))
    return changes


@pytest.mark.parametrize("elems", [
    geometric_lacunary(2, 6).terms,                    # README `sidon-lb --count 6`
    SumsetSpectrum(geometric_lacunary(2, 8), 2).frequency_set().sorted_elements()])
def test_sidon_ascent_takes_the_complex_phase_sequence(elems, monkeypatch):
    elems = sorted(elems)
    M = grid_size(max(abs(n) for n in elems), SUP_L1_FACTOR)
    chars = _sample(np.array(elems)[:, None], np.eye(len(elems)), (M,))
    want, want_sup = _complex_ascent(chars)
    results, kernel = [], _kernels.min_sup_phase

    def recording(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(_kernels, "min_sup_phase", recording)
    bound = sidon_lower_bound(MultiplierSeq.constant(1.0, max(elems)),
                              FrequencySet(1, frozenset(elems)), Ensemble("phase-ascent"))
    assert len(results) == 3 * len(elems)
    moves, sup = [], float(np.abs(chars.sum(axis=0)).max())
    for step, (b, s) in enumerate(results):
        if s < sup:
            sup = s
            moves.append((step % len(elems), b))
    assert _phase_changes(moves) == _phase_changes(want)
    assert len(_phase_changes(want)) >= 4
    assert bound == pytest.approx(len(elems) / want_sup, rel=1e-12)
