"""The kernels against direct loop references."""

import numpy as np
import pytest

from paleyzyg import _kernels


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
    cand = np.empty((16, 256), dtype=np.complex128)
    mags = np.empty((16, 256))
    for _ in range(2):      # the buffers hold the last call's values
        assert _kernels.min_sup_phase(base, char, phases, cand, mags) == \
            _kernels.min_sup_phase(base, char, phases)
        assert np.array_equal(mags, np.abs(base + phases[:, None] * char))
        base = base[::-1].copy()
