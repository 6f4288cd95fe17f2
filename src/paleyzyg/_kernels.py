"""Hot numeric kernels, in numpy."""

import math

import numpy as np

_TWO_PI = 2.0 * np.pi

# Kept for perfbench/run.py, which records the backend with every result.
USING_NUMBA = False


# No library code calls nudft: realline.fourier_transform evaluates the same
# sum by a type-2 NUFFT, and the tests compare it with this dense reference.
# perfbench/run.py imports this module and perfbench/tests reads
# paleyzyg._kernels.nudft, so the name stays bound here.
def nudft(values, points, freqs):
    """Nonuniform DFT: out[i] = sum_j values[j] * exp(-2*pi*i*freqs[i]*points[j]).

    Dense O(len(freqs) * len(points)) evaluation, blocked to bound memory.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    out = np.empty(freqs.shape[0], dtype=np.complex128)
    block = max(1, 8_000_000 // max(points.shape[0], 1))
    for start in range(0, freqs.shape[0], block):
        f = freqs[start:start + block]
        phase = np.exp(-1j * _TWO_PI * np.outer(f, points))
        out[start:start + block] = phase @ values
    return out


def min_sup_phase(base_vals, char_vals, phases, sq=None):
    """Among candidate phases, minimise sup |base + phase*char|.

    In real arithmetic: |b + phi c|^2 = 2 Re(phi) Re(c conj b) -
    2 Im(phi) Im(c conj b) + |b|^2 + |c|^2, so the squared moduli of all
    candidates are one (phases, 3) @ (3, M) real product, and only the
    winner's square root is taken.  sq, a float (len(phases), M) array, is
    an optional buffer for those squared moduli, for callers that call in a
    loop.  Returns (best_index, best_sup).
    """
    base_vals = np.ascontiguousarray(base_vals, dtype=np.complex128)
    char_vals = np.ascontiguousarray(char_vals, dtype=np.complex128)
    phases = np.ascontiguousarray(phases, dtype=np.complex128)
    rot = np.ones((len(phases), 3))
    rot[:, :2] = phases.view(np.float64).reshape(-1, 2) * (2.0, -2.0)
    rhs = np.empty((3, len(base_vals)))
    rhs[:2] = (char_vals * np.conj(base_vals)).view(np.float64).reshape(-1, 2).T
    parts = base_vals.view(np.float64) ** 2      # re^2, im^2 interleaved
    parts += char_vals.view(np.float64) ** 2
    np.add(parts[0::2], parts[1::2], out=rhs[2])
    sups = np.matmul(rot, rhs, out=sq).max(axis=1)
    b = int(np.argmin(sups))
    return b, math.sqrt(sups[b])
