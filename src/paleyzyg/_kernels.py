"""Hot numeric kernels, in numpy."""

import numpy as np

_TWO_PI = 2.0 * np.pi

# Kept for perfbench/run.py, which records the backend with every result.
USING_NUMBA = False


# No library code calls nudft: realline.fourier_transform evaluates the same
# sum in factored form, and the tests compare it with this dense reference.
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


def min_sup_phase(base_vals, char_vals, phases, cand=None, mags=None):
    """Among candidate phases, minimise sup |base + phase*char|.

    cand (complex) and mags (real), both (len(phases), len(base_vals)), are
    optional buffers for the candidates and their moduli, for callers that
    call in a loop.  Returns (best_index, best_sup).
    """
    cand = np.multiply.outer(phases, char_vals, out=cand)
    cand += base_vals
    sups = np.abs(cand, out=mags).max(axis=1)
    b = int(np.argmin(sups))
    return b, float(sups[b])
