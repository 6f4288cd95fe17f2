"""Shared test oracles."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def psi_by_quadrature():
    """psi(x) = 2 int_1^3 eta(s) cos(2 pi s x) ds, by scipy's QAWO rule for
    cosine weights on each linear piece of eta (within 1.3e-15 of 50-digit
    mpmath on [0, 64]): an oracle that shares no formula with
    window.eta_inverse_transform."""
    quad = pytest.importorskip("scipy.integrate").quad
    pieces = ((1.0, 1.5, lambda s: 2.0 * (s - 1.0)), (1.5, 2.0, lambda s: 1.0),
              (2.0, 3.0, lambda s: 3.0 - s))

    def psi(xs):
        return np.array([2.0 * sum(quad(f, a, b, weight="cos", wvar=2.0 * np.pi * x)[0]
                                   for a, b, f in pieces) for x in np.ravel(xs)])
    return psi
