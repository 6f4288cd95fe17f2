"""Window shape, the telescoping partition, and its inverse transform."""

import numpy as np
import pytest

from paleyzyg import window


def test_knot_values():
    assert window.eta(1.0) == 0.0
    assert window.eta(1.5) == 1.0
    assert window.eta(2.0) == 1.0
    assert window.eta(3.0) == 0.0
    assert window.eta(0.0) == 0.0
    assert window.eta(3.5) == 0.0


def test_even_and_bounded():
    xi = np.linspace(-4, 4, 2001)
    v = window.eta(xi)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.abs(v - window.eta(-xi)).max() == 0.0


def test_ramps_are_affine():
    assert window.eta(1.25) == pytest.approx(0.5)
    assert window.eta(2.5) == pytest.approx(0.5)


def test_partition_sums_to_one_off_zero():
    xi = np.concatenate([np.logspace(-6, 8, 4001), -np.logspace(-3, 5, 100)])
    s = window.partition_sum(xi)
    assert np.abs(s - 1.0).max() <= 1e-12


def test_partition_bounds_on_truncated_range():
    # interior of the covered band still sums into [1, 2]
    k_min, k_max = -3, 12
    xi = np.logspace(np.log10(2.0 ** (k_min + 2)), np.log10(2.0 ** k_max), 10_000)
    s = window.partition_sum(xi, k_min, k_max)
    assert s.min() >= 1.0 - 1e-12
    assert s.max() <= 2.0 + 1e-12


def test_scaled_window_huge_scales():
    # scales near the float exponent limit must not overflow or vanish
    assert window.eta_scaled(1.5 * 2.0 ** 781, 781) == 1.0
    assert window.eta_scaled(2.0 ** 781, 781) == 0.0


def old_eta(xi):
    """The window as one whole-array expression: the reference for eta's
    in-place steps."""
    t = np.abs(np.asarray(xi, dtype=float))
    out = np.clip(2.0 * np.minimum(t - 1.0, 0.5 * (3.0 - t)), 0.0, 1.0)
    return out if out.ndim else float(out)


def test_a_scale_array_gives_one_row_per_scale_with_the_bits_of_each():
    # the division by np.ldexp(1.0, k) is the division by 2.0 ** k, and eta's
    # in-place steps are the whole-array expression, over -1074..1023
    rng = np.random.default_rng(4)
    ks = np.array([-1074, -1073, -1022, -600, -3, 0, 1, 2, 600, 1022, 1023])
    xi = np.concatenate([np.ldexp(rng.uniform(-3.5, 3.5, 64), rng.integers(-1080, 1024, 64)),
                         [0.0, -0.0, 1.0, 1.5, 2.0, 3.0, 5 / 3, np.finfo(float).max]])
    with np.errstate(over="ignore"):
        table = window.eta_scaled(xi, ks[:, None])
        assert table.shape == (len(ks), len(xi))
        for k, row in zip(ks.tolist(), table):
            want = old_eta(xi / 2.0 ** float(k))
            assert np.array_equal(row, want)
            assert np.array_equal(window.eta_scaled(xi, k), want)
    for x in xi[:8].tolist():
        assert window.eta(x) == old_eta(x) and isinstance(window.eta(x), float)


def test_a_scale_past_the_float_range_warns():
    with pytest.warns(RuntimeWarning, match="overflow"):
        window.eta_scaled(1.0, 1024)


def test_inverse_transform_matches_riemann_sum():
    xs = np.array([0.0, 0.1, 0.37, 1.2])
    s = np.linspace(1.0, 3.0, 60_001)
    ds = s[1] - s[0]
    vals = window.eta(s)
    for x, got in zip(xs, window.eta_inverse_transform(xs)):
        ref = 2.0 * np.sum(vals * np.cos(2 * np.pi * s * x)) * ds
        assert got == pytest.approx(ref, abs=5e-6)


def test_inverse_transform_at_zero_is_window_mass():
    # 2 * int_1^3 eta = 2 * (0.25 + 0.5 + 0.5) = 2.5, also where (2 pi x)^2
    # underflows
    assert window.eta_inverse_transform(0.0) == 2.5
    assert window.eta_inverse_transform(np.array([1e-300, 5e-324])).tolist() == [2.5, 2.5]


def test_inverse_transform_matches_quadrature_on_each_piece(psi_by_quadrature):
    # small x, where the 1 - cos form loses 5.5e-12, and all of x <= 64, where
    # the Rudin partial sums of the corpus window read psi
    xs = np.concatenate([[1e-12, 1e-8, 1e-5, 1e-3, 0.01], np.linspace(0.0, 64.0, 1025)[1:],
                         np.linspace(45.0, 64.0, 97)])
    got = window.eta_inverse_transform(xs)
    assert np.abs(got - psi_by_quadrature(xs)).max() <= 1e-14
    assert np.array_equal(window.eta_inverse_transform(-xs), got)


def floor_ceil_partition_sum(xi, k_min=None, k_max=None):
    """The reference for partition_sum's default range: k from
    floor(log2(min |xi| / 3)) to ceil(log2(max |xi|)) over the nonzero xi."""
    mags = np.abs(xi[xi != 0])
    if k_min is None:
        k_min = int(np.floor(np.log2(mags.min() / 3.0)))
    if k_max is None:
        k_max = int(np.ceil(np.log2(mags.max())))
    total = np.zeros(np.shape(xi))
    for k in range(k_min, k_max + 1):
        total = total + window.eta_scaled(xi, k)
    return total


@pytest.mark.parametrize("xi", [
    np.concatenate([np.logspace(-6, 8, 4001), -np.logspace(-3, 5, 100)]),
    np.random.default_rng(3).uniform(-50.0, 50.0, 1000),
    np.concatenate([2.0 ** np.arange(-30, 31), 3.0 * 2.0 ** np.arange(-30, 31), [0.0]]),
    np.array([1.0, 1.5, 3.0]),
    np.array([2.0 ** -1070, 1e-310, 2.0 ** -1022, 1e-300, 7.0])])
def test_default_range_adds_what_the_floor_ceil_range_adds(xi):
    # the scales partition_sum no longer visits add exactly 0.0
    with np.errstate(over="ignore"):
        assert np.array_equal(window.partition_sum(xi), floor_ceil_partition_sum(xi))
        for k_min, k_max in ((-3, None), (None, 4), (2, 1)):
            assert np.array_equal(window.partition_sum(xi, k_min, k_max),
                                  floor_ceil_partition_sum(xi, k_min, k_max))


def test_partition_sum_of_a_scalar():
    assert window.partition_sum(5.0) == 1.0 and window.partition_sum(0.0) == 0.0
    assert window.partition_sum(2.0 ** -1070) == 1.0


def test_every_finite_magnitude_is_covered():
    # 2**1023 is the top scale: 2**1024 is no float
    assert window.blocks_meeting(1.0, 1.7e308)[-1] == 1023
    assert window.blocks_meeting(1e308, np.finfo(float).max) == [1022, 1023]
    assert window.partition_sum(1e308) == 1.0
    # scales from 2**-1000 up: 1e308 / 2**k overflows, where eta is 0, and
    # the suite makes the RuntimeWarning of an overflow an error
    xi = np.array([1e-300, -1e308, np.finfo(float).max, 5.0])
    assert window.partition_sum(xi).tolist() == [1.0] * 4
