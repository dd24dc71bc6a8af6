import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from llrer import ConfigError, KernelKind, kernel_eval, scaled_kernel
from llrer.kernels import _BANDWIDTH_RANGE, KERNEL_SUPPORT, _check_bandwidth, _kernel_of_squares
from llrer.loclin import _offsets


def test_gaussian_at_zero():
    assert kernel_eval(KernelKind.GAUSSIAN, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_epanechnikov_values():
    assert kernel_eval(KernelKind.EPANECHNIKOV, 0.0) == 0.75
    assert kernel_eval(KernelKind.EPANECHNIKOV, 1.5) == 0.0
    assert kernel_eval(KernelKind.EPANECHNIKOV, 1.0) == 0.0
    assert kernel_eval(KernelKind.EPANECHNIKOV, -1.0) == 0.0
    assert kernel_eval(KernelKind.EPANECHNIKOV, 0.999) > 0.0


def test_symmetry_exact():
    u = np.linspace(-6.0, 6.0, 241)
    for kind in KernelKind:
        left = kernel_eval(kind, u)
        right = kernel_eval(kind, -u)
        # u*u is identical for u and -u, so both kinds are bit-exact symmetric
        assert np.array_equal(left, right)
    assert kernel_eval(KernelKind.GAUSSIAN, 2.0) == kernel_eval(KernelKind.GAUSSIAN, -2.0)


def test_non_negative():
    rng = np.random.default_rng(5)
    u = rng.normal(scale=3.0, size=500)
    for kind in KernelKind:
        assert np.all(kernel_eval(kind, u) >= 0.0)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_integrates_to_one(kind):
    total, _ = quad(lambda u: kernel_eval(kind, u), -10.0, 10.0, points=[-1.0, 1.0], limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_scaled_kernel_h_one_identity():
    u = np.linspace(-3, 3, 13)
    assert np.array_equal(scaled_kernel(KernelKind.GAUSSIAN, 1.0, u), kernel_eval(KernelKind.GAUSSIAN, u))


def test_scaled_kernel_support_scaling():
    # u/h = 1.2 falls outside the compact support
    assert scaled_kernel(KernelKind.EPANECHNIKOV, 0.5, 0.6) == 0.0


def test_scaled_kernel_direct_substitution():
    got = scaled_kernel(KernelKind.GAUSSIAN, 2.0, 2.0)
    assert got == pytest.approx(math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert got == pytest.approx(0.2419707, abs=1e-6)


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf"), 1e-160, 1e160])
def test_scaled_kernel_rejects_bad_bandwidth(h):
    with pytest.raises(ConfigError):
        scaled_kernel(KernelKind.GAUSSIAN, h, 0.5)


def test_kernel_names():
    assert KernelKind.from_name("gaussian") is KernelKind.GAUSSIAN
    assert KernelKind.from_name(" Epanechnikov ") is KernelKind.EPANECHNIKOV
    with pytest.raises(ConfigError):
        KernelKind.from_name("tricube")


def _formula(kind, u):
    """The kernels written as one expression each, the reference for the in-place build."""
    if kind is KernelKind.GAUSSIAN:
        return 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u * u)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_in_place_build_matches_formula_bit_for_bit(kind):
    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    edges = [1.0, -1.0, 0.0, -0.0, one_up, -one_up, one_down, -one_down, np.inf, -np.inf]
    u = np.concatenate([np.random.default_rng(5).normal(scale=2.0, size=5000), edges])
    keep = u.copy()
    with np.errstate(over="ignore"):
        got = kernel_eval(kind, u)
        want = _formula(kind, u)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(u.view(np.int64), keep.view(np.int64))  # the caller's u is left alone
    for x in edges:
        want = np.float64(_formula(kind, np.float64(x)))
        assert np.float64(kernel_eval(kind, x)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", list(KernelKind))
def test_kernel_allocates_about_one_output_array(kind):
    u = np.linspace(-3.0, 3.0, 2000 * 2000).reshape(2000, 2000)
    tracemalloc.start()
    try:
        out = kernel_eval(kind, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == u.shape
    assert peak <= 1.1 * u.nbytes


@pytest.mark.parametrize("kind", list(KernelKind))
def test_far_argument_weighs_zero_without_a_warning(kind):
    # u * u and u / h overflow here; pyproject turns the RuntimeWarning into an error
    for u in (1e200, -1e200):
        assert kernel_eval(kind, u) == 0.0
    for u in (1e308, -1e308):
        assert scaled_kernel(kind, 0.5, u) == 0.0


@pytest.mark.parametrize("kind", [k for k in KernelKind if math.isfinite(KERNEL_SUPPORT[k])])
def test_zero_at_and_beyond_the_support(kind):
    # the CV windows leave out every column at |u| >= support,
    # which is safe only if those weights are exactly 0
    r = KERNEL_SUPPORT[kind]
    edge = [r, np.nextafter(r, np.inf), r * (1.0 + 1e-12), 2.0 * r, 1e300, np.inf]
    u = np.array(edge + [-v for v in edge])
    assert np.array_equal(kernel_eval(kind, u), np.zeros(u.size))
    assert kernel_eval(kind, np.nextafter(r, 0.0)) > 0.0
    assert kernel_eval(kind, -np.nextafter(r, 0.0)) > 0.0


@pytest.mark.parametrize("kind", list(KernelKind))
def test_kernel_eval_is_the_squared_offset_kernel_at_h_one(kind):
    # cross-validation weighs squared offsets with _kernel_of_squares; at
    # h = 1 it is kernel_eval, bit for bit, also where u * u overflows, is
    # subnormal or is nan
    rng = np.random.default_rng(6)
    special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e154, 1e-160, 1e-162, 5e-324]
    u = np.concatenate([rng.normal(scale=s, size=20000) for s in (1e-160, 1e-3, 1.0, 3.0, 40.0, 1e154)] + [special])
    with np.errstate(over="ignore"):
        u2 = u * u
    assert np.array_equal(kernel_eval(kind, u).view(np.int64), _kernel_of_squares(kind, u2, 1.0).view(np.int64))



def test_bandwidth_range_is_closed():
    lo, hi = _BANDWIDTH_RANGE
    assert _check_bandwidth(lo) == lo and _check_bandwidth(hi) == hi
    for h in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
        with pytest.raises(ConfigError, match=r"^bandwidth h must be a real number in \[1e-150, 1e\+150\], got "):
            _check_bandwidth(h)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_squared_offset_weights_are_the_scaled_kernel_at_every_accepted_bandwidth(kind):
    # curves and cross-validation weigh the capped squared offsets of
    # loclin._offsets; at every bandwidth _check_bandwidth accepts, these
    # weights are scaled_kernel's to rounding, and an offset whose square
    # overflows weighs exactly 0, however many bandwidths away it is
    u = np.concatenate([np.linspace(-40.0, 40.0, 1601), [1e-9, -1e-5, 1e3, 1e10]])
    far = np.array([-1e308, -1e200, 1.5e154, 1e170, 1e308])
    lo, hi = _BANDWIDTH_RANGE
    accepted = 0
    for h in np.concatenate([10.0 ** np.arange(-170.0, 171.0, 5.0), [lo, hi]]):
        try:
            h = _check_bandwidth(h)
        except ConfigError:
            continue
        accepted += 1
        with np.errstate(over="ignore"):
            dx, dx2 = _offsets(np.concatenate([u * h, far]), np.array([0.0]))
        got, want = _kernel_of_squares(kind, dx2, h)[0], scaled_kernel(kind, h, dx)[0]
        capped = dx2[0] == np.finfo(float).max
        assert capped[-far.size :].all() and not np.any(got[capped]) and not np.any(want[capped]), h
        got, want, u2 = got[~capped], want[~capped], (dx[0, ~capped] / h) ** 2
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + u2) * want + 1e-15), h
    assert accepted == 63
