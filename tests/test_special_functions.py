import math

import numpy as np
from numpy.polynomial.legendre import legder, legval, legvander
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sechprolate import special_functions
from sechprolate.special_functions import (carlson_rf, gauss_legendre,
                                           legendre_derivative_table,
                                           legendre_table, panel_grid)

from oracles.special_functions import spherical_bessel_ratio


def test_gauss_n1():
    g = gauss_legendre(1)
    assert g.nodes == pytest.approx([0.0], abs=1e-15)
    assert g.weights == pytest.approx([2.0], abs=1e-15)


def test_gauss_n2():
    g = gauss_legendre(2)
    assert g.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert g.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_x6_exact():
    g = gauss_legendre(4)
    assert abs(np.sum(g.weights * g.nodes ** 6) - 2 / 7) < 1e-14


def test_gauss_interval_map():
    g = panel_grid([0.0, 2.0], 8)
    assert abs(np.sum(g.weights) - 2.0) < 1e-13
    assert abs(np.sum(g.weights * g.nodes ** 3) - 4.0) < 1e-12
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)


@pytest.mark.parametrize("n", [3, 8, 16, 40])
def test_gauss_polynomial_exactness(n):
    """Degree 2n-1 polynomials integrate exactly; antiderivative oracle."""
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(2 * n)
    poly = np.polynomial.Polynomial(coef)
    exact = poly.integ()(1.0) - poly.integ()(-1.0)
    g = gauss_legendre(n)
    assert abs(np.sum(g.weights * poly(g.nodes)) - exact) < 1e-12 * max(1, abs(exact))


def test_gauss_matches_numpy():
    x, w = np.polynomial.legendre.leggauss(64)
    g = gauss_legendre(64)
    assert np.allclose(g.nodes, x, atol=1e-14)
    assert np.allclose(g.weights, w, atol=1e-14)


def test_gauss_invalid_args():
    with pytest.raises(ValueError):
        gauss_legendre(0)


@pytest.mark.parametrize("n, interval", [(1, (-1.0, 1.0)), (2, (-1.0, 1.0)),
                                         (16, (-1.0, 1.0)), (200, (-1.0, 1.0)),
                                         (2048, (-1.0, 1.0)), (48, (0.0, 1.0)),
                                         (400, (-0.9, 0.9))])
def test_gauss_cached_rule_equals_fresh_build(n, interval):
    """The memoised rule is a fresh build, bit for bit, and panel_grid maps
    it onto the interval as x -> (hi - lo)/2 x + (lo + hi)/2."""
    cached = gauss_legendre(n)
    fresh = special_functions._gauss_legendre_rule.__wrapped__(n)
    assert cached.nodes.tobytes() == fresh.nodes.tobytes()
    assert cached.weights.tobytes() == fresh.weights.tobytes()
    assert gauss_legendre(n) is cached
    lo, hi = interval
    mapped = panel_grid(interval, n)
    half = 0.5 * (hi - lo)
    assert mapped.nodes.tobytes() == (half * fresh.nodes
                                      + 0.5 * (lo + hi)).tobytes()
    assert mapped.weights.tobytes() == (half * fresh.weights).tobytes()


def test_gauss_rule_is_read_only():
    g = gauss_legendre(16)
    before = (g.nodes.copy(), g.weights.copy())
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0
    with pytest.raises(ValueError):
        g.weights *= 2.0
    again = gauss_legendre(16)
    assert np.array_equal(again.nodes, before[0])
    assert np.array_equal(again.weights, before[1])


def test_gauss_cache_key_normalises_arguments():
    assert gauss_legendre(np.int64(24)) is gauss_legendre(24)


def test_gauss_invalid_args_after_caching():
    gauss_legendre(4)
    for n in (0, np.int64(0), -3):
        with pytest.raises(ValueError):
            gauss_legendre(n)


def test_legendre_constant():
    x = np.linspace(-1, 1, 7)
    assert np.max(np.abs(legendre_table(0, x)[0] - 1 / math.sqrt(2))) < 1e-15


def test_legendre_p1_at_1():
    assert abs(legendre_table(1, 1.0)[1, 0] - math.sqrt(1.5)) < 1e-15


def test_legendre_orthonormal():
    g = gauss_legendre(64)
    tab = legendre_table(20, g.nodes)
    gram = (tab * g.weights) @ tab.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-13


def test_legendre_closed_forms():
    """Recurrence vs the explicit degree <= 3 polynomials."""
    x = np.linspace(-1, 1, 20)
    explicit = [np.full_like(x, 1 / math.sqrt(2)),
                math.sqrt(1.5) * x,
                math.sqrt(2.5) * (3 * x ** 2 - 1) / 2,
                math.sqrt(3.5) * (5 * x ** 3 - 3 * x) / 2]
    tab = legendre_table(3, x)
    for m, ref in enumerate(explicit):
        assert np.max(np.abs(tab[m] - ref)) < 1e-13


def test_legendre_tables_consistent():
    x = np.linspace(-0.95, 0.95, 9)
    tab = legendre_table(6, x)
    # numpy's unnormalized Vandermonde matrix as the independent reference
    ref = legvander(x, 6) * np.sqrt(np.arange(7) + 0.5)
    assert np.allclose(tab, ref.T, atol=1e-14)
    # derivative table vs central differences
    dtab = legendre_derivative_table(tab)
    h = 1e-6
    for m in range(7):
        fd = (legendre_table(6, x + h)[m] - legendre_table(6, x - h)[m]) / (2 * h)
        assert np.max(np.abs(dtab[m] - fd)) < 1e-6
    # up to degree 139, the top of the default Galerkin basis, on its Gauss
    # nodes and +-1, against numpy's legder of each unit coefficient
    # vector: within 1e-12 of P-bar'_k(1) = k(k+1)/2 sqrt(k+1/2), the
    # largest value of the derivative (measured at most 7.3e-14)
    n = 140
    x = np.concatenate([[-1.0], gauss_legendre(n).nodes, [1.0]])
    k = np.arange(n)
    ref = np.array([legval(x, legder(e)) for e in np.eye(n)]) \
        * np.sqrt(k + 0.5)[:, None]
    dtab = legendre_derivative_table(legendre_table(n - 1, x))
    scale = k * (k + 1) / 2 * np.sqrt(k + 0.5)
    assert np.all(np.abs(dtab - ref) <= 1e-12 * scale[:, None])


def elliptic_K(k):
    """K(k), modulus convention, as R_F(0, 1 - k^2, 1); the k'^2 = 1 - k^2
    formed here loses little for the k <= 0.999 of these tests."""
    return carlson_rf(0.0, 1.0 - k * k, 1.0)


def test_carlson_rf_matches_scipy():
    """Seeded arguments spread over 1e-300..1e300, one of them 0 in every
    third triple, against scipy's elliprf; an array call gives each entry
    bit for bit as its own scalar call."""
    rng = np.random.default_rng(20261020)
    args = 10.0 ** rng.uniform(-300, 300, (3, 600))
    args[rng.integers(0, 3, 200), np.arange(0, 600, 3)] = 0.0
    got = carlson_rf(*args)
    # scipy returns nan when one argument is 0 and the others are all tiny,
    # so triples whose largest argument is below 1 are scaled up by an exact
    # power of 4 first: R_F is homogeneous of degree -1/2
    k = np.maximum(0, -np.floor(np.log2(args.max(axis=0)) / 2)).astype(int)
    ref = np.ldexp(scipy.special.elliprf(*np.ldexp(args, 2 * k)), k)
    assert np.max(np.abs(got / ref - 1)) <= 2e-15
    assert np.array_equal(got, [carlson_rf(*a) for a in args.T])


def test_elliptic_K_zero():
    assert abs(elliptic_K(0.0) - math.pi / 2) < 1e-15


def test_elliptic_K_increasing():
    ks = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99]
    vals = [elliptic_K(k) for k in ks]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_elliptic_K_integral_oracle():
    """R_F against adaptive quadrature of the defining integral."""
    for k in [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.3333, 0.123, 0.876]:
        ref, _ = scipy.integrate.quad(
            lambda t, kk=k: 1 / math.sqrt(1 - (kk * math.sin(t)) ** 2),
            0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert abs(elliptic_K(k) - ref) < 1e-12 * ref


@given(st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_elliptic_K_matches_scipy(k):
    # scipy's ellipk takes the parameter m = k^2
    assert elliptic_K(k) == pytest.approx(scipy.special.ellipk(k * k), rel=1e-13)


def test_bessel_j0_at_pi():
    assert abs(spherical_bessel_ratio(0, math.pi)) < 1e-14


def test_bessel_j1_small_argument():
    z = 1e-4
    assert spherical_bessel_ratio(1, z) == pytest.approx(z / 3, rel=1e-6)


def test_bessel_at_zero():
    assert spherical_bessel_ratio(0, 0.0) == 1.0
    for k in range(1, 5):
        assert spherical_bessel_ratio(k, 0.0) == 0.0


def test_bessel_j5_2_fourier_oracle():
    """j_5(2) from the Fourier coefficient of the Legendre polynomial."""
    re, _ = scipy.integrate.quad(
        lambda t: math.cos(2 * t) * scipy.special.eval_legendre(5, t), -1, 1,
        epsabs=1e-14)
    im, _ = scipy.integrate.quad(
        lambda t: math.sin(2 * t) * scipy.special.eval_legendre(5, t), -1, 1,
        epsabs=1e-14)
    ref = (re + 1j * im) / (2 * 1j ** 5)
    assert abs(ref.imag) < 1e-14
    assert spherical_bessel_ratio(5, 2.0) == pytest.approx(ref.real, abs=1e-10)


@pytest.mark.parametrize("k,z", [(0, 0.5), (2, 1.0), (5, 2.0), (8, 30.0),
                                 (20, 3.0), (40, 1.0), (12, 12.0)])
def test_bessel_matches_scipy(k, z):
    ref = scipy.special.spherical_jn(k, z)
    got = spherical_bessel_ratio(k, z)
    assert got == pytest.approx(ref, rel=1e-11, abs=1e-300)
