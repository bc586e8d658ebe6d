import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipkm1

from sechprolate import commuting_ode
from sechprolate.bounds import R_of_c, U_bounds
from sechprolate.commuting_ode import (LiouvilleTransform, family_parameter,
                                       galerkin_basis_size,
                                       galerkin_eigensystem, q_c_potential)
from sechprolate.sech_operator import SampledFunction, nystrom_eigensystem
from sechprolate.special_functions import (gauss_legendre, legendre_table,
                                           panel_grid)

from oracles.commuting_ode import (case1_coefficients, commutation_residual,
                                   weak_form_chi)


def test_family_parameter_scaling():
    # the Sturm-Liouville family runs at pi*c/2 for window parameter c;
    # this pins the convention every formula below depends on
    assert family_parameter(1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    t = family_parameter(1.0)
    p0, q0 = case1_coefficients(1.0, 0.0)
    assert p0 == pytest.approx(math.cosh(4 * t) - 1, rel=1e-13)
    assert q0 == pytest.approx(3 * t * t, rel=1e-15)


@pytest.mark.parametrize("c", np.geomspace(0.01, 111.0, 9))
def test_liouville_normalizer_matches_scipy(c):
    """U = K(tanh 2t) / (t sqrt(1 + cosh 4t)) against scipy's ellipkm1 of
    the complementary parameter sech(2t)^2, up to 4t near the 700 limit."""
    t = family_parameter(c)
    ref = ellipkm1(1 / math.cosh(2 * t) ** 2) / (
        t * math.sqrt(1 + math.cosh(4 * t)))
    assert commuting_ode.liouville_normalizer(t) == pytest.approx(
        ref, rel=1e-14, abs=0)


def test_p_vanishes_at_endpoints():
    for c in [0.3, 1.0, 2.0]:
        for x in [-1.0, 1.0]:
            p, _ = case1_coefficients(c, x)
            assert p == pytest.approx(0.0, abs=1e-12)


def test_p_cancellation_free():
    t = family_parameter(1.0)
    for x in np.linspace(-0.99, 0.99, 41):
        p, _ = case1_coefficients(1.0, x)
        naive = math.cosh(4 * t) - math.cosh(4 * t * x)
        assert p == pytest.approx(naive, rel=1e-12)


def test_transform_endpoints(transform_c1):
    Y, F = transform_c1.forward([-1.0, 0.0, 1.0])
    assert Y.tolist() == [-1.0, 0.0, 1.0]
    assert np.all(np.isfinite(F)) and np.all(F > 0)


def test_U_within_closed_form_bracket(transform_c1):
    lo, hi = U_bounds(1.0)
    assert lo < transform_c1.U < hi


def test_U_against_direct_quadrature():
    """Closed elliptic form vs the singularity-removed s-integral."""
    for c in [0.1, 0.5, 1.0, 2.0]:
        tr = LiouvilleTransform(c)
        assert tr.s(-1.0) == pytest.approx(tr.U, rel=1e-10)


def test_Y_monotone_roundtrip(transform_c1):
    Y, _ = transform_c1.forward(np.linspace(-1, 1, 200))
    assert np.all(np.diff(Y) > 0)


def test_F_positive_and_bounded(transform_c1):
    tr = transform_c1
    t = family_parameter(1.0)
    cap = 2 * math.pi ** 2 * math.exp(4 * t) * t * t   # quartic-power cap
    _, F = tr.forward(np.linspace(-1, 1, 501))
    assert np.all(F > 0)
    assert np.all(F ** 4 <= cap)


def test_q_at_zero(transform_c1):
    tr = transform_c1
    t = family_parameter(1.0)
    ref = 0.5 - (tr.U * t / math.pi) ** 2
    assert q_c_potential(tr, 0.0) == pytest.approx(ref, rel=1e-13)


def test_q_even(transform_c1):
    tr = transform_c1
    for y in np.linspace(0.0, 1.0, 100):
        assert q_c_potential(tr, y) == pytest.approx(q_c_potential(tr, -y),
                                                     rel=1e-11, abs=1e-11)


def test_q_bounded_range(transform_c1):
    """Measured behavior: the potential attains its minimum at 0 and stays
    within a width-R band above it."""
    tr = transform_c1
    t = family_parameter(1.0)
    q0 = 0.5 - (tr.U * t / math.pi) ** 2
    R = R_of_c(1.0)
    vals = np.array([q_c_potential(tr, y) for y in np.linspace(-1, 1, 500)])
    assert np.min(vals) >= q0 - 1e-10
    assert np.max(vals) <= q0 + R


def test_chi_increasing(ode_c1):
    chi = ode_c1.chi[:21]
    assert np.all(np.diff(chi) > 0)


def test_chi_against_weak_form(ode_c1):
    """Independent discretization of the same eigenproblem (derivative weak
    form in the original variable, no potential transform)."""
    ref = weak_form_chi(1.0, n_b=140, m_max=12)
    assert np.allclose(ode_c1.chi[:13], ref[:13], rtol=1e-10)


def test_cross_method_eigenfunctions(ode_c1, ny_c1):
    x = ny_c1.grid.nodes
    w = ny_c1.grid.weights
    for m in range(9):
        a = ny_c1.g_values[:, m]
        b = ode_c1.evaluate_g(m, x)
        err = math.sqrt(np.sum(w * (a - b) ** 2))
        assert err < 1e-6, f"m={m}: {err:.2e}"


@pytest.mark.parametrize("c, m_max", [(0.5, 20), (0.5, 21), (1.0, 30), (4.0, 30)])
def test_cross_route_eigenfunctions_deep(c, m_max):
    """Dense route against the commuting-operator route wherever rho > 1e-10.
    At c = 0.5 and 1 these grid sizes (n follows m_max) are where float64
    eigenvectors alone missed 1e-6; at c = 4 the miss came from the
    normalizer U of the Liouville map."""
    ny = nystrom_eigensystem(c, m_max=m_max)
    ode = galerkin_eigensystem(c, n_b=galerkin_basis_size(m_max), m_max=m_max)
    x, w = ny.grid.nodes, ny.grid.weights
    checked = 0
    for m in range(m_max + 1):
        if ny.eigenvalues[m] > 1e-10:
            err = math.sqrt(np.sum(w * (ny.g_values[:, m] - ode.evaluate_g(m, x)) ** 2))
            assert err <= 1e-6, f"m={m}: {err:.2e}"
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0, 5.0, 8.0, 16.0])
def test_u_normalizer_matches_quadrature(c):
    # U = int_{-1}^{1} p^{-1/2} = 2 s(0); the closed form must not lose the
    # complementary modulus sech(2t) to cancellation at large c, and the
    # s-rule must keep its accuracy there (abs=0: U is 3.5e-11 at c = 8)
    tr = LiouvilleTransform(c)
    assert 2 * tr.s(0.0) == pytest.approx(tr.U, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("c", [0.25, 4.0, 8.0])
def test_vectorised_map_matches_scalar_calls(c):
    tr = LiouvilleTransform(c)
    x = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1 + 1e-13, 1 - 1e-13],
                        1 - np.logspace(-15, -1, 8), [-1 + 1e-9]])
    for fn in (tr.s, lambda v: q_c_potential(tr, v)):
        got = fn(x)
        assert got.shape == x.shape
        assert np.array_equal(got, [fn(float(v)) for v in x])
    Y, F = tr.forward(x)
    scalar = np.array([tr.forward(float(v)) for v in x])[..., 0]
    assert np.array_equal(Y, scalar[:, 0]) and np.array_equal(F, scalar[:, 1])


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_s_against_scipy_quad(c):
    # independent form: int_x^1 (p / (1-xi))^(-1/2) (1-xi)^(-1/2) by QUADPACK
    # with the algebraic endpoint weight
    t = family_parameter(c)

    def smooth(xi):
        h = 1.0 - xi
        shc = math.sinh(2 * t * h) / h if h > 0 else 2 * t
        return (2.0 * math.sinh(2 * t * (1 + xi)) * shc) ** -0.5

    # QUADPACK's weighted rule itself loses digits as [x, 1] shrinks (1e-8
    # relative at length 2^-40), so the points stay away from x = 1
    xs = np.array([-0.99, -0.5, 0.0, 0.3, 0.9, 0.99])
    ref = [quad(smooth, x, 1.0, weight="alg", wvar=(0.0, -0.5),
                epsabs=0.0, epsrel=1e-13)[0] for x in xs]
    assert LiouvilleTransform(c).s(xs) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("c", [0.25, 4.0, 64.0, 111.0])
def test_potential_quadrature_converged(c):
    """The Galerkin matrix's potential integral is resolved: the eigenvalues
    agree with a matrix assembled from forward, q_c_potential and
    legendre_table on three times as many u = sqrt(1 - |x|) nodes, up to
    the top of the supported range."""
    n_b = 140
    tr = LiouvilleTransform(c)
    rule = panel_grid([0.0, 1.0], 3 * (int(0.7 * n_b) + 16))
    x = 1.0 - rule.nodes ** 2
    Y, F = tr.forward(x)
    w = rule.weights * 2 * rule.nodes * math.pi / (tr.U * F ** 2)
    P = legendre_table(n_b - 1, np.concatenate([Y, -Y]))
    k = np.arange(n_b)
    M = np.diag(k * (k + 1.0)) + (P * np.tile(q_c_potential(tr, x) * w, 2)) @ P.T
    ref = (math.pi / tr.U) ** 2 * np.linalg.eigvalsh(M)[:31]
    chi = galerkin_eigensystem(c, n_b=n_b, m_max=12).chi[:31]
    assert np.max(np.abs(chi / ref - 1)) <= 2e-10


def test_potential_warns_nothing_at_the_top_of_the_range():
    """The endpoint expansion of q^c, formed only where it is used, does not
    overflow at c = 111, and neither does the closed form beside it."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        galerkin_eigensystem(111.0, m_max=12)
        q_c_potential(LiouvilleTransform(111.0), 1 - np.logspace(-12, 0, 25))
    assert [str(w.message) for w in seen] == []


def test_evaluate_g_rejects_points_outside_the_map(ode_c1):
    """A point outside [-1, 1] or NaN raises rather than give NaN values."""
    for bad in (1.5, -1.0000001, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            ode_c1.evaluate_g(0, [0.3, bad])


def test_evaluate_g_distinguishes_grids_with_equal_ends(ode_c1):
    # equal size and equal first and last points, different interiors
    k = np.arange(201)
    equi = np.linspace(-1.0, 1.0, 201)
    cheb = -np.cos(np.pi * k / 200)
    for m in (0, 3):
        ode_c1.evaluate_g(m, equi)
        got = ode_c1.evaluate_g(m, cheb)
        pointwise = np.array([ode_c1.evaluate_g(m, xx)[0] for xx in cheb])
        assert np.max(np.abs(got - pointwise)) < 1e-12


def test_evaluate_g_index_array_matches_per_m_loop(ode_c1):
    x = np.linspace(-1.0, 1.0, 301)
    ms = np.array([0, 1, 5, 12, 20])
    rows = ode_c1.evaluate_g(ms, x)
    loop = np.array([ode_c1.evaluate_g(int(m), x) for m in ms])
    assert rows.shape == (5, 301)
    assert np.max(np.abs(rows - loop)) <= 1e-14 * np.max(np.abs(loop))
    assert ode_c1.evaluate_g(3, x).shape == (301,)
    assert ode_c1.evaluate_g([3], x).shape == (1, 301)


def test_evaluate_g_endpoint_limit_at_large_c():
    # at c >= 3.55, 1 - Y(-1)^2 rounds to ~1e-26 instead of 0 while p(-1) = 0
    ode = galerkin_eigensystem(4.0, m_max=8)
    for m in range(9):
        lo, hi = ode.evaluate_g(m, np.array([-1.0, 1.0]))
        assert np.isfinite(lo) and np.isfinite(hi)
        assert lo == pytest.approx((-1) ** m * hi, rel=1e-8)


def test_parity_alternation(ode_c1):
    x = np.linspace(-0.95, 0.95, 40)
    for m in range(13):
        v = ode_c1.evaluate_g(m, x)
        sign = (-1) ** m
        assert np.max(np.abs(v - sign * v[::-1])) < 1e-7 * max(1, np.max(np.abs(v)))


@pytest.mark.parametrize("m_max", [12, 30])
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0, 16.0, 64.0])
def test_g_orthonormal(c, m_max):
    """The unit coefficient columns give orthonormal g_m through the
    unitary Liouville map, with no renormalisation on any grid, and their
    signs give g_m(1) > 0."""
    ode = galerkin_eigensystem(c, m_max=m_max)
    ms = np.arange(m_max + 1)
    g = gauss_legendre(400)
    rows = ode.evaluate_g(ms, g.nodes)
    gram = (rows * g.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(m_max + 1))) < 1e-12
    assert np.all(ode.evaluate_g(ms, 1.0) > 0)


def test_commutation_residual(ode_c1, sample_g):
    for m in range(9):
        r = commutation_residual(1.0, sample_g(ode_c1, m),
                                 float(ode_c1.chi[m]))
        assert r < 1e-6, f"m={m}: {r:.2e}"


def test_commutation_negative_control(ode_c1):
    g = gauss_legendre(200)
    flat = SampledFunction(g, legendre_table(0, g.nodes)[0])
    r = commutation_residual(1.0, flat, float(ode_c1.chi[0]))
    assert r > 1e-2


def test_commutation_sign_invariance(ode_c1, sample_g):
    g = sample_g(ode_c1, 3)
    flipped = SampledFunction(g.grid, -g.values)
    r1 = commutation_residual(1.0, g, float(ode_c1.chi[3]))
    r2 = commutation_residual(1.0, flipped, float(ode_c1.chi[3]))
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_basis_size_precondition():
    with pytest.raises(ValueError):
        galerkin_eigensystem(1.0, n_b=40, m_max=20)
