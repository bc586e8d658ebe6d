import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ellipkm1

from sechprolate import bounds
from sechprolate.commuting_ode import LiouvilleTransform, galerkin_eigensystem
from sechprolate.sech_operator import (SampledFunction, kernel,
                                       nystrom_eigensystem, rho_rayleigh)
from sechprolate.special_functions import gauss_legendre
from sechprolate.svd_assembly import commuting_eigenpairs

from oracles.pswf import pswf_basis


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda c: kernel(c, 0.0, 0.5),
    lambda c: nystrom_eigensystem(c, m_max=2),
    lambda c: rho_rayleigh(c, SampledFunction(gauss_legendre(8),
                                              np.full(8, 0.5))),
    LiouvilleTransform,
    lambda c: galerkin_eigensystem(c, m_max=2),
    bounds.beta,
    bounds.theta,
    bounds.theta_tilde,
    lambda c: bounds.lower_bound_all_c(c, 1),
    bounds.widom_slope,
    lambda c: pswf_basis(c, m_max=2),
    lambda c: bounds.build_report(c, m_max=2),
], ids=["kernel", "nystrom_eigensystem", "rho_rayleigh", "LiouvilleTransform",
        "galerkin_eigensystem", "beta", "theta", "theta_tilde",
        "lower_bound_all_c", "widom_slope", "pswf_basis", "build_report"])
def test_bare_c_entry_points_reject_nonfinite_c(entry, bad):
    """nan passes a c <= 0 check and inf a c > 0 one; both are refused
    up front instead of giving nan results or an ArithmeticError."""
    with pytest.raises(ValueError, match="positive and finite"):
        entry(bad)


def test_beta_at_one():
    assert bounds.beta(1.0) == pytest.approx(math.pi / 4, rel=1e-15)


def test_theta_at_one():
    assert bounds.theta(1.0) == pytest.approx(math.pi * math.exp(-math.pi / 2),
                                              rel=1e-15)


def recompute_c0(tol: float = 1e-10) -> float:
    """Root of log(7 e^2 pi / (2c)) = pi/(4c) by bisection.

    Guards against transcription drift in the stored constant C0.
    """
    def h(c):
        return math.log(7 * math.e ** 2 * math.pi / (2 * c)) - math.pi / (4 * c)

    lo, hi = 0.01, 1.0
    if h(lo) >= 0 or h(hi) <= 0:
        raise ValueError("bisection bracket invalid")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_c0_recompute():
    c0 = recompute_c0()
    assert abs(c0 - bounds.C0) < 5e-5


def test_beta_continuous_at_crossover():
    eps = 1e-6
    left = bounds.beta(bounds.C0 - eps)
    right = bounds.beta(bounds.C0 + eps)
    assert abs(left - right) < 1e-3


def test_lower_all_c_closed_form():
    # at c = pi/2 the sin factor is 1 and the m=0 bound collapses to pi/e
    assert bounds.lower_bound_all_c(math.pi / 2, 0) == pytest.approx(
        math.pi * math.exp(-1), rel=1e-14)


def test_lower_small_c_closed_form():
    for c in [0.1, 0.3, 0.7]:
        ref = 2 * math.sin(2 * c) ** 2 / (math.e ** 2 * c)
        assert bounds.lower_bound_small_c(c, 0) == pytest.approx(ref,
                                                                 rel=1e-13)


def test_lower_small_c_domain():
    with pytest.raises(ValueError):
        bounds.lower_bound_small_c(math.pi / 4 + 0.01, 0)


def test_lower_bounds_hold():
    for c in [0.5, 1.0]:
        ny = nystrom_eigensystem(c, m_max=8)
        for m in range(9):
            if not ny.trusted[m]:
                break
            lo = bounds.lower_bound_all_c(c, m)
            if c <= math.pi / 4:
                lo = max(lo, bounds.lower_bound_small_c(c, m))
            assert ny.eigenvalues[m] >= lo * (1 - 1e-8), f"c={c} m={m}"


def test_upper_bound_value():
    # frozen from the closed form 2*sqrt(pi)*c^(2m+1)/(sqrt(m+3/4)*(1-c^2))
    assert bounds.upper_bound(0.5, 0) == pytest.approx(2.728871221190636,
                                                       rel=1e-12)
    ref = 2 * math.sqrt(math.pi) * 0.5 / (math.sqrt(0.75) * 0.75)
    assert bounds.upper_bound(0.5, 0) == pytest.approx(ref, rel=1e-14)


def test_upper_bound_decreasing_in_m():
    vals = [bounds.upper_bound(0.5, m) for m in range(10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_upper_bound_domain():
    with pytest.raises(ValueError):
        bounds.upper_bound(1.0, 0)
    with pytest.raises(ValueError):
        bounds.upper_bound(1.5, 2)


def test_upper_bound_holds_moderate_c():
    """The closed-form cap is honest for c in the 0.6..0.9 range; the small-c
    violations are exercised by the acceptance battery."""
    for c in [0.6, 0.9]:
        ny = nystrom_eigensystem(c, m_max=10)
        for m in range(11):
            if not ny.trusted[m]:
                break
            assert ny.eigenvalues[m] <= bounds.upper_bound(c, m) * (1 + 1e-8)


def _det(rows):
    """Exact determinant of a square matrix of Fractions, by elimination."""
    M = [list(r) for r in rows]
    d = Fraction(1)
    for i in range(len(M)):
        p = next(r for r in range(i, len(M)) if M[r][i] != 0)
        if p != i:
            M[i], M[p], d = M[p], M[i], -d
        d *= M[i][i]
        for r in range(i + 1, len(M)):
            f = M[r][i] / M[i][i]
            M[r] = [a - f * b for a, b in zip(M[r], M[i])]
    return d


def small_c_constants(m_top):
    """A_m / pi^(2m+1), m = 0..m_top, as exact Fractions.

    With eps = pi c / 2 the kernel is pi c sech(eps (x - y)) =
    pi c sum_{j,k} eps^j x^j C_jk eps^k y^k, where C_jk =
    a_{j+k} binom(j+k, j) (-1)^k and a_n = E_n / n! are the Taylor
    coefficients of sech (Euler numbers E_n). On L2(-1, 1) its nonzero
    eigenvalues are those of pi c D C D G, with D = diag(eps^j) and G the
    Gram matrix of the monomials. As eps -> 0 the m-th one is
    pi c eps^(2m) (det C_{m+1} / det C_m) (det G_{m+1} / det G_m), to
    relative O(eps^2): the flat limit of Driscoll & Fornberg (2002) and
    Schaback (2005). det G_{m+1} / det G_m is the squared norm of the monic
    Legendre polynomial of degree m."""
    euler = [Fraction(1)]                  # E_0, E_2, E_4, ...
    for n in range(1, m_top + 1):
        euler.append(-sum(math.comb(2 * n, 2 * k) * euler[k] for k in range(n)))
    a = [euler[n // 2] / math.factorial(n) if n % 2 == 0 else Fraction(0)
         for n in range(2 * m_top + 1)]

    def minors(entry, size):
        return _det([[entry(j, k) for k in range(size)] for j in range(size)])

    def C(j, k):
        return a[j + k] * math.comb(j + k, j) * (-1) ** k

    def G(j, k):
        return Fraction(2, j + k + 1) if (j + k) % 2 == 0 else Fraction(0)

    return [Fraction(1, 4 ** m) * minors(C, m + 1) / minors(C, m)
            * minors(G, m + 1) / minors(G, m) for m in range(m_top + 1)]


def test_small_c_limit_of_every_eigenvalue():
    """rho_m = A_m c^(2m+1) (1 + O(c^2)) for m <= 4, at c = 0.01 and 0.02.
    For the sech kernel det C_{m+1} / det C_m = 1, so
    A_m = 2 pi^(2m+1) (m!)^4 / ((2m+1) ((2m)!)^2): 2 pi, pi^3/6, pi^5/90,
    pi^7/1400, pi^9/22050. The upper bound's constant 2 sqrt(pi) / sqrt(m+3/4)
    lies below A_m for exactly m = 0..3, so as c -> 0 upper_bound fails for
    those m whatever the solver: criterion 2's standing deviation."""
    m = np.arange(5)
    exact = small_c_constants(4)
    assert exact == [Fraction(2 * math.factorial(k) ** 4,
                              (2 * k + 1) * math.factorial(2 * k) ** 2)
                     for k in range(5)]
    A = np.array([float(q) for q in exact]) * math.pi ** (2 * m + 1)
    gap = [commuting_eigenpairs(c, 4)[2] / (A * c ** (2 * m + 1)) - 1
           for c in (0.01, 0.02)]
    assert np.all(np.abs(gap[0]) < 1e-3), gap[0]
    assert np.all(np.abs(gap[1] / gap[0] - 4.0) < 0.05), gap[1] / gap[0]
    upper = np.array([bounds.upper_bound(0.01, k) / 0.01 ** (2 * k + 1)
                      for k in range(5)])
    assert list(A > upper) == [True] * 4 + [False]


def test_widom_slope_ordering():
    s2 = bounds.widom_slope(2.0)
    s4 = bounds.widom_slope(4.0)
    s8 = bounds.widom_slope(8.0)
    assert 0 < s8 < s4 < s2


@pytest.mark.parametrize("c", [1e-4, 1e-3, 0.01, 0.1, 1.0, 3.0])
def test_widom_slope_matches_scipy(c):
    """pi K(sech pi c) / K(tanh pi c) against scipy's ellipkm1, which takes
    the complementary parameter 1 - k^2 and so never forms it by
    cancellation; sqrt(1 - k^2) for the complement of sech(pi c) put the
    slope off by 9e-11 at c = 1e-4."""
    sech, tanh = 1 / math.cosh(math.pi * c), math.tanh(math.pi * c)
    ref = math.pi * ellipkm1(tanh ** 2) / ellipkm1(sech ** 2)
    assert bounds.widom_slope(c) == pytest.approx(ref, rel=1e-14, abs=0)


def test_widom_slope_matches_fit():
    rep = bounds.build_report(1.0, m_max=12)
    target = bounds.widom_slope(1.0)
    assert rep.slope_fit == pytest.approx(1.2838537364001916, rel=1e-10)
    assert abs(rep.slope_fit - target) / target < 0.05


def test_fit_log_slope_exact_on_synthetic():
    ms = np.arange(4, 13)
    slope = 0.7312
    rhos = 5.0 * np.exp(-slope * ms)
    assert bounds.fit_log_slope(ms, rhos) == pytest.approx(slope, rel=1e-12)


def test_chi_sandwich_width():
    for c in [0.5, 1.0, 2.0]:
        tr = LiouvilleTransform(c)
        lo0, hi0 = bounds.chi_sandwich(c, 0)
        lo5, hi5 = bounds.chi_sandwich(c, 5)
        width = (math.pi / tr.U) ** 2 * bounds.R_of_c(c)
        assert hi0 - lo0 == pytest.approx(width, rel=1e-12)
        assert hi5 - lo5 == pytest.approx(width, rel=1e-12)
        assert lo5 > lo0


def test_U_bracket():
    for c in [0.1, 1.0, 5.0]:
        tr = LiouvilleTransform(c)
        lo, hi = bounds.U_bounds(c)
        assert lo <= tr.U <= hi


def test_supnorm_bound_observed():
    rep = bounds.build_report(1.0, m_max=20)
    for row in rep.rows:
        assert row["supnorm_observed"] <= row["supnorm_bound"] * (1 + 1e-10)


def test_report_row_shape():
    rep = bounds.build_report(0.9, m_max=6)
    assert len(rep.rows) == 7
    for row in rep.rows:
        assert set(row) == set(bounds.ROW_FIELDS)
        assert row["lower_small_c"] is None          # 0.9 > pi/4
        assert row["upper"] is not None              # 0.9 < 1
    rep2 = bounds.build_report(2.0, m_max=3)
    for row in rep2.rows:
        assert row["upper"] is None
        assert row["lower_small_c"] is None


def test_report_small_c_rows():
    rep = bounds.build_report(0.2, m_max=3)
    for m, row in enumerate(rep.rows):
        assert row["lower_small_c"] == bounds.lower_bound_small_c(0.2, m)
        assert row["lower_combined"] == bounds.lower_combined(0.2, m)
        assert row["lower_combined"] > 0
