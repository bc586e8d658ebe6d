import math

import numpy as np
import pytest

from sechprolate import bounds
from sechprolate.commuting_ode import build_transform, galerkin_eigensystem
from sechprolate.pswf import pswf_basis
from sechprolate.sech_operator import (SampledFunction, kernel,
                                       nystrom_eigensystem, rho_rayleigh)
from sechprolate.special_functions import gauss_legendre


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda c: kernel(c, 0.0, 0.5),
    lambda c: nystrom_eigensystem(c, m_max=2),
    lambda c: rho_rayleigh(c, SampledFunction(gauss_legendre(8),
                                              np.full(8, 0.5))),
    build_transform,
    lambda c: galerkin_eigensystem(c, m_max=2),
    bounds.beta,
    bounds.theta,
    bounds.theta_tilde,
    lambda c: bounds.lower_bound_all_c(c, 1),
    bounds.widom_slope,
    lambda c: pswf_basis(c, m_max=2),
    lambda c: bounds.build_report(c, m_max=2),
], ids=["kernel", "nystrom_eigensystem", "rho_rayleigh", "build_transform",
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


def test_c0_recompute():
    c0 = bounds.recompute_c0()
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


def test_widom_slope_ordering():
    s2 = bounds.widom_slope(2.0)
    s4 = bounds.widom_slope(4.0)
    s8 = bounds.widom_slope(8.0)
    assert 0 < s8 < s4 < s2


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
        tr = build_transform(c)
        lo0, hi0 = bounds.chi_sandwich(c, 0)
        lo5, hi5 = bounds.chi_sandwich(c, 5)
        width = (math.pi / tr.U) ** 2 * bounds.R_of_c(c)
        assert hi0 - lo0 == pytest.approx(width, rel=1e-12)
        assert hi5 - lo5 == pytest.approx(width, rel=1e-12)
        assert lo5 > lo0


def test_U_bracket():
    for c in [0.1, 1.0, 5.0]:
        tr = build_transform(c)
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
