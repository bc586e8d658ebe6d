"""Closed-form eigenvalue bounds and constants, plus a verification report.

Everything here is a pure formula evaluator; the report builder at the
bottom pulls computed spectra from the operator modules and lays the
formulas next to them. Two groups of formulas with different parameter
conventions live here: the eigenvalue bounds (beta, theta, the explicit
lower/upper bounds, Widom's slope) take the bandwidth c directly, while the
Sturm-Liouville constants (R, H, the chi sandwich, the U bracket) are
functions of the kernel's exponential scale t = pi*c/2, consistent with
commuting_ode.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import carlson_rf
from .commuting_ode import LiouvilleTransform, family_parameter
from .sech_operator import check_c, rayleigh_trust_floor
from .svd_assembly import commuting_eigenpairs

__all__ = [
    "C0",
    "beta",
    "theta",
    "theta_tilde",
    "lower_bound_small_c",
    "lower_bound_all_c",
    "lower_combined",
    "upper_bound",
    "widom_slope",
    "decay_exponents",
    "fit_log_slope",
    "R_of_c",
    "H_of_c",
    "supnorm_bound",
    "chi_sandwich",
    "U_bounds",
    "BoundsReport",
    "build_report",
]

# crossing point of the two lower-bound exponents
C0 = 0.12059


def beta(c: float) -> float:
    """Exponent of the combined eigenvalue lower bound rho_m >= theta e^{-2 beta m}."""
    check_c(c)
    if c <= C0:
        return math.log(7 * math.e ** 2 * math.pi / (2 * c))
    return math.pi / (4 * c)


def theta(c: float) -> float:
    check_c(c)
    if c <= C0:
        return 2 * math.sin(2 * c) ** 2 / (math.e ** 2 * c)
    return math.pi * math.exp(-math.pi / (2 * c))


def theta_tilde(c: float) -> float:
    """Monotone-in-c variant of theta; same exponent beta applies."""
    check_c(c)
    if c <= C0:
        return 2 * math.sin(2 * C0) ** 2 * c / (math.e * C0) ** 2
    return math.pi * math.exp(-math.pi / (2 * c))


def lower_bound_small_c(c: float, m: int) -> float:
    """Lower bound 2 sin(2c)^2/(e^2 c) * exp(-2 log(7 e^2 pi/(2c)) m), c <= pi/4."""
    if not 0 < c <= math.pi / 4:
        raise ValueError("this lower bound requires 0 < c <= pi/4")
    return 2 * math.sin(2 * c) ** 2 / (math.e ** 2 * c) \
        * math.exp(-2 * math.log(7 * math.e ** 2 * math.pi / (2 * c)) * m)


def lower_bound_all_c(c: float, m: int) -> float:
    """Lower bound pi * exp(-pi (m+1)/(2c)), valid for every c > 0."""
    check_c(c)
    return math.pi * math.exp(-math.pi * (m + 1) / (2 * c))


def lower_combined(c: float, m: int) -> float:
    return theta_tilde(c) * math.exp(-2 * beta(c) * m)


def upper_bound(c: float, m: int) -> float:
    """Upper bound 2 sqrt(pi) c^{2m+1} / (sqrt(m+3/4) (1-c^2)), only for c < 1."""
    if not 0 < c < 1:
        raise ValueError("this upper bound requires 0 < c < 1")
    return 2 * math.sqrt(math.pi) * c ** (2 * m + 1) \
        / (math.sqrt(m + 0.75) * (1 - c * c))


def widom_slope(c: float) -> float:
    """Asymptotic decay rate: -log(rho_m) ~ slope * m with
    slope = pi K(sech(pi c)) / K(tanh(pi c)).

    sech(pi c) and tanh(pi c) are each other's complementary modulus k',
    and one duplication step turns K(k) = R_F(0, k'^2, 1) into
    2 R_F(k', k'(1 + k'), 1 + k'). So no complement is formed as
    sqrt(1 - k^2), and sech(pi c)^2, which leaves the float range above
    c ~ 113, is never formed.
    """
    check_c(c)
    th, sh = math.tanh(math.pi * c), 1 / math.cosh(math.pi * c)
    return float(math.pi * carlson_rf(th, th * (1 + th), 1 + th)
                 / carlson_rf(sh, sh * (1 + sh), 1 + sh))


def decay_exponents(c: float):
    """(2 beta(c), 2 log(1/c)): the lower and upper eigenvalue bounds'
    exponents; the upper is None for c >= 1, where its bound fails."""
    return 2 * beta(c), 2 * math.log(1 / c) if c < 1 else None


def fit_log_slope(ms, rhos) -> float:
    """Least-squares slope of -log(rho_m) against m."""
    return float(np.polyfit(ms, -np.log(rhos), 1)[0])


def R_of_c(c: float) -> float:
    """Oscillation constant of the flattened potential, at scale t = pi*c/2."""
    tr = LiouvilleTransform(c)
    t, U = tr.t, tr.U
    return 2 / math.pi ** 2 + (U * t / math.pi) ** 2 * (
        (math.cosh(4 * t) * (1 + (t / 3) / math.tanh(2 * t)) - 1)
        + 2 * t * math.sinh(4 * t))


def H_of_c(c: float) -> float:
    """Sup-norm constant: |g_m| <= H(c) sqrt(m+1/2), at scale t = pi*c/2."""
    t = family_parameter(c)
    return math.pi * math.sqrt(1 + 4 * t ** 2 / 3) * (
        1 + 2 * math.sqrt(2) * (2 + 1 / math.sqrt(3)) * (
            2 / math.pi ** 2 + (8 / 3) * (1 + 2 * t) * (t ** 2 + 9 * t / 8 + 0.5)))


def supnorm_bound(c: float, m: int) -> float:
    return H_of_c(c) * math.sqrt(m + 0.5)


def chi_sandwich(c: float, m):
    """Two-sided enclosure claimed for the m-th commuting-operator
    eigenvalue; m is an index or an array of indices."""
    tr = LiouvilleTransform(c)
    R = R_of_c(c)
    base = m * (m + 1) + 0.5
    # above c ~ 110.5 the lower edge is below -1.8e308 and reads -inf, as
    # the scalar formula gives it; the array form would warn of it too
    with np.errstate(over="ignore"):
        lo = (math.pi / tr.U) ** 2 * (base - R) - tr.t * tr.t
    hi = (math.pi / tr.U) ** 2 * base - tr.t * tr.t
    return lo, hi


def U_bounds(c: float):
    """Bracket sqrt(2) e^{2t}/sinh(4t) < U < pi sqrt(2) e^{2t}/sinh(4t)."""
    t = family_parameter(c)
    lo = math.sqrt(2) * math.exp(2 * t) / math.sinh(4 * t)
    return lo, math.pi * lo


@dataclass
class BoundsReport:
    c: float
    m_max: int
    rows: list                      # one dict per m
    widom_slope: float
    slope_fit: float | None         # None when fewer than 2 trusted rows are fitted


ROW_FIELDS = ["m", "lower_small_c", "lower_all_c", "lower_combined",
              "rho_computed", "upper", "chi_lo", "chi_hi", "chi_computed",
              "supnorm_bound", "supnorm_observed"]


def build_report(c: float, m_max: int = 12) -> BoundsReport:
    """Tabulate the commuting-operator spectrum (commuting_eigenpairs)
    against every closed-form bound that applies at this c. slope_fit is
    the line fit of -log rho_m over the trusted rows (rho above
    rayleigh_trust_floor(c)) from m = min(6, m_max - 4) on."""
    ode, _, rhos = commuting_eigenpairs(c, m_max)
    # |g_m| is even, so the half [0, 1] holds the sup
    fine = np.linspace(0.0, 1.0, 1001)
    sup = np.max(np.abs(ode.evaluate_g(np.arange(m_max + 1), fine)), axis=1)
    chi_lo, chi_hi = chi_sandwich(c, np.arange(m_max + 1))
    rows = []
    for m in range(m_max + 1):
        rows.append({
            "m": m,
            "lower_small_c": lower_bound_small_c(c, m) if c <= math.pi / 4 else None,
            "lower_all_c": lower_bound_all_c(c, m),
            "lower_combined": lower_combined(c, m),
            "rho_computed": float(rhos[m]),
            "upper": upper_bound(c, m) if c < 1 else None,
            "chi_lo": float(chi_lo[m]),
            "chi_hi": float(chi_hi[m]),
            "chi_computed": float(ode.chi[m]),
            "supnorm_bound": supnorm_bound(c, m),
            "supnorm_observed": float(sup[m]),
        })
    # the fit runs from m = min(6, m_max - 4) over the trusted rows only:
    # below the trust floor rho is Rayleigh roundoff, not the decay
    ms = np.arange(min(6, max(0, m_max - 4)), m_max + 1)
    ms = ms[rhos[ms] > rayleigh_trust_floor(c)]
    fit = fit_log_slope(ms, rhos[ms]) if len(ms) >= 2 else None
    return BoundsReport(c=c, m_max=m_max, rows=rows,
                        widom_slope=widom_slope(c), slope_fit=fit)

