"""Differential operator commuting with the sech-kernel integral operator.

The kernel pi*c*sech(pi*c*(x-y)/2) has exponential scale beta = pi*c/2, and
the Sturm-Liouville family below is parametrized by that scale: every
coefficient formula uses t = pi*c/2, never the bandwidth c itself. With
p(x) = cosh(4t) - cosh(4tx) and q(x) = 3t^2 cosh(4tx), the operator
L g = -(p g')' + q g commutes with the integral operator, so both have the
same eigenvectors g_m.

The eigenproblem is solved in x itself, in the normalized Legendre basis
(Xiao, Rokhlin & Yarvin 2001; Osipov, Rokhlin & Xiao 2013). Divided by
cosh 4t, the coefficients
    p~ = expm1(-4t(1+x)) expm1(-4t(1-x)) / (1 + e^{-8t}),
    q~ = 3t^2 (e^{-4t(1-x)} + e^{-4t(1+x)}) / (1 + e^{-8t})
are bounded for every t, and the basis is orthonormal, so the weak form
A_jk = int p~ P_j' P_k' + q~ P_j P_k is a plain symmetric eigenproblem.
Its coefficient column m is g_m as a Legendre series: g_m has the unit
norm of its column, and g_m(1) = sum_k W_km sqrt(k + 1/2) > 0 by the sign
convention, so the coefficients alone describe g_m.

The kernel is even, so g_m has parity (-1)^m, and the code makes that
exact: the matrix couples only Legendre indices of equal parity and is
solved as an even and an odd block, each coefficient column is exactly 0
off its parity, and evaluate_g sums the series at |x| and applies the sign
(-1)^m at x < 0.

The Liouville change of variables y = Y(x) serves the closed-form bounds
only: it turns L into -((1-y^2) G')' + q^c(y) G with a bounded potential
q^c, whose width gives the chi enclosure. s(x) = int_x^1 p^{-1/2} is an
incomplete elliptic integral of modulus tanh 2t, and U = 2 s(0) the
complete one; both come in closed form from Carlson's R_F.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import (carlson_rf, legendre_derivative_table,
                                legendre_table, panel_grid)
from .sech_operator import check_c

__all__ = [
    "LiouvilleTransform",
    "OdeSpectrum",
    "q_c_potential",
    "galerkin_eigensystem",
    "galerkin_basis_size",
    "family_parameter",
]


def family_parameter(c: float) -> float:
    """Exponential scale of the kernel sech(pi*c*(x-y)/2): t = pi*c/2."""
    return math.pi * c / 2.0


def _interval_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):     # written so that nan fails too
        raise ValueError("points must lie in [-1, 1]")
    return x


def _check_range(t: float):
    # cosh 4t, the scale of chi, and the map's normalizer leave the float
    # range a little above 4t = 700
    if 4 * t > 700:
        raise ValueError("parameter too large for the transform normalizer")


@dataclass
class LiouvilleTransform:
    """Change of variables y = Y(x) flattening the commuting operator, as
    far as the bounds use it: t, U = 2 s(0) and s of points x.

    s(x) = int_x^1 p^{-1/2}, X(x) = pi*(1/2 - s(x)/U) and Y = sin(X); s of a
    scalar gives a float.

    With w = tanh 2tx and T = tanh 2t, p = 2 cosh^2 2t cosh^2 2tx (T^2 - w^2),
    and the substitution w turns s into an incomplete elliptic integral of
    modulus T; in Carlson's form, for 0 <= x <= 1,
        s(x) = sqrt(p) R_F(w^2, T^2, (sinh 2t / cosh 2tx)^2)
               / (4t cosh 2t cosh 2tx),
    and s(-x) = U - s(x) covers x < 0. p comes from h = 1 - x, and T - w is
    never formed, so s keeps its relative accuracy up to x = 1.
    """
    c: float
    t: float = field(init=False)
    U: float = field(init=False)

    def __post_init__(self):
        check_c(self.c)
        self.t = family_parameter(self.c)
        _check_range(self.t)
        self.U = 2.0 * self.s(0.0)

    def _p(self, h):
        # p at x = 1 - h, formed from h itself so that p ~ 4t sinh(4t) h
        # keeps its relative accuracy at the endpoint
        return 2.0 * np.sinh(2 * self.t * (2 - h)) * np.sinh(2 * self.t * h)

    def s(self, x):
        """int_x^1 p(xi)^{-1/2} d xi for x in [-1,1], decreasing from U to 0."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        t2 = 2 * self.t
        w, ch = np.tanh(t2 * ax), np.cosh(t2 * ax)
        v = np.sqrt(self._p(1.0 - ax)) * carlson_rf(
            w * w, math.tanh(t2) ** 2, (math.sinh(t2) / ch) ** 2) \
            / (2 * t2 * math.cosh(t2) * ch)
        if np.any(x < 0):
            v = np.where(x < 0, self.U - v, v)
        return float(v) if v.ndim == 0 else v


def q_c_potential(transform: LiouvilleTransform, x):
    """Bounded potential of the flattened operator at y = Y(x), for points x
    in [-1,1] (an array, or a scalar giving a float); it is even in x.

    The naive formula 1/2 + tan(X)^2/4 - (Ut/pi)^2(cosh 4tx + sinh^2 4tx / p)
    has two poles at the endpoints that cancel; it is formed from one
    h = 1-|x| and one S = s(|x|) so that they cancel consistently. Within
    h < 1e-7 the combined expansion in h, with arccos|y| = pi S/U, is used
    instead, and only there: for h near 1 it overflows at large c. Its
    h = 0 value is the exact limit at x = +-1.
    """
    t, U = transform.t, transform.U
    scalar = np.ndim(x) == 0
    x = np.abs(np.atleast_1d(_interval_points(x)))
    h = 1.0 - x
    S = transform.s(x)
    w2 = (U * t / math.pi) ** 2
    # sinh^2 4tx would overflow for c > 56, and sinh 4tx sinh 4tx / p near
    # c = 111; scaled by Ut/pi, each factor is far from either limit
    wsh = U * t / math.pi * np.sinh(4 * t * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 0.5 + np.tan(math.pi * (0.5 - S / U)) ** 2 / 4 \
            - w2 * np.cosh(4 * t * x) - wsh * (wsh / transform._p(h))
    near = h < 1e-7
    if np.any(near):
        a4 = 4.0 * t
        coth = math.cosh(a4) / math.sinh(a4)
        # w2 sinh(4t) is of order one where sinh(4t) alone is near overflow
        E = w2 * math.sinh(a4) / (4 * t) * (
            (4 * a4 / 3) * coth
            - ((4 / 15) * a4 ** 2 * coth ** 2 + (4 / 5) * a4 ** 2) * h[near])
        q[near] = 1 / 3 + (math.pi * S[near] / U) ** 2 / 60 + E \
            - w2 * np.cosh(4 * t * x[near])
    return float(q[0]) if scalar else q


@dataclass
class OdeSpectrum:
    """Galerkin eigensystem of the commuting operator. Column m of
    coefficients is g_m in the normalized Legendre basis of x, unit in l2
    and signed so that g_m(1) > 0; g_m is evaluated from it alone."""
    c: float
    n_b: int
    chi: np.ndarray                  # increasing, chi_0 .. chi_m_max
    coefficients: np.ndarray         # (n_b, n_b), column m = g_m in P-bar basis

    def evaluate_g(self, m, x) -> np.ndarray:
        """Eigenfunction g_m(x) = sum_k W_km P-bar_k(x) at points x in
        [-1,1]: unit L2 norm, g_m(1) > 0.

        The series is summed at |x|, and the value at x < 0 is (-1)^m times
        the value at -x, so g_m(-x) = (-1)^m g_m(x) holds bit for bit at any
        points. An int m gives the values of shape (len(x),); an array of
        indices gives one row per index, shape (len(m), len(x)), from one
        Legendre table and one matrix product.
        """
        x = np.atleast_1d(_interval_points(x))
        G = self.coefficients[:, m].T @ legendre_table(self.n_b - 1, np.abs(x))
        flip = (np.asarray(m) % 2 == 1)[..., None] & (x < 0)
        return np.where(flip, -G, G)


def galerkin_basis_size(m_max: int, n_b: int = None) -> int:
    """Legendre basis size of the Galerkin eigensolvers for indices
    0..m_max: n_b if given, else max(140, 2 (m_max+1) + 30); at least
    2 (m_max+1) + 10 is required."""
    if n_b is None:
        n_b = max(140, 2 * (m_max + 1) + 30)
    if n_b < 2 * (m_max + 1) + 10:
        raise ValueError("basis too small for the requested number of eigenpairs")
    return n_b


def galerkin_eigensystem(c: float, n_b: int = None, m_max: int = 20) -> OdeSpectrum:
    """Legendre-Galerkin eigensolve of the commuting operator in x, in two
    blocks of one parity each.

    A_jk = int p~ P_j' P_k' + q~ P_j P_k, with the bounded coefficients of
    the module docstring, is integrated by Gauss with n_b + 24 nodes on
    each panel of [0, 1 - 30/(4t), 1], the first panel dropped when
    4t <= 30. p~ and q~ are even and P-bar_k(-x) = (-1)^k P-bar_k(x), so
    the integrand of A is even, the rule covers x >= 0 and is doubled, and
    A splits into an even and an odd block whose spectra are merged by
    eigenvalue. Each coefficient column is then exactly 0 off its parity,
    and the merged indices must alternate in parity up to m_max, as the
    Sturm-Liouville oscillation count demands (ValueError otherwise). chi
    is cosh(4t) times the matrix eigenvalues. m_max sizes the default
    basis and must stay clear of the truncation-polluted top of the
    spectrum. c is refused above 4t = 700, where cosh 4t nears the float
    range.
    """
    check_c(c)
    t = family_parameter(c)
    _check_range(t)
    n_b = galerkin_basis_size(m_max, n_b)
    # the second panel holds the endpoint layer of width 1/(4t), beyond
    # which q~ has fallen by e^-30; no panel has fewer than n_b nodes,
    # because the polynomial part of the integrand has degree 2 n_b
    rule = panel_grid([0.0, 1.0] if 4 * t <= 30 else
                      [0.0, 1.0 - 30 / (4 * t), 1.0], n_b + 24)
    x = rule.nodes
    # the weights carry the doubling for x < 0 and the 1/(1 + e^-8t) of
    # both coefficients; p~ is a product of expm1, never 1 - E, which would
    # cancel at small t
    w = 2 * rule.weights / (1 + math.exp(-8 * t))
    pw = np.expm1(-4 * t * (1 + x)) * np.expm1(-4 * t * (1 - x)) * w
    qw = 3 * t * t * (np.exp(-4 * t * (1 - x)) + np.exp(-4 * t * (1 + x))) * w
    P = legendre_table(n_b - 1, x)
    D = legendre_derivative_table(P)
    blocks = []
    for p in (0, 1):
        try:
            blocks.append(np.linalg.eigh(
                (D[p::2] * pw) @ D[p::2].T + (P[p::2] * qw) @ P[p::2].T))
        except np.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(
                f"Galerkin eigendecomposition failed for c={c}, n_b={n_b}: {e}") from e
    (mu_even, V_even), (mu_odd, V_odd) = blocks
    n_even = mu_even.size
    W = np.zeros((n_b, n_b))
    W[0::2, :n_even] = V_even
    W[1::2, n_even:] = V_odd
    mu = np.concatenate([mu_even, mu_odd])
    order = np.argsort(mu, kind="stable")
    mu, W = mu[order], W[:, order]
    # column m comes from the odd block where order[m] >= n_even
    if np.any((order[: m_max + 1] >= n_even) != np.arange(m_max + 1) % 2):
        raise ValueError("Galerkin eigenvalues do not alternate in parity "
                         f"up to m_max = {m_max} at c = {c}")
    if mu[m_max] > 0.99 * mu[n_b - 5]:
        raise ValueError("basis too small: requested eigenvalues reach the "
                         "truncation-polluted top of the spectrum")
    # only the requested eigenvalues: the truncation-polluted top of mu
    # overflows when scaled at the top of the supported range
    chi = math.cosh(4 * t) * mu[: m_max + 1]
    # sign convention g_m(1) = sum_k W_km sqrt(k + 1/2) > 0
    W *= np.where(np.sqrt(np.arange(n_b) + 0.5) @ W < 0, -1.0, 1.0)
    return OdeSpectrum(c=c, n_b=n_b, chi=chi, coefficients=W)
