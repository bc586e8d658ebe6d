"""Differential operator commuting with the sech-kernel integral operator.

The kernel pi*c*sech(pi*c*(x-y)/2) has exponential scale beta = pi*c/2, and
the Sturm-Liouville family below is parametrized by that scale: every
coefficient formula uses t = pi*c/2, never the bandwidth c itself. With
p(x) = cosh(4t) - cosh(4tx) and q(x) = 3t^2 cosh(4tx), the operator
L g = -(p g')' + q g commutes with the integral operator, so both share
eigenfunctions. A Liouville change of variables y = Y(x) turns L into
-((1-y^2) G')' + q^c(y) G with a BOUNDED potential q^c, which makes a
Legendre-Galerkin discretization spectrally accurate even for high indices
where the integral operator's eigenvalues are far below machine precision.
"""
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .special_functions import (
    QuadratureGrid,
    agm,
    gauss_legendre,
    legendre_derivative_table,
    legendre_table,
)
from .sech_operator import SampledFunction

__all__ = [
    "LiouvilleTransform",
    "OdeSpectrum",
    "case1_coefficients",
    "build_transform",
    "q_c_potential",
    "galerkin_eigensystem",
    "galerkin_basis_size",
    "weak_form_chi",
    "commutation_residual",
    "family_parameter",
]


def family_parameter(c: float) -> float:
    """Exponential scale of the kernel sech(pi*c*(x-y)/2): t = pi*c/2."""
    return math.pi * c / 2.0


def case1_coefficients(c: float, x):
    """Sturm-Liouville coefficients p, q of the commuting operator.

    p(x) = cosh(4t) - cosh(4tx) evaluated as 2*sinh(2t(1+x))*sinh(2t(1-x))
    so the endpoint zeros do not cancel, q(x) = 3t^2 cosh(4tx), t = pi*c/2.
    """
    t = family_parameter(c)
    x = np.asarray(x, dtype=float)
    p = 2.0 * np.sinh(2 * t * (1 + x)) * np.sinh(2 * t * (1 - x))
    q = 3.0 * t * t * np.cosh(4 * t * x)
    return p, q


def _u_closed_form(t: float) -> float:
    # U = K(tanh 2t) / (t sqrt(1+cosh 4t)), K in the modulus convention. The
    # complementary modulus is exactly sech 2t; forming it as
    # sqrt(1 - tanh(2t)^2) would cancel (U off by 2e-8 relative at c = 4).
    if 4 * t > 700:
        raise ValueError("parameter too large for the transform normalizer")
    K = math.pi / (2.0 * agm(1.0, 1.0 / math.cosh(2 * t)))
    return K / (t * math.sqrt(1.0 + math.cosh(4 * t)))


@dataclass
class LiouvilleTransform:
    """Change of variables y = Y(x) flattening the commuting operator.

    s(x) = int_x^1 p^{-1/2}, X(x) = pi*(1/2 - s(x)/U), Y = sin(X), and
    F(y) = (p(Y^{-1}(y))/(1-y^2))^{1/4} is the Jacobian factor relating
    eigenfunctions on the two sides.
    """
    c: float
    t: float
    U: float
    _s_memo: dict = field(default_factory=dict, repr=False)

    def s(self, x: float) -> float:
        """int_x^1 p(xi)^{-1/2} d xi for x in [-1,1], decreasing from U to 0."""
        if x < 0:
            return 2.0 * self.s(0.0) - self.s(-x)
        got = self._s_memo.get(x)
        if got is not None:
            return got
        t = self.t
        umax = math.sqrt(1.0 - x)

        # substituted xi = 1 - u^2; sinh(z)/z stays bounded at u = 0
        def f(u):
            z = 2 * t * u * u
            shc = math.sinh(z) / z if z > 0 else 1.0
            return 2.0 / math.sqrt(4 * t * math.sinh(2 * t * (2 - u * u)) * shc)

        with warnings.catch_warnings():
            # the tolerance is deliberately below what quad can certify;
            # the returned value is still good to ~1e-14 relative
            warnings.simplefilter("ignore", IntegrationWarning)
            val = quad(f, 0.0, umax, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
        self._s_memo[x] = val
        return val

    def X(self, x: float) -> float:
        return math.pi * (0.5 - self.s(x) / self.U)

    def Y(self, x: float) -> float:
        return math.sin(self.X(x))

    def Y_inverse(self, y: float) -> float:
        ay = abs(y)
        if ay >= 1.0:
            x = 1.0
        else:
            target = self.U / math.pi * math.acos(ay)
            if target >= self.s(0.0):
                x = 0.0
            else:
                x = brentq(lambda u: self.s(u) - target, 0.0, 1.0, xtol=5e-16)
        return x if y >= 0 else -x

    def F(self, y: float) -> float:
        ay = abs(y)
        if 1.0 - ay < 1e-9:
            # 0/0 limit: p ~ 4t sinh(4t) h and 1-Y^2 ~ (pi s/U)^2 share the
            # same h = 1-x scale, leaving (2 U t sinh(4t)/pi)^(1/2)
            return math.sqrt(2.0 * self.U * self.t * math.sinh(4 * self.t) / math.pi)
        x = self.Y_inverse(y)
        p, _ = case1_coefficients(self.c, abs(x))
        return float(p / (1.0 - y * y)) ** 0.25


def build_transform(c: float) -> LiouvilleTransform:
    if c <= 0:
        raise ValueError("c must be positive")
    t = family_parameter(c)
    return LiouvilleTransform(c=c, t=t, U=_u_closed_form(t))


def q_c_potential(transform: LiouvilleTransform, y: float) -> float:
    """Bounded potential of the flattened operator at y in [-1,1].

    The naive formula 1/2 + tan(X)^2/4 - (Ut/pi)^2(cosh 4tx + sinh^2 4tx / p)
    has two poles at the endpoints that cancel; within 1e-7 of x = 1 the
    combined expansion is used, and at |y| = 1 the exact limit.
    """
    t, U = transform.t, transform.U
    ay = abs(y)
    a4 = 4.0 * t
    if ay >= 1.0:
        coth = math.cosh(a4) / math.sinh(a4)
        E = t * math.sinh(a4) * (4 * a4 / 3) * coth
        return 1 / 3 + 0.25 * (U / math.pi) ** 2 * E \
            - (U * t / math.pi) ** 2 * math.cosh(a4)
    x = transform.Y_inverse(ay)
    h = 1.0 - x
    if h < 1e-7:
        coth = math.cosh(a4) / math.sinh(a4)
        E = t * math.sinh(a4) * ((4 * a4 / 3) * coth
                                 - ((4 / 15) * a4 ** 2 * coth ** 2
                                    + (4 / 5) * a4 ** 2) * h)
        z2 = math.acos(ay) ** 2
        return 1 / 3 + z2 / 60 + 0.25 * (U / math.pi) ** 2 * E \
            - (U * t / math.pi) ** 2 * math.cosh(4 * t * x)
    X = math.pi * (0.5 - transform.s(x) / U)
    p, _ = case1_coefficients(transform.c, x)
    return 0.5 + math.tan(X) ** 2 / 4 \
        - (U * t / math.pi) ** 2 * (math.cosh(4 * t * x)
                                    + math.sinh(4 * t * x) ** 2 / float(p))


@dataclass
class OdeSpectrum:
    c: float
    n_b: int
    transform: LiouvilleTransform
    chi: np.ndarray                  # increasing, all n_b of them
    coefficients: np.ndarray         # (n_b, n_b), column m = Gamma_m in P-bar basis
    m_max: int
    grid: QuadratureGrid = None      # internal x grid carrying the normalization
    g_values: np.ndarray = None      # (n_nodes, m_max+1)
    _norms: np.ndarray = None
    _signs: np.ndarray = None
    _map_cache: dict = field(default_factory=dict, repr=False)

    def _mapped(self, x: np.ndarray):
        key = (x.shape, x.tobytes())
        got = self._map_cache.get(key)
        if got is not None:
            return got
        tr = self.transform
        sv = np.array([tr.s(xx) for xx in x])
        Xv = math.pi * (0.5 - sv / tr.U)
        # at |x| = 1, p is exactly 0 while 1 - Y^2 only rounds near 0, so
        # the endpoints take Y = +-1 and the limit F(1) outright
        inside = np.abs(x) < 1.0
        Yv = np.where(inside, np.sin(Xv), np.sign(x))
        p, _ = case1_coefficients(self.c, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            Fv = np.where(inside & (1 - Yv ** 2 > 1e-280),
                          (p / (1 - Yv ** 2)) ** 0.25,
                          tr.F(1.0))
        PY = legendre_table(self.n_b - 1, np.clip(Yv, -1.0, 1.0))
        self._map_cache[key] = (Fv, PY)
        return Fv, PY

    def evaluate_g(self, m: int, x) -> np.ndarray:
        """Eigenfunction g_m of the commuting operator at points x in [-1,1]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        Fv, PY = self._mapped(x)
        tr = self.transform
        vals = (self.coefficients[:, m] @ PY) * math.sqrt(math.pi / tr.U) / Fv
        return self._signs[m] * vals / self._norms[m]

    def eigenfunction(self, m: int) -> SampledFunction:
        return SampledFunction(self.grid, self.g_values[:, m].copy())


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
    """Legendre-Galerkin eigensolve of the flattened operator.

    In the normalized Legendre basis the leading part is the diagonal
    k(k+1); only the bounded potential needs quadrature. Eigenvalues chi of
    the original operator are (pi/U)^2 times the matrix eigenvalues, and
    eigenvectors map back through the Liouville transform.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    n_b = galerkin_basis_size(m_max, n_b)
    tr = build_transform(c)
    qgrid = gauss_legendre(n_b + 32)
    qvals = np.array([q_c_potential(tr, y) for y in qgrid.nodes])
    P = legendre_table(n_b - 1, qgrid.nodes)
    ks = np.arange(n_b, dtype=float)
    M = np.diag(ks * (ks + 1)) + (P * (qvals * qgrid.weights)) @ P.T
    try:
        mu, W = np.linalg.eigh(M)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(
            f"Galerkin eigendecomposition failed for c={c}, n_b={n_b}: {e}") from e
    if mu[m_max] > 0.99 * mu[n_b - 5]:
        raise ValueError("basis too small: requested eigenvalues reach the "
                         "truncation-polluted top of the spectrum")
    chi = (math.pi / tr.U) ** 2 * mu

    spec = OdeSpectrum(c=c, n_b=n_b, transform=tr, chi=chi, coefficients=W,
                       m_max=m_max)
    grid = gauss_legendre(max(256, 2 * n_b))
    spec.grid = grid
    spec._norms = np.ones(m_max + 1)
    spec._signs = np.ones(m_max + 1)
    g = np.empty((len(grid), m_max + 1))
    for m in range(m_max + 1):
        vals = spec.evaluate_g(m, grid.nodes)
        nrm = math.sqrt(float(np.sum(grid.weights * vals ** 2)))
        sgn = -1.0 if vals[-1] < 0 else 1.0
        spec._norms[m] = nrm
        spec._signs[m] = sgn
        g[:, m] = sgn * vals / nrm
    spec.g_values = g
    return spec


def weak_form_chi(c: float, n_b: int = None, m_max: int = 20) -> np.ndarray:
    """Independent eigenvalue route: Galerkin on the UNtransformed operator.

    Assembles <p P'_j, P'_k> + <q P_j, P_k> directly in x. Used as a
    cross-check oracle for galerkin_eigensystem; the potential-form route is
    the production one because its matrix is better conditioned.
    """
    n_b = galerkin_basis_size(m_max, n_b)
    qgrid = gauss_legendre(n_b + 100)
    p, q = case1_coefficients(c, qgrid.nodes)
    P = legendre_table(n_b - 1, qgrid.nodes)
    Pp = legendre_derivative_table(n_b - 1, qgrid.nodes)
    M = (Pp * (p * qgrid.weights)) @ Pp.T + (P * (q * qgrid.weights)) @ P.T
    chi = np.linalg.eigvalsh(M)
    return chi[: m_max + 1]


def commutation_residual(c: float, g: SampledFunction, chi: float) -> float:
    """Interior L2 residual of -(p g')' + q g = chi g, relative to ||g||.

    g is projected onto normalized Legendre polynomials, differentiated
    through the basis, and the residual is measured on (-0.9, 0.9) where
    the differentiation is well conditioned.
    """
    n = g.grid.nodes.size
    K = min(180, max(30, n - 40))
    P = legendre_table(K - 1, g.grid.nodes)
    coef = P @ (g.grid.weights * np.real(g.values))
    inner = gauss_legendre(400, (-0.9, 0.9))
    x = inner.nodes
    Pi = legendre_table(K - 1, x)
    Pdi = legendre_derivative_table(K - 1, x)
    ks = np.arange(K, dtype=float)
    # Legendre ODE: (1-x^2) P'' = 2x P' - k(k+1) P
    Pddi = (2 * x[None, :] * Pdi - (ks * (ks + 1))[:, None] * Pi) / (1 - x ** 2)[None, :]
    gv = coef @ Pi
    gd = coef @ Pdi
    gdd = coef @ Pddi
    t = family_parameter(c)
    p, q = case1_coefficients(c, x)
    dp = -4 * t * np.sinh(4 * t * x)
    resid = -(dp * gd + p * gdd) + (q - chi) * gv
    num = math.sqrt(float(np.sum(inner.weights * resid ** 2)))
    den = math.sqrt(float(np.sum(inner.weights * gv ** 2)))
    return num / den if den > 0 else float("inf")

