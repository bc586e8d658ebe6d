"""Differential operator commuting with the sech-kernel integral operator.

The kernel pi*c*sech(pi*c*(x-y)/2) has exponential scale beta = pi*c/2, and
the Sturm-Liouville family below is parametrized by that scale: every
coefficient formula uses t = pi*c/2, never the bandwidth c itself. With
p(x) = cosh(4t) - cosh(4tx) and q(x) = 3t^2 cosh(4tx), the operator
L g = -(p g')' + q g commutes with the integral operator, so both have the
same eigenvectors g_m. A Liouville change of variables y = Y(x) turns L into
-((1-y^2) G')' + q^c(y) G with a BOUNDED potential q^c, which makes a
Legendre-Galerkin discretization spectrally accurate even for high indices
where the integral operator's eigenvalues are far below machine precision.
The change of variables g(x) = sqrt(pi/U) G(Y(x)) / F(Y(x)) is unitary from
L2(dy) to L2(dx), so each g_m has the unit norm of its
coefficient column, and g_m(1) > 0 follows from the column's sign: the
coefficients alone describe g_m.

The map is array code. Y is built from s(x) = int_x^1 p^{-1/2}; in
u = sqrt(1-|x|) the endpoint singularity of p^{-1/2} is gone and the
integrand is analytic and increasing, so one fixed 48-node Gauss-Legendre
rule scaled to [0, u] integrates it to roundoff (relative error <= 3e-15
against a 50-digit reference for c <= 16). The inverse map solves for u by
Newton's method with ds/du > 0, and raises ArithmeticError rather than
return an unconverged point.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import agm, gauss_legendre, legendre_table, panel_grid
from .sech_operator import check_c

__all__ = [
    "LiouvilleTransform",
    "OdeSpectrum",
    "build_transform",
    "q_c_potential",
    "galerkin_eigensystem",
    "galerkin_basis_size",
    "family_parameter",
    "liouville_normalizer",
]


def family_parameter(c: float) -> float:
    """Exponential scale of the kernel sech(pi*c*(x-y)/2): t = pi*c/2."""
    return math.pi * c / 2.0


def liouville_normalizer(t: float) -> float:
    """Normalizer U = K(tanh 2t) / (t sqrt(1+cosh 4t)) of the Liouville map,
    K in the modulus convention."""
    # The complementary modulus is exactly sech 2t; forming it as
    # sqrt(1 - tanh(2t)^2) would cancel (U off by 2e-8 relative at c = 4).
    if 4 * t > 700:
        raise ValueError("parameter too large for the transform normalizer")
    K = math.pi / (2.0 * agm(1.0, 1.0 / math.cosh(2 * t)))
    return K / (t * math.sqrt(1.0 + math.cosh(4 * t)))


# fixed Gauss-Legendre rule on [0, 1] for s in the variable u = sqrt(1-|x|)
_S_RULE = panel_grid([0.0, 1.0], 48)
# Newton's method for Y^{-1}: iteration cap, and the step size (relative to
# u) at which it has converged
_NEWTON_MAX_ITER = 40
_NEWTON_RTOL = 1e-14


@dataclass
class LiouvilleTransform:
    """Change of variables y = Y(x) flattening the commuting operator.

    s(x) = int_x^1 p^{-1/2}, X(x) = pi*(1/2 - s(x)/U), Y = sin(X), and
    F(y) = (p(Y^{-1}(y))/(1-y^2))^{1/4} is the Jacobian factor relating
    solutions g and G on the two sides. forward gives Y and F at points x;
    the inverse direction, _u_inverse, serves q_c_potential. Both take
    arrays, and s of a scalar gives a float.

    With x = 1 - u^2, s(x) = S(u) = int_0^u f for 0 <= x <= 1, where
    f(u) = 2 u p(1-u^2)^{-1/2} is analytic and increasing on [0, 1] (p/(1-x)
    is a secant slope of the convex cosh 4tx); one fixed 48-node
    Gauss-Legendre rule scaled to [0, u] gives S to roundoff, and
    s(-x) = 2 s(0) - s(x) covers x < 0. _u_inverse solves
    S(u) = U arccos|y| / pi by Newton's method with S' = f > 0: S is convex,
    so the iteration converges monotonically after its first step (at most
    7 steps for 0.01 <= c <= 100). It raises ArithmeticError if it has not
    converged within its cap.
    """
    c: float
    t: float
    U: float

    def _p(self, h):
        # p at x = 1 - h, formed from h itself so that p ~ 4t sinh(4t) h
        # keeps its relative accuracy at the endpoint
        return 2.0 * np.sinh(2 * self.t * (2 - h)) * np.sinh(2 * self.t * h)

    def _f(self, u):
        # ds/du; sinh(z)/z stays bounded at u = 0
        z = 2 * self.t * u * u
        shc = np.where(z > 1e-8, np.sinh(z) / np.maximum(z, 1e-8), 1.0)
        return 2.0 / (np.sqrt(4 * self.t * np.sinh(2 * self.t * (2 - u * u)))
                      * np.sqrt(shc))

    def _S(self, u):
        # int_0^u f for each entry of u in [0, 1]; a row sum, not a matrix
        # product, so a row's rounding does not depend on the shape of u
        u = np.asarray(u, dtype=float)
        vals = self._f(u[..., None] * _S_RULE.nodes)
        return u * np.sum(vals * _S_RULE.weights, axis=-1)

    def s(self, x):
        """int_x^1 p(xi)^{-1/2} d xi for x in [-1,1], decreasing from U to 0."""
        x = np.asarray(x, dtype=float)
        v = self._S(np.sqrt(1.0 - np.abs(x)))
        if np.any(x < 0):
            v = np.where(x < 0, 2.0 * self._S(1.0) - v, v)
        return float(v) if v.ndim == 0 else v

    def _u_inverse(self, y):
        # u = sqrt(1 - |x|) at x = Y^{-1}(y): the root of S(u) = U arccos|y|/pi
        # each point stops at its own convergence, so an array call gives
        # the scalar calls' values; a NaN step never counts as converged
        y = np.asarray(y, dtype=float)
        a = np.arccos(np.minimum(np.abs(y), 1.0)).ravel()
        target = self.U / math.pi * a
        u = 2.0 / math.pi * a          # left of the root, as S(u) <= u S(1)
        todo = np.ones(u.shape, dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            old = u[todo]
            step = (self._S(old) - target[todo]) / self._f(old)
            new = np.clip(old - step, 0.0, 1.0)
            u[todo] = new
            # the move after clipping: u = 1 (x = 0) is the root when the
            # target exceeds S(1) by the rule's roundoff
            todo[todo] = ~(np.abs(new - old) <= _NEWTON_RTOL * new)
            if not todo.any():
                return u.reshape(y.shape)
        raise ArithmeticError("Newton's method for Y^{-1} did not converge")

    def forward(self, x):
        """(Y(x), F(Y(x))) at the points x in [-1, 1], as 1-D arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.abs(x) <= 1.0):     # written so that nan fails too
            raise ValueError("the Liouville map is defined on [-1, 1]")
        ax = np.abs(x)
        u = np.sqrt(1.0 - ax)
        # X is odd in x, so Y = sign(x) cos(pi s(|x|)/U), which is exactly
        # +-1 at x = +-1, and 1 - Y^2 = sin(pi s(|x|)/U)^2 needs no
        # cancellation at the endpoints; below u = 1e-8 the 0/0 limit of F,
        # (2 U t sinh(4t)/pi)^(1/2), is exact to roundoff. Two square roots,
        # not ** 0.25, which rounds differently.
        arg = math.pi * self.s(ax) / self.U
        limit = math.sqrt(2.0 * self.U * self.t * math.sinh(4 * self.t) / math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.sqrt(np.sqrt(self._p(u * u)) / np.abs(np.sin(arg)))
        return np.sign(x) * np.cos(arg), np.where(u > 1e-8, F, limit)


def build_transform(c: float) -> LiouvilleTransform:
    check_c(c)
    t = family_parameter(c)
    return LiouvilleTransform(c=c, t=t, U=liouville_normalizer(t))


def q_c_potential(transform: LiouvilleTransform, y):
    """Bounded potential of the flattened operator at y in [-1,1] (an
    array, or a scalar giving a float).

    The naive formula 1/2 + tan(X)^2/4 - (Ut/pi)^2(cosh 4tx + sinh^2 4tx / p)
    has two poles at the endpoints that cancel; it is formed from one
    u = sqrt(1-|x|) so that they cancel consistently. Within h = 1-|x| < 1e-7
    the combined expansion in h is used, and at |y| = 1, where Newton's
    method returns u = 0, its h = 0 value is the exact limit.
    """
    t, U = transform.t, transform.U
    ay = np.minimum(np.abs(np.asarray(y, dtype=float)), 1.0)
    u = transform._u_inverse(ay)
    h = u * u
    x = 1.0 - h
    a4 = 4.0 * t
    coth = math.cosh(a4) / math.sinh(a4)
    E = t * math.sinh(a4) * ((4 * a4 / 3) * coth
                             - ((4 / 15) * a4 ** 2 * coth ** 2
                                + (4 / 5) * a4 ** 2) * h)
    near = 1 / 3 + np.arccos(ay) ** 2 / 60 + 0.25 * (U / math.pi) ** 2 * E \
        - (U * t / math.pi) ** 2 * np.cosh(4 * t * x)
    X = math.pi * (0.5 - transform._S(u) / U)
    sh = np.sinh(4 * t * x)     # sinh^2 alone would overflow for c > 56
    with np.errstate(divide="ignore", invalid="ignore"):
        naive = 0.5 + np.tan(X) ** 2 / 4 \
            - (U * t / math.pi) ** 2 * (np.cosh(4 * t * x)
                                        + sh * (sh / transform._p(h)))
    q = np.where(h < 1e-7, near, naive)
    return float(q) if q.ndim == 0 else q


@dataclass
class OdeSpectrum:
    """Galerkin eigensystem of the commuting operator. Column m of
    coefficients is Gamma_m in the normalized Legendre basis of y, unit in
    l2 and signed so that Gamma_m(1) > 0; g_m is evaluated from it alone."""
    c: float
    n_b: int
    transform: LiouvilleTransform
    chi: np.ndarray                  # increasing, all n_b of them
    coefficients: np.ndarray         # (n_b, n_b), column m = Gamma_m in P-bar basis

    def evaluate_g(self, m, x) -> np.ndarray:
        """Eigenfunction g_m(x) = sqrt(pi/U) Gamma_m(Y(x)) / F(Y(x)) at
        points x in [-1,1]: unit L2 norm, g_m(1) > 0.

        An int m gives the values of shape (len(x),); an array of indices
        gives one row per index, shape (len(m), len(x)), from one map of x
        and one matrix product.
        """
        Yv, Fv = self.transform.forward(x)
        G = self.coefficients[:, m].T @ legendre_table(self.n_b - 1, Yv)
        return G * math.sqrt(math.pi / self.transform.U) / Fv


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
    eigenvectors map back through the Liouville transform, unit and with
    g_m(1) > 0. m_max sizes the default basis and must stay clear of the
    truncation-polluted top of the spectrum.
    """
    check_c(c)
    n_b = galerkin_basis_size(m_max, n_b)
    tr = build_transform(c)
    qgrid = gauss_legendre(n_b + 32)
    qvals = q_c_potential(tr, qgrid.nodes)
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
    # sign convention Gamma_m(1) = sum_k W_km sqrt(k + 1/2) > 0
    W *= np.where(np.sqrt(ks + 0.5) @ W < 0, -1.0, 1.0)
    return OdeSpectrum(c=c, n_b=n_b, transform=tr, chi=chi, coefficients=W)
