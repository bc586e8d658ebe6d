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

The map is array code and runs in the forward direction only. s(x) =
int_x^1 p^{-1/2} is an incomplete elliptic integral of modulus tanh 2t, and
U = 2 s(0) the complete one; both come in closed form from Carlson's R_F,
so no quadrature rule evaluates the map. The Galerkin potential is
integrated in u = sqrt(1 - |x|), where x = +-(1 - u^2) is explicit and
dy = pi/(U F^2) dx.

The kernel is even, so g_m has parity (-1)^m, and the code makes that
exact: the potential couples only Legendre indices of equal parity, the
Galerkin matrix is solved as an even and an odd block, each coefficient
column is exactly 0 off its parity, and evaluate_g maps |x| and applies
the sign (-1)^m at x < 0.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import carlson_rf, legendre_table, panel_grid
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


def _map_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):     # written so that nan fails too
        raise ValueError("the Liouville map is defined on [-1, 1]")
    return x


@dataclass
class LiouvilleTransform:
    """Change of variables y = Y(x) flattening the commuting operator.

    s(x) = int_x^1 p^{-1/2}, X(x) = pi*(1/2 - s(x)/U), Y = sin(X), and
    F(y) = (p(Y^{-1}(y))/(1-y^2))^{1/4} is the Jacobian factor relating
    solutions g and G on the two sides. forward gives Y and F at points x,
    and s of a scalar gives a float. t and U = 2 s(0) follow from c.

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
        if 4 * self.t > 700:
            raise ValueError("parameter too large for the transform normalizer")
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

    def forward(self, x):
        """(Y(x), F(Y(x))) at the points x in [-1, 1], as 1-D arrays."""
        x = np.atleast_1d(_map_points(x))
        ax = np.abs(x)
        h = 1.0 - ax
        # X is odd in x, so Y = sign(x) cos(pi s(|x|)/U), which is exactly
        # +-1 at x = +-1, and 1 - Y^2 = sin(pi s(|x|)/U)^2 needs no
        # cancellation at the endpoints; below h = 1e-16 the 0/0 limit of F,
        # (2 U t sinh(4t)/pi)^(1/2), is exact to roundoff. Two square roots,
        # not ** 0.25, which rounds differently.
        arg = math.pi * self.s(ax) / self.U
        limit = math.sqrt(2.0 * self.U * self.t * math.sinh(4 * self.t) / math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.sqrt(np.sqrt(self._p(h)) / np.abs(np.sin(arg)))
        return np.sign(x) * np.cos(arg), np.where(h > 1e-16, F, limit)


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
    x = np.abs(np.atleast_1d(_map_points(x)))
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
    coefficients is Gamma_m in the normalized Legendre basis of y, unit in
    l2 and signed so that Gamma_m(1) > 0; g_m is evaluated from it alone."""
    c: float
    n_b: int
    transform: LiouvilleTransform
    chi: np.ndarray                  # increasing, chi_0 .. chi_m_max
    coefficients: np.ndarray         # (n_b, n_b), column m = Gamma_m in P-bar basis

    def evaluate_g(self, m, x) -> np.ndarray:
        """Eigenfunction g_m(x) = sqrt(pi/U) Gamma_m(Y(x)) / F(Y(x)) at
        points x in [-1,1]: unit L2 norm, g_m(1) > 0.

        The map runs at |x|, and the value at x < 0 is (-1)^m times the
        value at -x, so g_m(-x) = (-1)^m g_m(x) holds bit for bit at any
        points. An int m gives the values of shape (len(x),); an array of
        indices gives one row per index, shape (len(m), len(x)), from one
        map of x and one matrix product.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        Yv, Fv = self.transform.forward(np.abs(x))
        G = self.coefficients[:, m].T @ legendre_table(self.n_b - 1, Yv)
        G = G * math.sqrt(math.pi / self.transform.U) / Fv
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
    """Legendre-Galerkin eigensolve of the flattened operator, in two
    blocks of one parity each.

    In the normalized Legendre basis the leading part is the diagonal
    k(k+1); only the bounded potential needs quadrature, which runs in
    u = sqrt(1-|x|), where the map to y is explicit. The potential is even
    and P-bar_k(-y) = (-1)^k P-bar_k(y), so it couples only indices of
    equal parity: the matrix splits into an even and an odd block, each
    diag(k(k+1)) + 2 (P qw) P^T with the table P on y >= 0 alone, and the
    two spectra are merged by eigenvalue (Xiao, Rokhlin & Yarvin 2001).
    Each coefficient column is then exactly 0 off its parity, and the
    merged indices must alternate in parity up to m_max, as the
    Sturm-Liouville oscillation count demands (ValueError otherwise).
    Eigenvalues chi of the original operator are (pi/U)^2 times the matrix
    eigenvalues, and eigenvectors map back through the Liouville
    transform, unit and with g_m(1) > 0. m_max sizes the default basis and
    must stay clear of the truncation-polluted top of the spectrum.
    """
    tr = LiouvilleTransform(c)
    n_b = galerkin_basis_size(m_max, n_b)
    # the potential integral in u = sqrt(1 - |x|) on x >= 0, doubled for
    # x < 0: y = Y(1 - u^2), dy = 2u pi/(U F^2) du
    rule = panel_grid([0.0, 1.0], int(0.7 * n_b) + 16)
    x = 1.0 - rule.nodes ** 2
    Y, F = tr.forward(x)
    w = rule.weights * 2 * rule.nodes * math.pi / (tr.U * F * F)
    qw = 2 * q_c_potential(tr, x) * w
    P = legendre_table(n_b - 1, Y)
    ks = np.arange(n_b, dtype=float)
    blocks = []
    for p in (0, 1):
        kp = ks[p::2]
        try:
            blocks.append(np.linalg.eigh(
                np.diag(kp * (kp + 1)) + (P[p::2] * qw) @ P[p::2].T))
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
    chi = (math.pi / tr.U) ** 2 * mu[: m_max + 1]
    # sign convention Gamma_m(1) = sum_k W_km sqrt(k + 1/2) > 0
    W *= np.where(np.sqrt(ks + 0.5) @ W < 0, -1.0, 1.0)
    return OdeSpectrum(c=c, n_b=n_b, transform=tr, chi=chi, coefficients=W)
