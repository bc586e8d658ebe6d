"""Independent checks of the commuting operator: its eigenvalues from the
unscaled weak form in x, the Galerkin matrix in x assembled whole, the
paper's own route through the Liouville map (the map, and the Galerkin
solve of the flattened operator in the Legendre basis of y), rho from the
endpoint identity, and the residual of the differential equation."""
import math
from dataclasses import dataclass

import numpy as np

from sechprolate.commuting_ode import (LiouvilleTransform, OdeSpectrum,
                                       family_parameter, galerkin_basis_size,
                                       galerkin_eigensystem, q_c_potential)
from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import (gauss_legendre,
                                           legendre_derivative_table,
                                           legendre_table, panel_grid)


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


def weak_form_chi(c: float, n_b: int = None, m_max: int = 20) -> np.ndarray:
    """Eigenvalues of the weak form <p P'_j, P'_k> + <q P_j, P_k> in x,
    unscaled, on one Gauss rule of n_b + 100 nodes over [-1, 1], with no
    use of parity: a cross-check of galerkin_eigensystem's chi at moderate
    c, where cosh 4t and the layers at x = +-1 stay small."""
    n_b = galerkin_basis_size(m_max, n_b)
    qgrid = gauss_legendre(n_b + 100)
    p, q = case1_coefficients(c, qgrid.nodes)
    P = legendre_table(n_b - 1, qgrid.nodes)
    Pp = legendre_derivative_table(P)
    M = (Pp * (p * qgrid.weights)) @ Pp.T + (P * (q * qgrid.weights)) @ P.T
    chi = np.linalg.eigvalsh(M)
    return chi[: m_max + 1]


def galerkin_full_matrix(c: float, n_b: int = None, m_max: int = 20,
                         rule=None) -> OdeSpectrum:
    """galerkin_eigensystem as one n_b x n_b eigensolve: the scaled weak
    form in x on the mirrored nodes of rule, with no use of parity. rule
    is a Gauss rule on [0, 1], by default galerkin_eigensystem's."""
    t = family_parameter(c)
    n_b = galerkin_basis_size(m_max, n_b)
    if rule is None:
        rule = panel_grid([0.0, 1.0] if 4 * t <= 30 else
                          [0.0, 1.0 - 30 / (4 * t), 1.0], n_b + 24)
    x = np.concatenate([-rule.nodes[::-1], rule.nodes])
    w = np.concatenate([rule.weights[::-1], rule.weights]) \
        / (1 + math.exp(-8 * t))
    pw = np.expm1(-4 * t * (1 + x)) * np.expm1(-4 * t * (1 - x)) * w
    qw = 3 * t * t * (np.exp(-4 * t * (1 - x)) + np.exp(-4 * t * (1 + x))) * w
    P = legendre_table(n_b - 1, x)
    D = legendre_derivative_table(P)
    mu, W = np.linalg.eigh((D * pw) @ D.T + (P * qw) @ P.T)
    chi = math.cosh(4 * t) * mu[: m_max + 1]
    W *= np.where(np.sqrt(np.arange(n_b) + 0.5) @ W < 0, -1.0, 1.0)
    return OdeSpectrum(c=c, n_b=n_b, chi=chi, coefficients=W)


def forward(tr: LiouvilleTransform, x):
    """The Liouville map: (Y(x), F(Y(x))) at the points x in [-1, 1], as
    1-D arrays. Y = sin(X), X = pi (1/2 - s(x)/U), and
    F(y) = (p(Y^{-1}(y))/(1-y^2))^{1/4} is the Jacobian factor relating the
    solutions g(x) = sqrt(pi/U) G(Y(x)) / F(Y(x)) on the two sides."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    h = 1.0 - ax
    # X is odd in x, so Y = sign(x) cos(pi s(|x|)/U), which is exactly
    # +-1 at x = +-1, and 1 - Y^2 = sin(pi s(|x|)/U)^2 needs no
    # cancellation at the endpoints; below h = 1e-16 the 0/0 limit of F,
    # (2 U t sinh(4t)/pi)^(1/2), is exact to roundoff. Two square roots,
    # not ** 0.25, which rounds differently.
    arg = math.pi * tr.s(ax) / tr.U
    limit = math.sqrt(2.0 * tr.U * tr.t * math.sinh(4 * tr.t) / math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.sqrt(np.sqrt(tr._p(h)) / np.abs(np.sin(arg)))
    return np.sign(x) * np.cos(arg), np.where(h > 1e-16, F, limit)


@dataclass
class YBasisSpectrum:
    """Galerkin eigensystem of the flattened operator
    -((1-y^2) G')' + q^c(y) G: column m of coefficients is Gamma_m in the
    normalized Legendre basis of y, unit in l2 and signed so that
    Gamma_m(1) > 0."""
    transform: LiouvilleTransform
    n_b: int
    chi: np.ndarray
    coefficients: np.ndarray

    def evaluate_g(self, m, x) -> np.ndarray:
        """g_m(x) = sqrt(pi/U) Gamma_m(Y(x)) / F(Y(x)), through the map."""
        Y, F = forward(self.transform, x)
        G = self.coefficients[:, m].T @ legendre_table(self.n_b - 1, Y)
        return G * math.sqrt(math.pi / self.transform.U) / F


def y_basis_galerkin(c: float, n_b: int = None,
                     m_max: int = 20) -> YBasisSpectrum:
    """The paper's route: the flattened operator in the normalized Legendre
    basis of y, as one eigensolve. The leading part is the diagonal
    k(k+1); the potential integral runs in u = sqrt(1 - |x|), where
    x = +-(1 - u^2) is explicit and dy = 2u pi/(U F^2) du. chi is (pi/U)^2
    times the matrix eigenvalues."""
    tr = LiouvilleTransform(c)
    n_b = galerkin_basis_size(m_max, n_b)
    rule = panel_grid([0.0, 1.0], int(0.7 * n_b) + 16)
    x = 1.0 - rule.nodes ** 2
    Y, F = forward(tr, x)
    w = rule.weights * 2 * rule.nodes * math.pi / (tr.U * F * F)
    qw = np.tile(q_c_potential(tr, x) * w, 2)
    P = legendre_table(n_b - 1, np.concatenate([-Y, Y]))
    ks = np.arange(n_b, dtype=float)
    mu, W = np.linalg.eigh(np.diag(ks * (ks + 1)) + (P * qw) @ P.T)
    chi = (math.pi / tr.U) ** 2 * mu[: m_max + 1]
    W *= np.where(np.sqrt(ks + 0.5) @ W < 0, -1.0, 1.0)
    return YBasisSpectrum(transform=tr, n_b=n_b, chi=chi, coefficients=W)


def log_rho_endpoint_identity(c: float, m_max: int, n_u: int = 16,
                              n_log: int = 8) -> np.ndarray:
    """log rho_m, m = 0..m_max, of the kernel at parameter c from the
    endpoint identity d log rho_m / dc = 2 g_m(1; c)^2 / c (moving c moves
    only the window edges), anchored at the flat limit
    rho_m ~ A_m c^{2m+1}, A_m = 2 pi^{2m+1} (m!)^4 / ((2m+1) ((2m)!)^2):
        log rho_m(c) = log A_m + (2m+1) log c
                       + int_0^1 (2 g_m(1; cu)^2 - (2m+1)) du/u.
    The integrand is O(u^2) at 0, since g_m(1)^2 -> m + 1/2, so n_u Gauss
    nodes on [0, 1] suffice. Above c = 1 the integral runs to 1 and
    int_0^{log c} 2 g_m(1; e^s)^2 ds, by n_log Gauss nodes, is added.
    Each node is one galerkin_eigensystem, with g_m(1) = sum_k W_km
    sqrt(k + 1/2)."""
    ms = np.arange(m_max + 1)

    def g1_squared(cc):
        W = galerkin_eigensystem(cc, m_max=m_max).coefficients[:, : m_max + 1]
        return (np.sqrt(np.arange(W.shape[0]) + 0.5) @ W) ** 2

    lgam = np.vectorize(math.lgamma)
    log_A = (math.log(2) + (2 * ms + 1) * math.log(math.pi)
             + 4 * lgam(ms + 1.0) - np.log(2 * ms + 1.0)
             - 2 * lgam(2 * ms + 1.0))
    c0 = min(c, 1.0)
    u = panel_grid([0.0, 1.0], n_u)
    out = log_A + (2 * ms + 1) * math.log(c0)
    for ui, wi in zip(u.nodes, u.weights):
        out += wi * (2 * g1_squared(c0 * ui) - (2 * ms + 1)) / ui
    if c > 1:
        s = panel_grid([0.0, math.log(c)], n_log)
        for si, wi in zip(s.nodes, s.weights):
            out += wi * 2 * g1_squared(math.exp(si))
    return out


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
    inner = panel_grid([-0.9, 0.9], 400)
    x = inner.nodes
    Pi = legendre_table(K - 1, x)
    Pdi = legendre_derivative_table(Pi)
    ks = np.arange(K, dtype=float)
    # Legendre ODE: (1-x^2) P'' = 2x P' - k(k+1) P
    Pddi = (2 * x[None, :] * Pdi - (ks * (ks + 1))[:, None] * Pi) / (1 - x ** 2)[None, :]
    gv, gd, gdd = coef @ Pi, coef @ Pdi, coef @ Pddi
    t = family_parameter(c)
    p, q = case1_coefficients(c, x)
    dp = -4 * t * np.sinh(4 * t * x)
    resid = -(dp * gd + p * gdd) + (q - chi) * gv
    num = math.sqrt(float(np.sum(inner.weights * resid ** 2)))
    den = math.sqrt(float(np.sum(inner.weights * gv ** 2)))
    return num / den if den > 0 else float("inf")
