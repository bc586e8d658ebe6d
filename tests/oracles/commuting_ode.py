"""Independent checks of the commuting operator: its eigenvalues from the
weak form in x, the Galerkin matrix assembled whole, and the residual of
its differential equation."""
import math

import numpy as np

from sechprolate.commuting_ode import (LiouvilleTransform, OdeSpectrum,
                                       family_parameter, galerkin_basis_size,
                                       q_c_potential)
from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import (gauss_legendre, legendre_table,
                                           panel_grid)

from .special_functions import legendre_derivative_table


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


def galerkin_full_matrix(c: float, n_b: int = None,
                         m_max: int = 20) -> OdeSpectrum:
    """galerkin_eigensystem as one n_b x n_b eigensolve: the potential
    integral on both halves, x = +-(1 - u^2), with no use of its parity."""
    tr = LiouvilleTransform(c)
    n_b = galerkin_basis_size(m_max, n_b)
    rule = panel_grid([0.0, 1.0], int(0.7 * n_b) + 16)
    x = 1.0 - rule.nodes ** 2
    Y, F = tr.forward(x)
    w = rule.weights * 2 * rule.nodes * math.pi / (tr.U * F * F)
    qw = np.tile(q_c_potential(tr, x) * w, 2)
    P = legendre_table(n_b - 1, np.concatenate([-Y, Y]))
    ks = np.arange(n_b, dtype=float)
    mu, W = np.linalg.eigh(np.diag(ks * (ks + 1)) + (P * qw) @ P.T)
    chi = (math.pi / tr.U) ** 2 * mu[: m_max + 1]
    W *= np.where(np.sqrt(ks + 0.5) @ W < 0, -1.0, 1.0)
    return OdeSpectrum(c=c, n_b=n_b, transform=tr, chi=chi, coefficients=W)


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
    Pdi = legendre_derivative_table(K - 1, x)
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
