"""Prolate spheroidal wave functions: the bandlimited comparison system.

The truncated Fourier transform with a hard frequency window [-1,1] has the
classical prolate functions as its singular system. They are computed here
through the commuting operator's tridiagonal matrix in the normalized
Legendre basis (split into even and odd blocks), with singular values from
a nonnegative-integrand quadrature and phases from the eigenrelation. The
matrix entries come from the standard prolate construction and are accepted
only because the sinc-kernel Nystrom cross-check below validates them.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (
    QuadratureGrid,
    gauss_legendre,
    legendre_table,
    spherical_bessel_ratio,
)
from .sech_operator import (SampledFunction, check_c,
                            symmetric_nystrom_eigenpairs)
from .extrapolation import ObservationWindow

__all__ = [
    "PswfBasis",
    "pswf_basis",
    "pswf_values",
    "pswf_adjoint_image",
    "pswf_cutoff_estimate",
    "sinc_nystrom",
]


@dataclass
class PswfBasis:
    c: float                      # bandwidth of the [-1,1]-window transform
    m_max: int
    n_b: int
    coefficients: np.ndarray      # (m_max+1, n_b) normalized-Legendre rows
    mu: np.ndarray                # singular values, decreasing
    phase: np.ndarray             # complex units, ~i^m, from the eigenrelation


def pswf_basis(c: float, m_max: int, n_b: int = None) -> PswfBasis:
    """Prolate functions psi_0..psi_m_max at bandwidth c.

    The commuting operator is tridiagonal in the normalized Legendre basis
    with couplings k -> k+2, so it splits into even and odd blocks whose
    eigenvalues interleave; sorting the merged spectrum recovers the m
    ordering. Sign convention: psi_m(1) > 0.
    """
    check_c(c)
    if n_b is None:
        n_b = 2 * m_max + 32 + int(2 * c)
    if n_b < 2 * m_max + 16:
        raise ValueError("basis too small for the requested number of functions")
    k = np.arange(n_b)
    ak = (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
    diag = k * (k + 1) + c ** 2 * (ak ** 2 + np.concatenate(([0.0], ak[:-1] ** 2)))
    off = c ** 2 * ak[:-2] * ak[1:-1]
    vals, rows = [], []
    for par in (0, 1):
        idx = np.arange(par, n_b, 2)
        Mp = np.diag(diag[idx]) + np.diag(off[idx[:-1]], 1) + np.diag(off[idx[:-1]], -1)
        val, vec = np.linalg.eigh(Mp)
        vals.append(val)
        rows.append(np.zeros((val.size, n_b)))
        rows[-1][:, idx] = vec.T
    C = np.concatenate(rows)[np.argsort(np.concatenate(vals), kind="stable")[: m_max + 1]]
    tail = np.max(np.abs(C[:, -2:]), axis=1)
    if np.any(tail > 1e-10):
        raise ValueError("basis too small: coefficient tails have not decayed")
    p1 = np.sqrt(np.arange(n_b) + 0.5)      # normalized Legendre values at 1
    C[C @ p1 < 0] *= -1.0

    # singular values as the L2 norm of the adjoint image (nonnegative
    # integrand, so tiny mu keep full relative accuracy)
    quad = gauss_legendre(max(400, 2 * n_b))
    images = _adjoint_image_values(c, C, quad.nodes)
    mu = np.sqrt(np.sum(quad.weights * np.abs(images) ** 2, axis=1))
    # eigenrelation (F^W psi_m)(x) = conj(adjoint image)(x) = alpha_m psi_m(x)
    z = np.sum(quad.weights * np.conj(images)
               * (C @ legendre_table(n_b - 1, quad.nodes)), axis=1)
    found = np.abs(z) > 1e-12
    phase = np.array([1, 1j, -1, -1j])[np.arange(m_max + 1) % 4]
    phase[found] = z[found] / np.abs(z[found])
    return PswfBasis(c=c, m_max=m_max, n_b=n_b, coefficients=C, mu=mu,
                     phase=phase)


def pswf_values(basis: PswfBasis, m, x) -> np.ndarray:
    """psi_m at x; an index array or slice m gives one row per index."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return basis.coefficients[m] @ legendre_table(basis.n_b - 1, x)


def _adjoint_image_values(c: float, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # int_{-1}^1 e^{-icxt} P_k-bar(t) dt = sqrt(k+1/2) * 2 (-i)^k j_k(cx),
    # with j_k(-z) = (-1)^k j_k(z): one table of these terms at x, for every
    # k some row of coeffs (m_max+1, n_b) uses, gives all the images at once
    x = np.asarray(x, dtype=float)
    mag = np.abs(coeffs)
    ks = np.nonzero(np.any(mag > 1e-16 * mag.max(axis=1, keepdims=True), axis=0))[0]
    sgn = np.where(x < 0, -1.0, 1.0)
    az = c * np.abs(x)
    terms = np.array([math.sqrt(k + 0.5) * 2.0 * (-1j) ** int(k) * sgn ** int(k)
                      * np.array([spherical_bessel_ratio(int(k), float(z)) for z in az])
                      for k in ks])
    return coeffs[:, ks] @ terms


def pswf_adjoint_image(c: float, m: int, x_grid, basis: PswfBasis = None) -> SampledFunction:
    """Closed Bessel form of the adjoint image int_{-1}^1 e^{-icxt} psi_m(t) dt."""
    if basis is None:
        basis = pswf_basis(c, m_max=m + 4)
    if m > basis.m_max:
        raise ValueError("index exceeds the basis")
    if isinstance(x_grid, QuadratureGrid):
        xg = x_grid
    else:
        x = np.atleast_1d(np.asarray(x_grid, dtype=float))
        xg = QuadratureGrid(x, np.full(x.size, np.nan), (float(x[0]), float(x[-1])))
    vals = _adjoint_image_values(c, basis.coefficients[[m]], xg.nodes)[0]
    return SampledFunction(xg, vals)


def sinc_nystrom(c: float, n: int = 400, m_max: int = 12):
    """Oracle route: Nystrom eigensystem of the kernel 2 sin(c(x-y))/(x-y).

    This kernel is c times the composition of the window transform with its
    adjoint, so its eigenvalues are c*mu_m^2 and its eigenfunctions are the
    prolate functions. Returns (eigenvalues, g_values, grid).
    """
    grid = gauss_legendre(n)
    xl = grid.nodes.astype(np.longdouble)
    dx = xl[:, None] - xl[None, :]
    np.fill_diagonal(dx, 1.0)
    Kl = 2.0 * np.sin(np.longdouble(c) * dx) / dx
    np.fill_diagonal(Kl, 2.0 * c)
    lam, g = symmetric_nystrom_eigenpairs(Kl, grid, m_max + 1)
    return lam[: m_max + 1], g, grid


def pswf_cutoff_estimate(obs: ObservationWindow, basis: PswfBasis, N: int,
                         scale_b: float, report_points: int = 1201,
                         report_halfwidth: float = 6.0):
    """Spectral cut-off estimate in the prolate system.

    Models the truth's transform as supported on [-1/scale_b, 1/scale_b]:
    F_hat(x) = scale_b * sum_m conj(phase_m)/mu_m * <obs, psi_m> * psi_m(scale_b x)
    inside the support, zero outside. With y = scale_b x its inverse
    transform on the report grid is one integral over [-1, 1],
    f(s) = int e^{-i (x0 - s) y / scale_b} sum_m coef_m psi_m(y) dy, taken by
    a Gauss rule that covers both the psi_m (degree below n_b) and the
    exponential (frequency up to report_halfwidth / scale_b). Returns
    (s_grid, values).
    """
    if N > basis.m_max:
        raise ValueError("truncation level exceeds the basis")
    if basis.mu[N] < 1e-13:
        raise ValueError("truncation level reaches untrusted singular values")
    ng = obs.samples.grid
    head = slice(0, N + 1)
    d = pswf_values(basis, head, ng.nodes) @ (ng.weights * obs.samples.values)
    coef = np.conj(basis.phase[head]) / basis.mu[head] * d
    quad = gauss_legendre(basis.n_b + math.ceil(report_halfwidth / scale_b))
    s_grid = np.linspace(obs.x0 - report_halfwidth, obs.x0 + report_halfwidth,
                         report_points)
    F = coef @ pswf_values(basis, head, quad.nodes)
    ph = np.exp(-1j * np.outer(obs.x0 - s_grid, quad.nodes / scale_b))
    return s_grid, ph @ (quad.weights * F)
