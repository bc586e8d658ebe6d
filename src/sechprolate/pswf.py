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
    uniform_grid,
)
from .sech_operator import SampledFunction, _symmetric_nystrom, check_c
from .extrapolation import ObservationWindow, _invert_transform

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
    pairs = []
    for par in (0, 1):
        idx = np.arange(par, n_b, 2)
        Mp = np.diag(diag[idx]) + np.diag(off[idx[:-1]], 1) + np.diag(off[idx[:-1]], -1)
        val, vec = np.linalg.eigh(Mp)
        for j in range(val.size):
            v = np.zeros(n_b)
            v[idx] = vec[:, j]
            pairs.append((float(val[j]), v))
    pairs.sort(key=lambda t: t[0])
    C = np.stack([v for _, v in pairs[: m_max + 1]], axis=0)
    tail = np.max(np.abs(C[:, -2:]), axis=1)
    if np.any(tail > 1e-10):
        raise ValueError("basis too small: coefficient tails have not decayed")
    p1 = np.sqrt(np.arange(n_b) + 0.5)      # normalized Legendre values at 1
    for m in range(m_max + 1):
        if C[m] @ p1 < 0:
            C[m] = -C[m]

    # singular values as the L2 norm of the adjoint image (nonnegative
    # integrand, so tiny mu keep full relative accuracy)
    quad = gauss_legendre(max(400, 2 * n_b))
    mu = np.empty(m_max + 1)
    images = np.empty((m_max + 1, quad.nodes.size), dtype=complex)
    for m in range(m_max + 1):
        img = _adjoint_image_values(c, C[m], quad.nodes)
        images[m] = img
        mu[m] = math.sqrt(float(np.sum(quad.weights * np.abs(img) ** 2)))
    # eigenrelation (F^W psi_m)(x) = conj(adjoint image)(x) = alpha_m psi_m(x)
    Psi = C @ legendre_table(n_b - 1, quad.nodes)
    phase = np.empty(m_max + 1, dtype=complex)
    for m in range(m_max + 1):
        z = np.sum(quad.weights * np.conj(images[m]) * Psi[m])
        if abs(z) > 1e-12:
            phase[m] = z / abs(z)
        else:
            phase[m] = 1j ** (m % 4)
    return PswfBasis(c=c, m_max=m_max, n_b=n_b, coefficients=C, mu=mu,
                     phase=phase)


def pswf_values(basis: PswfBasis, m: int, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return basis.coefficients[m] @ legendre_table(basis.n_b - 1, x)


def _adjoint_image_values(c: float, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # int_{-1}^1 e^{-icxt} P_k-bar(t) dt = sqrt(k+1/2) * 2 (-i)^k j_k(cx),
    # with j_k(-z) = (-1)^k j_k(z)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size, dtype=complex)
    nz = np.nonzero(np.abs(coeffs) > 1e-16 * np.max(np.abs(coeffs)))[0]
    sgn = np.where(x < 0, -1.0, 1.0)
    az = c * np.abs(x)
    for k in nz:
        jk = np.array([spherical_bessel_ratio(int(k), float(z)) for z in az])
        out += coeffs[k] * math.sqrt(k + 0.5) * 2.0 * (-1j) ** int(k) \
            * sgn ** int(k) * jk
    return out


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
    vals = _adjoint_image_values(c, basis.coefficients[m], xg.nodes)
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
    lam, g = _symmetric_nystrom(Kl, grid, m_max + 1)
    return lam[: m_max + 1], g, grid


def pswf_cutoff_estimate(obs: ObservationWindow, basis: PswfBasis, N: int,
                         scale_b: float, nfft: int = 4096,
                         report_points: int = 1201,
                         report_halfwidth: float = 6.0):
    """Spectral cut-off estimate in the prolate system.

    Models the truth's transform as supported on [-1/scale_b, 1/scale_b]:
    F_hat(x) = scale_b * sum_m conj(phase_m)/mu_m * <obs, psi_m> * psi_m(scale_b x)
    inside the support, zero outside, then runs through the same uniform-grid
    inverse transform as the primary estimator. Returns (s_grid, values).
    """
    if N > basis.m_max:
        raise ValueError("truncation level exceeds the basis")
    if basis.mu[N] < 1e-13:
        raise ValueError("truncation level reaches untrusted singular values")
    ng = obs.samples.grid
    Psi_obs = np.stack([pswf_values(basis, m, ng.nodes) for m in range(N + 1)])
    d = Psi_obs @ (ng.weights * obs.samples.values)
    coef = np.conj(basis.phase[: N + 1]) / basis.mu[: N + 1] * d
    ug = uniform_grid(22.0 / scale_b, nfft)
    xu = ug.nodes
    inside = np.abs(scale_b * xu) <= 1.0
    F = np.zeros(xu.size, dtype=complex)
    Pin = np.stack([pswf_values(basis, m, scale_b * xu[inside])
                    for m in range(N + 1)])
    F[inside] = scale_b * (coef @ Pin)
    s_grid = np.linspace(obs.x0 - report_halfwidth, obs.x0 + report_halfwidth,
                         report_points)
    vals = _invert_transform(F, xu, ug.weights, obs.x0, s_grid)
    return s_grid, vals

