import math

import numpy as np
import pytest

from sechprolate.extrapolation import (ObservationWindow, builtin_case,
                                       l2_error)
from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import gauss_legendre

from oracles.pswf import (PswfBasis, pswf_adjoint_image, pswf_basis,
                          pswf_cutoff_estimate, pswf_values, sinc_nystrom)


def test_orthonormality(basis_c2):
    g = gauss_legendre(600)
    rows = np.stack([pswf_values(basis_c2, m, g.nodes) for m in range(11)])
    gram = (rows * g.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_parity(basis_c2):
    x = np.linspace(0.05, 0.95, 19)
    for m in range(11):
        left = pswf_values(basis_c2, m, -x)
        right = (-1) ** m * pswf_values(basis_c2, m, x)
        assert np.max(np.abs(left - right)) < 1e-12


def test_mu_strictly_decreasing(basis_c2):
    assert np.all(np.diff(basis_c2.mu) < 0)


def test_basis_too_small():
    with pytest.raises(ValueError):
        pswf_basis(2.0, m_max=10, n_b=30)
    with pytest.raises(ValueError):
        pswf_basis(0.0, m_max=4)


def test_sinc_nystrom_cross_check():
    """Independent route: the sinc kernel 2 sin(c(x-y))/(x-y) is c times the
    window transform composed with its adjoint, so it shares eigenfunctions
    with the tridiagonal construction and has eigenvalues c mu_m^2."""
    c = 4.0
    basis = pswf_basis(c, m_max=8)
    lam, g, grid = sinc_nystrom(c, n=300, m_max=8)
    for m in range(9):
        psi = pswf_values(basis, m, grid.nodes)
        err = math.sqrt(float(np.sum(grid.weights * (psi - g[:, m]) ** 2)))
        assert err < 1e-6, f"m={m}: {err:.2e}"
    assert np.max(np.abs(lam - c * basis.mu ** 2) / lam) < 1e-6


def test_adjoint_image_constant():
    # single Legendre mode: int e^{-icxt} Pbar_0 dt = sqrt(2) sin(cx)/(cx)
    c = 2.0
    coeffs = np.zeros((1, 8))
    coeffs[0, 0] = 1.0
    hand = PswfBasis(c=c, m_max=0, n_b=8, coefficients=coeffs,
                     mu=np.array([1.0]), phase=np.array([1.0 + 0j]))
    x = np.linspace(-1, 1, 41)
    img = pswf_adjoint_image(c, 0, x, basis=hand)
    ref = math.sqrt(2) * np.sinc(c * x / math.pi)
    assert np.max(np.abs(img - ref)) < 1e-13


def test_adjoint_image_norm_is_mu(basis_c2):
    g = gauss_legendre(777)
    for m in range(7):
        img = pswf_adjoint_image(2.0, m, g.nodes, basis=basis_c2)
        nrm = math.sqrt(float(np.sum(g.weights * np.abs(img) ** 2)))
        assert nrm == pytest.approx(basis_c2.mu[m], rel=1e-6), f"m={m}"


def test_adjoint_image_vs_quadrature(basis_c2):
    quad = gauss_legendre(500)
    psi3 = pswf_values(basis_c2, 3, quad.nodes)
    x = np.linspace(-1.0, 1.0, 20)
    img = pswf_adjoint_image(2.0, 3, x, basis=basis_c2)
    for i, xv in enumerate(x):
        ref = np.sum(quad.weights * np.exp(-2j * xv * quad.nodes) * psi3)
        assert abs(img[i] - ref) < 1e-9


def test_image_index_beyond_basis(basis_c2):
    with pytest.raises(ValueError):
        pswf_adjoint_image(2.0, 11, np.linspace(-1, 1, 5), basis=basis_c2)


def test_estimate_recovers_finite_combination(basis_c2):
    gamma = np.array([0.8, -0.3, 0.0, 0.45])
    g = gauss_legendre(512)
    vals = sum(gamma[k] * pswf_values(basis_c2, k, g.nodes) for k in range(4))
    w = g.weights * vals
    d = np.array([float(pswf_values(basis_c2, m, g.nodes) @ w)
                  for m in range(8)])
    ref = np.concatenate([gamma, np.zeros(4)])
    assert np.max(np.abs(d - ref)) < 1e-8


def test_estimate_orthogonal_observation_is_zero(basis_c2):
    g = gauss_legendre(512)
    vals = pswf_values(basis_c2, 1, g.nodes)     # orthogonal to psi_0
    obs = ObservationWindow(x0=0.0, c=0.5, delta=0.0,
                            samples=SampledFunction(g, vals))
    s, est = pswf_cutoff_estimate(obs, basis_c2, 0, scale_b=0.5)
    assert np.max(np.abs(est)) < 1e-12


def test_estimate_level_validation(basis_c2):
    g = gauss_legendre(64)
    obs = ObservationWindow(x0=0.0, c=0.5, delta=0.0,
                            samples=SampledFunction(g, np.zeros(64)))
    with pytest.raises(ValueError):
        pswf_cutoff_estimate(obs, basis_c2, 11, scale_b=0.5)
    deep = pswf_basis(0.5, m_max=14)
    assert deep.mu[14] < 1e-13
    with pytest.raises(ValueError):
        pswf_cutoff_estimate(obs, deep, 14, scale_b=0.5)


def test_case_b_window_error():
    """Benchmark case (b): the truth is bandlimited to [-6.5, 6.5], exactly
    the regime the prolate system models; on the observation window the
    N=2 estimate sits well inside the 2 delta budget."""
    obs, truth, params = builtin_case("b")
    basis = pswf_basis(0.5 / params.b, m_max=8)
    s, vals = pswf_cutoff_estimate(obs, basis, 2, scale_b=params.b,
                                   report_halfwidth=0.5)
    err = l2_error(s, vals, truth)
    assert err <= 2 * obs.delta
    assert err < 5e-4
