import math

import numpy as np
import pytest
import scipy.integrate

from sechprolate.commuting_ode import galerkin_eigensystem
from sechprolate.sech_operator import (RAYLEIGH_TAIL_MULTIPLE, OperatorParams,
                                       SampledFunction, apply_adjoint, kernel,
                                       nystrom_eigensystem, rho_rayleigh)
from sechprolate.special_functions import (gauss_legendre, legendre_table,
                                           panel_grid, phi_grid)
from sechprolate.svd_assembly import compute_svd

from oracles.sech_operator import apply_forward, verify_factorization
from oracles.special_functions import spherical_bessel_ratio


def test_kernel_diagonal():
    for c in [0.3, 1.0, 4.0]:
        for x in [-0.7, 0.0, 0.9]:
            assert kernel(c, x, x) == pytest.approx(math.pi * c, rel=1e-15)


def test_kernel_point_value():
    assert kernel(1.0, 1.0, -1.0) == pytest.approx(math.pi / math.cosh(math.pi),
                                                   rel=1e-15)


def test_kernel_symmetry():
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 100))
    assert np.array_equal(kernel(0.8, x, y), kernel(0.8, y, x))


def test_trace_identity(ny_c1):
    assert ny_c1.trace_error() < 1e-10
    ny = nystrom_eigensystem(0.5, n=200, m_max=4)
    assert abs(np.sum(ny.eigenvalues) - 2 * math.pi * 0.5) < 1e-10 * math.pi


def test_eigenvalues_positive_decreasing(ny_c1):
    lam = ny_c1.eigenvalues[: ny_c1.m_max + 1]
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) < 0)


def test_monotone_in_c(ny_c1):
    ny_half = nystrom_eigensystem(0.5, m_max=10)
    assert np.all(ny_half.eigenvalues[:11] <= ny_c1.eigenvalues[:11])


def test_grid_refinement():
    r200 = nystrom_eigensystem(1.0, n=200, m_max=0).eigenvalues[0]
    r400 = nystrom_eigensystem(1.0, n=400, m_max=0).eigenvalues[0]
    assert r200 == pytest.approx(r400, rel=1e-10)


def test_eigenfunction_parity(ny_c1):
    for m in range(ny_c1.m_max + 1):
        g = ny_c1.g_values[:, m]
        flipped = g[::-1]
        w = ny_c1.grid.weights
        even = math.sqrt(np.sum(w * (g - flipped) ** 2))
        odd = math.sqrt(np.sum(w * (g + flipped) ** 2))
        assert min(even, odd) < 1e-8


def test_eigenfunctions_orthonormal(ny_c1):
    w = ny_c1.grid.weights
    G = ny_c1.g_values
    gram = (G * w[:, None]).T @ G
    assert np.max(np.abs(gram - np.eye(G.shape[1]))) < 1e-12


def test_untrusted_flagging():
    # the untrusted tail clusters at roundoff level
    ny = nystrom_eigensystem(0.1, m_max=12)
    assert not np.all(ny.trusted[:13])
    assert ny.eigenvalues[:13].size == 13      # reported, never dropped
    # trusted prefix, untrusted suffix; positivity only where trusted
    first_bad = int(np.argmin(ny.trusted[:13]))
    assert np.all(ny.trusted[:first_bad])
    assert not np.any(ny.trusted[first_bad:13])
    assert np.all(ny.eigenvalues[:first_bad] > ny.trust_floor)


def test_rho_rayleigh_constant_oracle():
    """g = 1/sqrt(2) has an analytic transform; outer integral by scipy.
    Below c = 1 the poles of sech(x/c) close in on the real axis: fixed
    unit panels were off by 2.0e-6 at c = 0.01 and 4.4e-9 at c = 0.02."""
    g = gauss_legendre(64)
    f = SampledFunction(g, np.full(64, 1 / math.sqrt(2)))
    for c in (0.01, 0.02, 0.25, 1.0):
        ref, _ = scipy.integrate.quad(
            lambda x: (2 / math.cosh(x / c) * (math.sin(x) / x) ** 2
                       if x != 0 else 2.0),
            0, 70 * c, limit=400, epsabs=0, epsrel=1e-13)
        assert rho_rayleigh(c, f) == pytest.approx(2 * ref, rel=1e-10), c


def test_rho_rayleigh_cross_method(ny_c1):
    for m in range(ny_c1.m_max + 1):
        lam = ny_c1.eigenvalues[m]
        if lam < 1e-10:
            continue
        rr = rho_rayleigh(1.0, ny_c1.eigenfunction(m))
        assert rr == pytest.approx(lam, rel=1e-6)
        assert rr >= 0


def test_rho_rayleigh_requires_unit_norm():
    g = gauss_legendre(32)
    with pytest.raises(ValueError):
        rho_rayleigh(1.0, SampledFunction(g, np.full(32, 2.0)))


def test_norm_of_stacked_rows():
    g = gauss_legendre(40)
    tab = legendre_table(4, g.nodes)
    scaled = tab * np.array([1.0, 2.0, 0.5, 3.0, 1.0])[:, None]
    got = SampledFunction(g, scaled).norm()
    assert got.shape == (5,)
    assert np.allclose(got, [1.0, 2.0, 0.5, 3.0, 1.0], rtol=1e-14, atol=0)
    one = SampledFunction(g, scaled[1]).norm()
    assert isinstance(one, float) and one == got[1]


def test_rho_rayleigh_stacked_matches_per_function(sample_g):
    """One call on stacked rows against one call per row: rel 1e-12 where
    rho > 1e-10, and within the route's own eps/sqrt(rho) scale below."""
    eps = np.finfo(float).eps
    for c in (0.5, 1.0):
        ode = galerkin_eigensystem(c, m_max=24)
        g = sample_g(ode, np.arange(25))
        stacked = rho_rayleigh(c, g)
        per = np.array([rho_rayleigh(c, SampledFunction(g.grid, row))
                        for row in g.values])
        assert stacked.shape == (25,)
        rel = np.abs(stacked - per) / per
        big = per > 1e-10
        assert np.all(rel[big] <= 1e-12)
        assert np.any(~big)
        assert np.all(rel[~big] <= eps / np.sqrt(per[~big]))


@pytest.mark.parametrize("c", [1.0, 4.0, 16.0, 32.0])
def test_rho_rayleigh_matches_unit_panels(c):
    """The Rayleigh integral takes 15 panels of length 4c, cut further
    where 4c exceeds RAYLEIGH_MAX_PANEL_LENGTH (c = 32). From c = 1 on, the
    poles of sech(x/c) are at least pi/2 from the real axis, so unit panels
    of 32 nodes, summed here, are an independent reference. On every row of
    m_max = 30 the two agree to max(1e-10, eps/sqrt(rho)) relative
    (measured at most 7.6e-11 at c = 1, 2.8e-12 at c = 16 and 8.7e-13 at
    c = 32; uncut 4c panels were off by 0.42 at c = 32)."""
    g = compute_svd(OperatorParams(b=1.0, c=c), m_max=30).g
    x_t = RAYLEIGH_TAIL_MULTIPLE * c
    quad = panel_grid(np.linspace(0.0, x_t, math.ceil(x_t) + 1), 32)
    wg = (g.grid.weights * g.values).T
    ref = np.zeros(len(g.values))
    for x, w in zip(np.array_split(quad.nodes, 32),
                    np.array_split(quad.weights, 32)):
        ph = x[:, None] * g.grid.nodes[None, :]
        ref += (w / np.cosh(x / c)) @ ((np.cos(ph) @ wg) ** 2
                                       + (np.sin(ph) @ wg) ** 2)
    ref *= 2.0
    rel = np.abs(rho_rayleigh(c, g) - ref) / ref
    eps = np.finfo(float).eps
    assert np.all(rel <= np.maximum(1e-10, eps / np.sqrt(ref))), np.max(rel)


def test_rho_rayleigh_checks_every_row(sample_g):
    g = sample_g(galerkin_eigensystem(1.0, m_max=4), np.arange(5))
    g.values[3] *= 1.001
    with pytest.raises(ValueError, match="normalized"):
        rho_rayleigh(1.0, g)


def _adjoint_longdouble(b, c, h, x):
    """sech(b x) sum_k w_k h_k e^{-i c x t_k} with cos/sin in longdouble,
    for real stacked rows h.values."""
    ph = (np.longdouble(c) * x.astype(np.longdouble)[:, None]
          * h.grid.nodes.astype(np.longdouble)[None, :])
    wh = (h.grid.weights * h.values).T.astype(np.longdouble)
    re = (np.cos(ph) @ wh).astype(float)
    im = (np.sin(ph) @ wh).astype(float)
    return (re - 1j * im).T / np.cosh(b * x)


@pytest.mark.parametrize("b", [1.0, 1 / 6.5, 2.0])
@pytest.mark.parametrize("c_over_b", [0.25, 0.5, 2.0, 4.0])
def test_factorised_adjoint_on_uniform_grid(b, c_over_b):
    """The adjoint of the factorisation c F F* = Q_{c/b} on equispaced
    nodes out to b T = 22, from 2 to 4097 of them: one row per function,
    stacked rows agree with one row, and every 7th node and both ends stay
    within 1e-13 max|ref| of a longdouble reference, per row."""
    params = OperatorParams(b=b, c=c_over_b * b)
    gl = gauss_legendre(200)
    t = gl.nodes
    h = SampledFunction(gl, np.stack([np.cos(1.3 * t) * np.exp(t),
                                      np.sin(2.7 * t + 0.4) / (1.5 - t)]))
    T = 22.0 / b
    for n in (2, 3, 1024, 2047, 4096, 4097):
        x = np.linspace(-T, T, n)
        adj = apply_adjoint(params, h, x)
        assert adj.shape == (2, n)
        one = apply_adjoint(params, SampledFunction(gl, h.values[1]), x)
        assert np.max(np.abs(one - adj[1])) <= 1e-13 * np.max(np.abs(one))
        idx = np.unique(np.r_[np.arange(0, n, 7), n - 1])
        ref = _adjoint_longdouble(b, params.c, h, x[idx])
        scale = np.max(np.abs(ref), axis=1)
        err = np.max(np.abs(adj[:, idx] - ref), axis=1)
        assert np.all(err <= 1e-13 * scale), (n, err / scale)


def test_adjoint_stacked_matches_per_row(sample_g):
    params = OperatorParams(b=1.0, c=0.5)
    g = sample_g(galerkin_eigensystem(0.5, m_max=20), np.arange(21))
    xg = phi_grid(1.0)
    stacked = apply_adjoint(params, g, xg.nodes)
    per = np.array([apply_adjoint(params, SampledFunction(g.grid, row), xg.nodes)
                    for row in g.values])
    assert stacked.shape == per.shape == (21, xg.nodes.size)
    assert np.max(np.abs(stacked - per)) <= 1e-13 * np.max(np.abs(per))
    x = np.array([-3.0, 0.4, 2.5])
    pts = apply_adjoint(params, SampledFunction(g.grid, g.values[:3]), x)
    assert pts.shape == (3, 3)


def test_forward_sech_closed_form():
    """The weight function itself transforms to a sech of the dual width."""
    for b, c in [(1.0, 1.0), (2.0, 0.5)]:
        params = OperatorParams(b=b, c=c)
        grid = phi_grid(b)
        f = SampledFunction(grid, 1 / np.cosh(b * grid.nodes))
        y = np.linspace(-1, 1, 21)
        out = apply_forward(params, f, y)
        ref = (math.pi / b) / np.cosh(math.pi * c * y / (2 * b))
        assert np.max(np.abs(out - ref)) < 1e-8
        assert np.max(np.abs(out.imag)) < 1e-12


def test_forward_zero():
    params = OperatorParams(b=1.0, c=1.0)
    grid = phi_grid(1.0)
    out = apply_forward(params, SampledFunction(grid, np.zeros(grid.nodes.size)),
                        np.linspace(-1, 1, 5))
    assert np.all(out == 0)


def test_forward_even_real():
    params = OperatorParams(b=1.0, c=1.0)
    grid = phi_grid(1.0)
    y = np.linspace(-1, 1, 41)
    for fun in [lambda x: np.exp(-x ** 2), lambda x: 1 / np.cosh(x) ** 2,
                lambda x: np.exp(-np.abs(x)) * np.cos(x),
                lambda x: 1 / (1 + x ** 2), lambda x: np.exp(-x ** 2) * np.cos(3 * x)]:
        out = apply_forward(params, SampledFunction(grid, fun(grid.nodes)), y)
        assert np.max(np.abs(out.imag)) < 1e-9
        assert np.max(np.abs(out - out[::-1])) < 1e-9


def test_forward_resolution_guard():
    params = OperatorParams(b=1.0, c=40.0)
    grid = phi_grid(1.0)
    f = SampledFunction(grid, 1 / np.cosh(grid.nodes))
    with pytest.raises(ValueError):
        apply_forward(params, f, np.linspace(-1, 1, 5))


def test_adjoint_constant():
    params = OperatorParams(b=1.0, c=1.0)
    g = gauss_legendre(64)
    h = SampledFunction(g, np.full(64, 1 / math.sqrt(2)))
    x = np.array([-3.0, -1.2, 0.4, 2.5])
    out = apply_adjoint(params, h, x)
    ref = math.sqrt(2) * np.sin(x) / x / np.cosh(x)
    assert np.max(np.abs(out - ref)) < 1e-13


def test_adjoint_legendre_bessel_form():
    """Adjoint image of a normalized Legendre polynomial in closed form;
    the conjugated kernel turns i^k into (-i)^k."""
    b, c = 1.0, 1.0
    params = OperatorParams(b=b, c=c)
    g = gauss_legendre(64)
    x = np.linspace(-2.5, 2.5, 20)
    tab = legendre_table(6, g.nodes)
    for k in range(7):
        out = apply_adjoint(params, SampledFunction(g, tab[k]), x)
        jk = np.array([spherical_bessel_ratio(k, c * abs(xi)) for xi in x])
        ref = (math.sqrt(k + 0.5) * 2 * (-1j) ** k * np.sign(x) ** k * jk
               / np.cosh(b * x))
        assert np.max(np.abs(out - ref)) < 1e-12


def test_adjointness():
    rng = np.random.default_rng(7)
    params = OperatorParams(b=1.0, c=1.0)
    xg = phi_grid(1.0)
    yg = gauss_legendre(48)
    for _ in range(5):
        a = rng.standard_normal(3)
        f = SampledFunction(xg, np.exp(-xg.nodes ** 2)
                            * (a[0] + a[1] * xg.nodes + a[2] * np.cos(xg.nodes)))
        h = SampledFunction(yg, np.cos(rng.uniform(1, 4) * yg.nodes)
                            + rng.standard_normal() * yg.nodes)
        lhs = np.sum(yg.weights * apply_forward(params, f, yg.nodes)
                     * np.conj(h.values))
        adj = apply_adjoint(params, h, xg.nodes)
        rhs = np.sum(xg.weights * np.cosh(xg.nodes) * f.values * np.conj(adj))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_factorization_constant():
    g = gauss_legendre(64)
    h = SampledFunction(g, np.full(64, 1 / math.sqrt(2)))
    assert verify_factorization(OperatorParams(b=1.0, c=1.0), h) < 1e-8


def test_factorization_trig():
    rng = np.random.default_rng(7)
    g = gauss_legendre(64)
    vals = sum(rng.standard_normal() * np.cos(k * g.nodes)
               + rng.standard_normal() * np.sin(k * g.nodes) for k in range(4))
    assert verify_factorization(OperatorParams(b=2.0, c=0.5),
                                SampledFunction(g, vals)) < 1e-8


def test_factorization_zero():
    g = gauss_legendre(32)
    assert verify_factorization(OperatorParams(b=1.0, c=1.0),
                                SampledFunction(g, np.zeros(32))) == 0.0
