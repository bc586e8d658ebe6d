"""Quadrature and special-function kernel shared by the rest of the package.

Everything here is dependency-light on purpose: Gauss-Legendre rules by
Newton iteration, the composite panel rules on the real line, normalized
Legendre polynomials by recurrence and their derivatives from those values
(the Galerkin weak form of commuting_ode needs both), and Carlson's
symmetric integral R_F, from which every elliptic integral of the package
is formed.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

# Gauss nodes on each panel of the phi grid
PHI_NODES_PER_PANEL = 16
# b T of the phi grid [-T, T]: sech(b T) < 1e-9 beyond it
REAL_LINE_HALF_WIDTH = 22.0

__all__ = [
    "QuadratureGrid",
    "gauss_legendre",
    "panel_grid",
    "phi_grid",
    "PHI_NODES_PER_PANEL",
    "REAL_LINE_HALF_WIDTH",
    "legendre_table",
    "legendre_derivative_table",
    "carlson_rf",
]


@dataclass(frozen=True)
class QuadratureGrid:
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return self.nodes.size


def _legendre_and_derivative(n, x):
    # P_n(x) and P_n'(x) by the three-term recurrence, vectorized in x
    p0 = np.ones_like(x)
    p1 = x.copy()
    if n == 0:
        return p0, np.zeros_like(x)
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def gauss_legendre(n: int) -> QuadratureGrid:
    """n-point Gauss-Legendre rule on (-1, 1); panel_grid maps rules onto
    other intervals.

    Nodes found by Newton iteration on P_n starting from the Chebyshev-type
    guesses cos(pi*(i+3/4)/(n+1/2)); one half computed, then mirrored so the
    rule is exactly symmetric, with the middle node of an odd rule exactly 0.

    Rules are memoised on n, so repeated calls return the same grid, whose
    nodes and weights are read-only: copy before writing.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    return _gauss_legendre_rule(int(n))


def panel_grid(edges, nodes_per_panel: int) -> QuadratureGrid:
    """Composite Gauss rule: nodes_per_panel-point Gauss on each [edges[i], edges[i+1]]."""
    edges = np.asarray(edges, dtype=float)
    base = gauss_legendre(nodes_per_panel)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(half * base.nodes + 0.5 * (a + b))
        ws.append(half * base.weights)
    return QuadratureGrid(np.concatenate(xs), np.concatenate(ws))


def phi_grid(b: float) -> QuadratureGrid:
    """Symmetric panel grid on (-T, T), T = REAL_LINE_HALF_WIDTH / b, with
    PHI_NODES_PER_PANEL Gauss nodes per panel; the phi_m of an SVD live here.

    Unit-width panels cover |x| <= 6/b where sech^2 * cosh is order one;
    panel widths then grow geometrically (ratio 1.6) into the tails.
    """
    edges = [float(k) for k in range(7)]
    while edges[-1] < REAL_LINE_HALF_WIDTH:
        edges.append(min(edges[-1] * 1.6, REAL_LINE_HALF_WIDTH))
    edges = np.array(edges) / b
    return panel_grid(np.concatenate([-edges[::-1], edges[1:]]),
                      PHI_NODES_PER_PANEL)


@functools.lru_cache(maxsize=64)
def _gauss_legendre_rule(n: int) -> QuadratureGrid:
    if n == 1:
        x = np.array([0.0])
        w = np.array([2.0])
    else:
        m = (n + 1) // 2
        i = np.arange(m)
        x = np.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        if n % 2:
            # P_n is odd: its middle root is exactly 0, where Newton leaves
            # a residue (about 1e-79 from n = 79) that would break the
            # symmetry
            x[m - 1] = 0.0
        p, dp = _legendre_and_derivative(n, x)
        w_half = 2.0 / ((1.0 - x * x) * dp * dp)
        if n % 2:
            # x[m-1] is the center node; keep a single copy
            x = np.concatenate([-x[: m - 1], x[::-1]])
            w = np.concatenate([w_half[: m - 1], w_half[::-1]])
        else:
            x = np.concatenate([-x, x[::-1]])
            w = np.concatenate([w_half, w_half[::-1]])
        order = np.argsort(x)
        x = x[order]
        w = w[order]
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureGrid(x, w)


def legendre_table(m_max: int, x) -> np.ndarray:
    """Values of the orthonormal Legendre polynomials 0..m_max, shape (m_max+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((m_max + 1, x.size))
    p0 = np.ones_like(x)
    p1 = x.copy()
    out[0] = p0
    if m_max >= 1:
        out[1] = p1
    for k in range(2, m_max + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        out[k] = p1
    out *= np.sqrt(np.arange(m_max + 1) + 0.5)[:, None]
    return out


def legendre_derivative_table(P: np.ndarray) -> np.ndarray:
    """Derivatives of the orthonormal Legendre polynomials, from their
    values P = legendre_table(m_max, x) and in the same layout.

    P'_k = P'_{k-2} + (2k-1) P_{k-1} on the unnormalized polynomials, so the
    derivatives of one parity are running sums of the other parity's
    values: (2j+1) P_j = 2 sqrt(j+1/2) P-bar_j.
    """
    m_max = P.shape[0] - 1
    r = np.sqrt(np.arange(m_max + 1) + 0.5)[:, None]
    terms = 2 * r * P
    D = np.zeros_like(P)
    D[1::2] = np.cumsum(terms[0::2], axis=0)[: (m_max + 1) // 2]
    D[2::2] = np.cumsum(terms[1::2], axis=0)[: m_max // 2]
    return D * r


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral
    R_F(x, y, z) = 1/2 int_0^inf ((r+x)(r+y)(r+z))^{-1/2} dr, elementwise,
    for 0 <= x, y, z < 4e307 with at most one of them 0;
    K(k) = R_F(0, 1 - k^2, 1).

    Carlson's duplication (Numer. Algorithms 10, 1995; DLMF 19.36.1) runs
    a fixed 20 steps, then the fifth-order series. 15 steps already bring
    arguments spread over 1e-303..1e303 to roundoff; a fixed count keeps
    each entry's value independent of the rest of its batch. The inputs
    are not converted, so scalars give numpy scalars.
    """
    for _ in range(20):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    a = (x + y + z) / 3
    dx, dy = 1 - x / a, 1 - y / a
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(a)
