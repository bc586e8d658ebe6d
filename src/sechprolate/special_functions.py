"""Quadrature and special-function kernel shared by the rest of the package.

Everything here is dependency-light on purpose: Gauss-Legendre rules by
Newton iteration, the composite panel rules on the real line, normalized
Legendre polynomials by recurrence, and the arithmetic-geometric mean,
from which every complete elliptic integral is formed with its exact
complementary modulus.
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
    "agm",
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


def gauss_legendre(n: int, interval=(-1.0, 1.0)) -> QuadratureGrid:
    """n-point Gauss-Legendre rule on (lo, hi).

    Nodes found by Newton iteration on P_n starting from the Chebyshev-type
    guesses cos(pi*(i+3/4)/(n+1/2)); one half computed, then mirrored so the
    rule is exactly symmetric.

    Rules are memoised on (n, lo, hi), so repeated calls return the same
    grid, whose nodes and weights are read-only: copy before writing.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if n < 1:
        raise ValueError("need at least one quadrature node")
    if not lo < hi:
        raise ValueError("interval endpoints must satisfy lo < hi")
    return _gauss_legendre_rule(int(n), lo, hi)


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
def _gauss_legendre_rule(n: int, lo: float, hi: float) -> QuadratureGrid:
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
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes, weights = half * x + mid, half * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureGrid(nodes, weights)


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
    for k in range(m_max + 1):
        out[k] *= math.sqrt(k + 0.5)
    return out


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a, b >= 0; K(k) = pi / (2 agm(1, k'))
    with k' the complementary modulus, passed in closed form by every
    caller: sqrt(1 - k^2) cancels near k = 1."""
    for _ in range(60):
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a

