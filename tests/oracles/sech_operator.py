"""The forward windowed transform, the factorisation self-check, and the
Rayleigh integral and adjoint on the whole grid, unfolded."""
import math

import numpy as np

from sechprolate.sech_operator import (RAYLEIGH_MAX_PANEL_LENGTH,
                                       RAYLEIGH_NODES, RAYLEIGH_PANELS,
                                       RAYLEIGH_TAIL_MULTIPLE, OperatorParams,
                                       SampledFunction, apply_adjoint, kernel)
from sechprolate.special_functions import panel_grid

from .special_functions import real_line_grid


def apply_forward(params: OperatorParams, f: SampledFunction, y_grid) -> np.ndarray:
    """Windowed Fourier transform: (F f)(y) = int e^{i c y t} f(t) dt for y in [-1,1].

    f lives on a real-line quadrature grid covering the decay of the
    cosh-weighted space. Returns the values at the points y_grid.
    """
    y = np.atleast_1d(np.asarray(y_grid, dtype=float))
    t = f.grid.nodes
    T = float(np.max(np.abs(t)))
    if params.c * T / math.pi > t.size / 4:
        raise ValueError("grid too coarse for the oscillation of the transform")
    ph = np.exp(1j * params.c * y[:, None] * t[None, :])
    return ph @ (f.grid.weights * f.values)


def verify_factorization(params: OperatorParams, h: SampledFunction) -> float:
    """Relative residual of the factorization c * F F* h = Q_{c/b} h."""
    xg = real_line_grid(params.b)
    # the sech factor of the adjoint is already in adj, and the forward map
    # is a plain (unweighted) integral of it
    adj = SampledFunction(xg, apply_adjoint(params, h, xg.nodes))
    lhs = params.c * apply_forward(params, adj, h.grid.nodes)
    cp = params.kernel_parameter
    K = kernel(cp, h.grid.nodes[:, None], h.grid.nodes[None, :])
    rhs = K @ (h.grid.weights * h.values)
    num = math.sqrt(float(np.sum(h.grid.weights * np.abs(lhs - rhs) ** 2)))
    den = h.norm()
    return num / den if den > 0 else 0.0


def rho_rayleigh_unfolded(c: float, g: SampledFunction):
    """rho_rayleigh with cos and sin of x t formed at every node of the
    grid, on the same outer panels: no symmetry of the grid is used."""
    xg = g.grid.nodes
    wg = (g.grid.weights * np.real(g.values)).T
    x_t = RAYLEIGH_TAIL_MULTIPLE * c
    panels = max(RAYLEIGH_PANELS, math.ceil(x_t / RAYLEIGH_MAX_PANEL_LENGTH))
    quad = panel_grid(np.linspace(0.0, x_t, panels + 1), RAYLEIGH_NODES)
    total = 0.0
    for xi, wi in zip(quad.nodes.reshape(panels, RAYLEIGH_NODES),
                      quad.weights.reshape(panels, RAYLEIGH_NODES)):
        ph = xi[:, None] * xg[None, :]
        re = np.cos(ph) @ wg
        im = np.sin(ph) @ wg
        total = total + (wi / np.cosh(xi / c)) @ (re * re + im * im)
    return 2.0 * total


def apply_adjoint_unfolded(params: OperatorParams, h: SampledFunction,
                           x) -> np.ndarray:
    """apply_adjoint as one complex exponential matrix on the whole grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = h.grid.nodes
    ph = np.exp(-1j * params.c * x[:, None] * t[None, :])
    vals = (ph @ (h.grid.weights * h.values).T).T
    return vals / np.cosh(params.b * x)
