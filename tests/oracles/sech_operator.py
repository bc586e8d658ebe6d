"""The forward windowed transform and the factorisation self-check."""
import math

import numpy as np

from sechprolate.sech_operator import (OperatorParams, SampledFunction,
                                       apply_adjoint, kernel)

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
