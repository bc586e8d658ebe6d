"""Singular value decomposition of the windowed Fourier transform.

Assembles triplets (sigma_m, phi_m, g_m): g_m are the unit eigenfunctions
of the sech-kernel operator at parameter c/b, sigma_m = sqrt(rho_m / c),
and phi_m = (adjoint of the transform applied to g_m) / sigma_m lives on a
symmetric real-line grid. Eigenpairs with rho above the dense-solver trust
floor come from the Nystrom route; deeper ones from the commuting-operator
route with rho recovered by the Rayleigh integral.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import QuadratureGrid, gauss_legendre
from .sech_operator import (
    OperatorParams,
    SampledFunction,
    apply_adjoint,
    nystrom_eigensystem,
    panel_grid,
    rho_rayleigh,
)
from .commuting_ode import galerkin_eigensystem

__all__ = [
    "SvdTriplet",
    "compute_svd",
    "rescale_phi",
    "phi_grid",
    "evaluate_g",
    "evaluate_phi",
    "svd_to_json_dict",
    "triplets_from_json_dict",
    "RAYLEIGH_TAIL_MULTIPLE",
]

# sech tail beyond tail_multiple*c is ~e^-60; eigenvalues within two decades
# of that truncation level are flagged untrusted
RAYLEIGH_TAIL_MULTIPLE = 60.0


@dataclass
class SvdTriplet:
    m: int
    b: float
    c: float
    sigma: float
    rho: float
    g: SampledFunction            # on (-1,1), unit L2 norm
    phi: SampledFunction          # complex, on the symmetric real-line grid
    trusted: bool


def phi_grid(b: float, nodes_per_panel: int = 16) -> QuadratureGrid:
    """Symmetric panel grid on (-T, T), T = 22/b, so sech(bT) < 1e-9.

    Unit-width panels cover |x| <= 6/b where sech^2 * cosh is order one;
    panel widths then grow geometrically (ratio 1.6) into the tails.
    """
    edges = [float(k) for k in range(7)]
    while edges[-1] < 22.0:
        edges.append(min(edges[-1] * 1.6, 22.0))
    edges = np.array(edges) / b
    return panel_grid(np.concatenate([-edges[::-1], edges[1:]]), nodes_per_panel)


def compute_svd(params: OperatorParams, m_max: int, n: int = None,
                n_b: int = None, nodes_per_panel: int = 16) -> list:
    """Singular triplets for m = 0..m_max, sorted by m.

    Indices whose rho sits within two decades of the Rayleigh-integral
    truncation floor are flagged untrusted but still returned.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cp = params.kernel_parameter
    ny = nystrom_eigensystem(cp, n=n, m_max=m_max)
    need_ode = any(ny.eigenvalues[m] <= ny.trust_floor for m in range(m_max + 1))
    ode = None
    if need_ode:
        ode = galerkin_eigensystem(cp, n_b=n_b, m_max=m_max)
    xgrid = phi_grid(params.b, nodes_per_panel)
    floor = 8 * max(cp, 1.0) * math.exp(-RAYLEIGH_TAIL_MULTIPLE)
    out = []
    for m in range(m_max + 1):
        if ny.eigenvalues[m] > ny.trust_floor:
            rho = float(ny.eigenvalues[m])
            g = ny.eigenfunction(m)
        else:
            gvals = ode.evaluate_g(m, ny.grid.nodes)
            g = SampledFunction(ny.grid, gvals)
            rho = rho_rayleigh(cp, g, tail_multiple=RAYLEIGH_TAIL_MULTIPLE)
        sigma = math.sqrt(rho / params.c)
        adj = apply_adjoint(params, g, xgrid)
        phi = SampledFunction(xgrid, adj.values / sigma)
        out.append(SvdTriplet(m=m, b=params.b, c=params.c, sigma=sigma,
                              rho=rho, g=g, phi=phi,
                              trusted=rho > 100.0 * floor))
    return out


def rescale_phi(b: float, c: float, triplet: SvdTriplet) -> SvdTriplet:
    """Triplet at (b, c) from one computed at (1, c/b).

    phi_m at (b,c) is sqrt(b) * phi_m at (1, c/b) evaluated at b*x, which on
    the sampled grid is a node relabeling, no interpolation; sigma picks up
    1/sqrt(b) and g is shared.
    """
    if not triplet.trusted:
        raise ValueError("source triplet is untrusted")
    if abs(triplet.b - 1.0) > 1e-12 or abs(triplet.c - c / b) > 1e-12:
        raise ValueError("source triplet must be at parameters (1, c/b)")
    src = triplet.phi
    grid = QuadratureGrid(src.grid.nodes / b, src.grid.weights / b,
                          (src.grid.interval[0] / b, src.grid.interval[1] / b))
    phi = SampledFunction(grid, src.values * math.sqrt(b))
    return SvdTriplet(m=triplet.m, b=b, c=c, sigma=triplet.sigma / math.sqrt(b),
                      rho=triplet.rho, g=triplet.g, phi=phi,
                      trusted=triplet.trusted)


def evaluate_g(triplet: SvdTriplet, s) -> np.ndarray:
    """g_m off-grid through its normalized-Legendre expansion.

    The samples sit on an n-point Gauss grid, so the projection
    a_k = sum_i w_i g(x_i) Pbar_k(x_i) is quadrature-exact well past the
    effective Legendre bandwidth of these eigenfunctions (about m + O(1)
    modes), and the evaluation cost and accuracy are uniform in m. The
    alternative identity g = K g / rho amplifies sampling error by 1/rho
    and is useless for the deep, small-rho indices this route must serve.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s) > 1.0):
        raise ValueError("g is defined on [-1, 1]")
    nodes = triplet.g.grid.nodes
    deg = min(nodes.size // 2, 180)
    norms = np.sqrt(np.arange(deg + 1) + 0.5)
    V = np.polynomial.legendre.legvander(nodes, deg) * norms
    a = V.T @ (triplet.g.grid.weights * triplet.g.values)
    return (np.polynomial.legendre.legvander(s, deg) * norms) @ a


def evaluate_phi(triplet: SvdTriplet, x) -> np.ndarray:
    """phi_m at arbitrary real points, from its defining adjoint integral."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ph = np.exp(-1j * triplet.c * x[:, None] * triplet.g.grid.nodes[None, :])
    vals = ph @ (triplet.g.grid.weights * triplet.g.values)
    return vals / np.cosh(triplet.b * x) / triplet.sigma


def svd_to_json_dict(triplets: list) -> dict:
    entries = []
    for t in triplets:
        entries.append({
            "m": t.m,
            "sigma": t.sigma,
            "rho": t.rho,
            "trusted": t.trusted,
            "g": {"nodes": t.g.grid.nodes.tolist(),
                  "values": np.real(t.g.values).tolist()},
            "phi": {"nodes": t.phi.grid.nodes.tolist(),
                    "re": np.real(t.phi.values).tolist(),
                    "im": np.imag(t.phi.values).tolist()},
        })
    return {"b": triplets[0].b, "c": triplets[0].c, "entries": entries}


def triplets_from_json_dict(doc: dict) -> list:
    """Rebuild triplets; quadrature weights are regenerated from the grid
    shapes (they are not serialized)."""
    b, c = float(doc["b"]), float(doc["c"])
    out = []
    for e in doc["entries"]:
        gnodes = np.array(e["g"]["nodes"])
        ggrid = gauss_legendre(gnodes.size)
        if not np.allclose(ggrid.nodes, gnodes, atol=1e-12):
            raise ValueError("g grid is not the standard Gauss grid")
        g = SampledFunction(ggrid, np.array(e["g"]["values"]))
        pnodes = np.array(e["phi"]["nodes"])
        pgrid = phi_grid(b, nodes_per_panel=_infer_panel_nodes(pnodes, b))
        if not np.allclose(pgrid.nodes, pnodes, atol=1e-9 / b):
            raise ValueError("phi grid does not match the standard panel grid")
        phi = SampledFunction(pgrid, np.array(e["phi"]["re"])
                              + 1j * np.array(e["phi"]["im"]))
        out.append(SvdTriplet(m=int(e["m"]), b=b, c=c, sigma=float(e["sigma"]),
                              rho=float(e["rho"]), g=g, phi=phi,
                              trusted=bool(e["trusted"])))
    return out


def _infer_panel_nodes(nodes: np.ndarray, b: float) -> int:
    n_panels = len(phi_grid(b, nodes_per_panel=1))
    if nodes.size % n_panels:
        raise ValueError("phi grid size is not a multiple of the panel count")
    return nodes.size // n_panels

