"""Singular value decomposition of the windowed Fourier transform.

Assembles triplets (sigma_m, phi_m, g_m): g_m are the unit eigenfunctions
of the sech-kernel operator at parameter c/b, sigma_m = sqrt(rho_m / c),
and phi_m = (adjoint of the transform applied to g_m) / sigma_m lives on a
symmetric real-line grid. Eigenpairs with rho above the dense-solver trust
floor come from the Nystrom route; deeper ones from the commuting-operator
route with rho recovered by the Rayleigh integral. The assembly is one pass
over all indices at once: the g_m are stacked as rows, the deep rows get
their rho from one batched Rayleigh integral, and every phi_m comes from
one adjoint applied to the whole stack.
"""
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander

from .special_functions import QuadratureGrid, gauss_legendre, phi_grid
from .sech_operator import (
    RAYLEIGH_TAIL_MULTIPLE,
    OperatorParams,
    SampledFunction,
    apply_adjoint,
    nystrom_eigensystem,
    rho_rayleigh,
)
from .commuting_ode import galerkin_eigensystem

__all__ = [
    "SvdTriplet",
    "compute_svd",
    "rescale_phi",
    "legendre_expansion",
    "evaluate_g",
    "evaluate_phi",
    "svd_to_json_dict",
    "triplets_from_json_dict",
]


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


def compute_svd(params: OperatorParams, m_max: int, n: int = None) -> list:
    """Singular triplets for m = 0..m_max, sorted by m.

    All indices are assembled in one pass over a stacked (m_max+1, n) array
    of g rows: the dense route's rows, the commuting-operator rows below its
    trust floor from one evaluate_g call, their rho from one rho_rayleigh
    call, and every phi from one apply_adjoint call onto phi_grid(b).

    Indices whose rho sits within two decades of the Rayleigh-integral
    truncation floor are flagged untrusted but still returned.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cp = params.kernel_parameter
    ny = nystrom_eigensystem(cp, n=n, m_max=m_max)
    rho = ny.eigenvalues[: m_max + 1].copy()
    G = ny.g_values[:, : m_max + 1].T.copy()
    deep = np.nonzero(rho <= ny.trust_floor)[0]
    if deep.size:
        ode = galerkin_eigensystem(cp, m_max=m_max)
        G[deep] = ode.evaluate_g(deep, ny.grid.nodes)
        rho[deep] = rho_rayleigh(cp, SampledFunction(ny.grid, G[deep]))
    sigma = np.sqrt(rho / params.c)
    xgrid = phi_grid(params.b)
    phi = apply_adjoint(params, SampledFunction(ny.grid, G), xgrid).values \
        / sigma[:, None]
    floor = 8 * max(cp, 1.0) * math.exp(-RAYLEIGH_TAIL_MULTIPLE)
    return [SvdTriplet(m=m, b=params.b, c=params.c, sigma=float(sigma[m]),
                       rho=float(rho[m]), g=SampledFunction(ny.grid, G[m]),
                       phi=SampledFunction(xgrid, phi[m]),
                       trusted=bool(rho[m] > 100.0 * floor))
            for m in range(m_max + 1)]


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


def legendre_expansion(grid: QuadratureGrid, values, s) -> np.ndarray:
    """Values at s of the normalized-Legendre expansions of samples on a
    Gauss grid; `values` holds one function per row (or is a single one).

    The projection a_k = sum_i w_i v(x_i) Pbar_k(x_i) is quadrature-exact
    well past the effective Legendre bandwidth of the g_m (about m + O(1)
    modes), so the evaluation cost and accuracy are uniform in m.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s) > 1.0):
        raise ValueError("g is defined on [-1, 1]")
    deg = min(grid.nodes.size // 2, 180)
    norms = np.sqrt(np.arange(deg + 1) + 0.5)
    a = (grid.weights * values) @ (legvander(grid.nodes, deg) * norms)
    return a @ (legvander(s, deg) * norms).T


def evaluate_g(triplet: SvdTriplet, s) -> np.ndarray:
    """g_m off-grid through its normalized-Legendre expansion.

    The alternative identity g = K g / rho amplifies sampling error by 1/rho
    and is useless for the deep, small-rho indices this route must serve.
    """
    return legendre_expansion(triplet.g.grid, triplet.g.values, s)


def evaluate_phi(triplet: SvdTriplet, x) -> np.ndarray:
    """phi_m at arbitrary real points, from its defining adjoint integral."""
    params = OperatorParams(b=triplet.b, c=triplet.c)
    return apply_adjoint(params, triplet.g, x).values / triplet.sigma


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
    shapes (they are not serialized). Every entry must sit on the Gauss
    grid of the first one's size and on phi_grid(b), so all triplets share
    one g grid and one phi grid."""
    b, c = float(doc["b"]), float(doc["c"])
    entries = doc["entries"]
    if not entries:
        raise ValueError("svd document has no entries")
    ggrid = gauss_legendre(len(entries[0]["g"]["nodes"]))
    pgrid = phi_grid(b)
    out = []
    for e in entries:
        gnodes = np.array(e["g"]["nodes"])
        if gnodes.shape != ggrid.nodes.shape \
                or not np.allclose(ggrid.nodes, gnodes, atol=1e-12):
            raise ValueError("g grid is not the standard Gauss grid")
        g = SampledFunction(ggrid, np.array(e["g"]["values"]))
        pnodes = np.array(e["phi"]["nodes"])
        if pnodes.shape != pgrid.nodes.shape \
                or not np.allclose(pgrid.nodes, pnodes, atol=1e-9 / b):
            raise ValueError("phi grid does not match the standard panel grid")
        phi = SampledFunction(pgrid, np.array(e["phi"]["re"])
                              + 1j * np.array(e["phi"]["im"]))
        out.append(SvdTriplet(m=int(e["m"]), b=b, c=c, sigma=float(e["sigma"]),
                              rho=float(e["rho"]), g=g, phi=phi,
                              trusted=bool(e["trusted"])))
    return out
