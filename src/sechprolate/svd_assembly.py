"""Singular value decomposition of the windowed Fourier transform.

Assembles triplets (sigma_m, phi_m, g_m): g_m are the unit eigenfunctions
of the sech-kernel operator at parameter c/b, sigma_m = sqrt(rho_m / c),
and phi_m = (adjoint of the transform applied to g_m) / sigma_m lives on a
symmetric real-line grid. Every index takes one route, the commuting
differential operator (Osipov, Rokhlin & Xiao 2013): its Galerkin
eigenvectors give the g_m as stacked rows on one Gauss grid, one Rayleigh
integral every rho_m, and one adjoint every phi_m; the dense Nystrom
solve is only an oracle. The result is one SvdBasis, whose arrays hold
every index at once.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (QuadratureGrid, gauss_legendre,
                                legendre_table, phi_grid)
from .sech_operator import (
    RAYLEIGH_TAIL_MULTIPLE,
    OperatorParams,
    SampledFunction,
    apply_adjoint,
    nystrom_grid_size,
    rho_rayleigh,
)
from .commuting_ode import galerkin_eigensystem

__all__ = [
    "SvdBasis",
    "commuting_eigenpairs",
    "compute_svd",
    "rescale_phi",
    "evaluate_g",
    "evaluate_phi",
    "svd_to_json_dict",
    "triplets_from_json_dict",
]


@dataclass(eq=False)
class SvdBasis:
    """Singular triplets (sigma_m, phi_m, g_m) at (b, c) as arrays.

    Entry k of sigma, rho, trusted and m, and row k of g.values and
    phi.values, belong to index m[k]; a basis from compute_svd or the
    reader holds m = 0..M-1 in order, so there a row's position is its m.
    An int key gives one triplet (scalar fields, 1-D values); a slice,
    index array or boolean mask gives a sub-basis that keeps its labels.
    Iteration yields the triplets in row order.
    """
    b: float
    c: float
    sigma: np.ndarray
    rho: np.ndarray
    trusted: np.ndarray
    g: SampledFunction            # rows on one Gauss grid of (-1,1), unit L2 norm
    phi: SampledFunction          # complex rows on phi_grid(b)
    m: np.ndarray                 # index labels

    def __len__(self):
        return len(self.sigma)

    def __getitem__(self, key):
        return SvdBasis(self.b, self.c, self.sigma[key], self.rho[key],
                        self.trusted[key],
                        SampledFunction(self.g.grid, self.g.values[key]),
                        SampledFunction(self.phi.grid, self.phi.values[key]),
                        self.m[key])

    @property
    def last_trusted(self) -> int:
        """Largest trusted index m, -1 if no index is trusted."""
        return int(np.max(self.m, initial=-1, where=self.trusted))


def commuting_eigenpairs(c: float, m_max: int, n: int = None):
    """(OdeSpectrum, g, rho) for m = 0..m_max of the kernel at parameter c:
    the g_m as unit rows on the nystrom_grid_size(m_max, n) Gauss grid
    (unit in L2 already; renormalised once on that grid, the one place that
    does), and every rho_m from one Rayleigh integral."""
    ode = galerkin_eigensystem(c, m_max=m_max)
    grid = gauss_legendre(nystrom_grid_size(m_max, n))
    G = ode.evaluate_g(np.arange(m_max + 1), grid.nodes)
    g = SampledFunction(grid, G / SampledFunction(grid, G).norm()[:, None])
    return ode, g, rho_rayleigh(c, g)


def compute_svd(params: OperatorParams, m_max: int, n: int = None) -> SvdBasis:
    """Singular triplets for m = 0..m_max.

    One pass by the commuting operator (commuting_eigenpairs: one Galerkin
    eigensolve, one evaluate_g, one rho_rayleigh) and one apply_adjoint
    onto phi_grid(b) for every phi.

    Indices whose rho sits within two decades of the Rayleigh-integral
    truncation floor are flagged untrusted but still returned.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cp = params.kernel_parameter
    _, g, rho = commuting_eigenpairs(cp, m_max, n)
    sigma = np.sqrt(rho / params.c)
    xgrid = phi_grid(params.b)
    phi = apply_adjoint(params, g, xgrid).values / sigma[:, None]
    floor = 8 * max(cp, 1.0) * math.exp(-RAYLEIGH_TAIL_MULTIPLE)
    return SvdBasis(params.b, params.c, sigma, rho, rho > 100.0 * floor, g,
                    SampledFunction(xgrid, phi), np.arange(m_max + 1))


def rescale_phi(b: float, c: float, svd: SvdBasis) -> SvdBasis:
    """Basis at (b, c) from one computed at (1, c/b).

    phi_m at (b,c) is sqrt(b) * phi_m at (1, c/b) evaluated at b*x, which on
    the sampled grid is a node relabeling, no interpolation; sigma picks up
    1/sqrt(b) and g is shared. Every row of the source must be trusted.
    """
    if not np.all(svd.trusted):
        raise ValueError("source basis has untrusted rows")
    if abs(svd.b - 1.0) > 1e-12 or abs(svd.c - c / b) > 1e-12:
        raise ValueError("source basis must be at parameters (1, c/b)")
    src = svd.phi
    grid = QuadratureGrid(src.grid.nodes / b, src.grid.weights / b,
                          (src.grid.interval[0] / b, src.grid.interval[1] / b))
    phi = SampledFunction(grid, src.values * math.sqrt(b))
    return SvdBasis(b, c, svd.sigma / math.sqrt(b), svd.rho, svd.trusted,
                    svd.g, phi, svd.m)


def evaluate_g(svd: SvdBasis, s) -> np.ndarray:
    """Every g_m of the basis at the points s, through its normalized-Legendre
    expansion: one row per index, or 1-D values for a single triplet.

    The projection a_k = sum_i w_i g(x_i) Pbar_k(x_i) stops at degree
    min(n/2, 180) of the n-point g grid. In x the g_m carry Legendre content
    past that degree once c/b is large: against OdeSpectrum.evaluate_g at
    m_max 12 the largest error is 1.9e-8 at c/b = 16 and 1.2e-4 at
    c/b = 100 (ROADMAP item 3 replaces this re-projection by the Galerkin
    coefficients). The alternative identity g = K g / rho amplifies
    sampling error by 1/rho and is useless for the deep, small-rho indices.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s) > 1.0):
        raise ValueError("g is defined on [-1, 1]")
    grid = svd.g.grid
    deg = min(grid.nodes.size // 2, 180)
    a = (grid.weights * svd.g.values) @ legendre_table(deg, grid.nodes).T
    return a @ legendre_table(deg, s)


def evaluate_phi(svd: SvdBasis, x) -> np.ndarray:
    """Every phi_m of the basis at arbitrary real points, from its defining
    adjoint integral."""
    params = OperatorParams(b=svd.b, c=svd.c)
    return apply_adjoint(params, svd.g, x).values \
        / np.asarray(svd.sigma)[..., None]


def svd_to_json_dict(svd: SvdBasis) -> dict:
    gnodes = svd.g.grid.nodes.tolist()
    pnodes = svd.phi.grid.nodes.tolist()
    rows = zip(svd.m.tolist(), svd.sigma.tolist(), svd.rho.tolist(),
               svd.trusted.tolist(), np.real(svd.g.values).tolist(),
               np.real(svd.phi.values).tolist(),
               np.imag(svd.phi.values).tolist())
    entries = [{"m": m, "sigma": sigma, "rho": rho, "trusted": trusted,
                "g": {"nodes": gnodes, "values": g},
                "phi": {"nodes": pnodes, "re": re, "im": im}}
               for m, sigma, rho, trusted, g, re, im in rows]
    return {"b": svd.b, "c": svd.c, "entries": entries}


def triplets_from_json_dict(doc: dict) -> SvdBasis:
    """Rebuild the basis; quadrature weights are regenerated from the grid
    shapes (they are not serialized). The entries must be m = 0..M-1 in
    order, and every entry must sit on the Gauss grid of the first one's
    size and on phi_grid(b)."""
    b, c = float(doc["b"]), float(doc["c"])
    entries = doc["entries"]
    if not entries:
        raise ValueError("svd document has no entries")
    if [e["m"] for e in entries] != list(range(len(entries))):
        raise ValueError("svd document entries are not m = 0..M-1 in order")
    ggrid = gauss_legendre(len(entries[0]["g"]["nodes"]))
    pgrid = phi_grid(b)
    for e in entries:
        gnodes = np.array(e["g"]["nodes"])
        if gnodes.shape != ggrid.nodes.shape \
                or not np.allclose(ggrid.nodes, gnodes, atol=1e-12):
            raise ValueError("g grid is not the standard Gauss grid")
        pnodes = np.array(e["phi"]["nodes"])
        if pnodes.shape != pgrid.nodes.shape \
                or not np.allclose(pgrid.nodes, pnodes, atol=1e-9 / b):
            raise ValueError("phi grid does not match the standard panel grid")
    g = SampledFunction(ggrid, np.array([e["g"]["values"] for e in entries]))
    phi = SampledFunction(pgrid, np.array([e["phi"]["re"] for e in entries])
                          + 1j * np.array([e["phi"]["im"] for e in entries]))
    return SvdBasis(b, c, np.array([float(e["sigma"]) for e in entries]),
                    np.array([float(e["rho"]) for e in entries]),
                    np.array([bool(e["trusted"]) for e in entries]), g, phi,
                    np.arange(len(entries)))
