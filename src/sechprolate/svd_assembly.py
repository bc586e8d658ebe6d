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
from dataclasses import dataclass

import numpy as np

from .special_functions import gauss_legendre, phi_grid
from .sech_operator import (
    OperatorParams,
    SampledFunction,
    apply_adjoint,
    nystrom_grid_size,
    rayleigh_trust_floor,
    rho_rayleigh,
)
from .commuting_ode import galerkin_eigensystem

__all__ = [
    "SvdBasis",
    "commuting_eigenpairs",
    "compute_svd",
    "evaluate_g",
    "evaluate_phi",
    "svd_to_json_dict",
    "triplets_from_json_dict",
]

G_BLOCK = 256             # points per block of evaluate_g's interpolation matrix


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

    Indices whose rho is at or below rayleigh_trust_floor are flagged
    untrusted but still returned.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cp = params.kernel_parameter
    _, g, rho = commuting_eigenpairs(cp, m_max, n)
    sigma = np.sqrt(rho / params.c)
    xgrid = phi_grid(params.b)
    phi = apply_adjoint(params, g, xgrid.nodes) / sigma[:, None]
    return SvdBasis(params.b, params.c, sigma, rho,
                    rho > rayleigh_trust_floor(cp), g,
                    SampledFunction(xgrid, phi), np.arange(m_max + 1))


def evaluate_g(svd: SvdBasis, s) -> np.ndarray:
    """Every g_m of the basis at the points s in [-1, 1]: one row per index,
    or 1-D values for a single triplet.

    The value is the polynomial interpolant of the stored samples on the
    n-point Gauss grid, by the barycentric formula with the closed-form
    weights lambda_j = (-1)^j sqrt((1 - x_j^2) w_j) (Berrut & Trefethen,
    SIAM Review 46, 2004; Wang, Huybrechs & Vandewalle, Math. Comp. 83,
    2014). A point equal to a node returns that node's sample exactly. So
    the g grid alone decides how well g is resolved: against
    OdeSpectrum.evaluate_g at m_max 12 (n = 260) the largest error is
    2.8e-12 up to c/b = 100, ends included; at m_max 8 (n = 200) it is
    8.6e-9 at c/b = 16 and 8.0e-5 at c/b = 100, the grid's own residue.
    The (points x n) matrix is formed G_BLOCK points at a time.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.abs(s) <= 1.0):     # written so that nan fails too
        raise ValueError("g is defined on [-1, 1]")
    x = svd.g.grid.nodes
    lam = np.sqrt((1.0 - x * x) * svd.g.grid.weights)
    lam[1::2] *= -1.0
    j = np.minimum(np.searchsorted(x, s), x.size - 1)   # the nodes ascend
    hit = x[j] == s
    out = np.empty(svd.g.values.shape[:-1] + (s.size,))
    with np.errstate(divide="ignore"):
        for lo in range(0, s.size, G_BLOCK):
            C = s[lo: lo + G_BLOCK, None] - x
            np.divide(lam, C, out=C)
            k = np.flatnonzero(hit[lo: lo + G_BLOCK])
            C[k] = 0.0
            C[k, j[lo + k]] = 1.0
            out[..., lo: lo + G_BLOCK] = (svd.g.values @ C.T) / C.sum(axis=1)
    return out


def evaluate_phi(svd: SvdBasis, x) -> np.ndarray:
    """Every phi_m of the basis at arbitrary real points, from its defining
    adjoint integral."""
    params = OperatorParams(b=svd.b, c=svd.c)
    return apply_adjoint(params, svd.g, x) / np.asarray(svd.sigma)[..., None]


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
    order, every entry must sit on the Gauss grid of the first one's size
    and on phi_grid(b), its trusted must be a JSON boolean and its sigma
    and rho numbers, and sigma, rho, g and phi must be finite."""
    b, c = float(doc["b"]), float(doc["c"])
    entries = doc["entries"]
    if not entries:
        raise ValueError("svd document has no entries")
    if [e["m"] for e in entries] != list(range(len(entries))):
        raise ValueError("svd document entries are not m = 0..M-1 in order")
    ggrid = gauss_legendre(len(entries[0]["g"]["nodes"]))
    pgrid = phi_grid(b)
    for e in entries:
        # bool("false") is True, and a bool is an int: check the JSON types
        if not isinstance(e["trusted"], bool) or any(
                isinstance(e[k], bool) or not isinstance(e[k], (int, float))
                for k in ("sigma", "rho")):
            raise ValueError("sigma and rho must be numbers, trusted a boolean")
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
    sigma = np.array([float(e["sigma"]) for e in entries])
    rho = np.array([float(e["rho"]) for e in entries])
    if not all(np.isfinite(v).all() for v in (sigma, rho, g.values, phi.values)):
        raise ValueError("svd document holds non-finite values")
    return SvdBasis(b, c, sigma, rho, np.array([e["trusted"] for e in entries]),
                    g, phi, np.arange(len(entries)))
