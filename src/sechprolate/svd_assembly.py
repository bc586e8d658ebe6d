"""Singular value decomposition of the windowed Fourier transform.

Assembles triplets (sigma_m, phi_m, g_m): g_m are the unit eigenfunctions
of the sech-kernel operator at parameter c/b, sigma_m = sqrt(rho_m / c),
and phi_m = (adjoint of the transform applied to g_m) / sigma_m, evaluated
where it is asked for; the SVD document holds it on a symmetric real-line
grid. Every index takes one route, the commuting differential operator
(Osipov, Rokhlin & Xiao 2013): its Galerkin eigenvectors give the g_m as
stacked rows on one Gauss grid and one Rayleigh integral every rho_m; the
dense Nystrom solve is only an oracle. The result is one SvdBasis, whose
arrays hold every index at once.
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

    It holds the eigenpairs (rho_m, g_m) of the kernel at c/b; sigma and
    trusted (rho above rayleigh_trust_floor(c/b)) derive from rho, and
    evaluate_phi gives phi. Entry k of rho and m, and row k of g.values,
    belong to index m[k]; a basis from compute_svd or the reader holds
    m = 0..M-1 in order, so there a row's position is its m. An int key
    gives one triplet (scalar fields, 1-D values); a slice, index array or
    boolean mask gives a sub-basis that keeps its labels. Iteration yields
    the triplets in row order.
    """
    b: float
    c: float
    rho: np.ndarray
    g: SampledFunction            # rows on one Gauss grid of (-1,1), unit L2 norm
    m: np.ndarray                 # index labels

    def __len__(self):
        return len(self.rho)

    def __getitem__(self, key):
        return SvdBasis(self.b, self.c, self.rho[key],
                        SampledFunction(self.g.grid, self.g.values[key]),
                        self.m[key])

    @property
    def sigma(self):
        return np.sqrt(self.rho / self.c)

    @property
    def trusted(self):
        return self.rho > rayleigh_trust_floor(self.c / self.b)

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
    """Singular triplets for m = 0..m_max, by one pass of the commuting
    operator (commuting_eigenpairs: one Galerkin eigensolve, one
    evaluate_g, one rho_rayleigh).

    Indices whose rho is at or below rayleigh_trust_floor are flagged
    untrusted but still returned.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    _, g, rho = commuting_eigenpairs(params.kernel_parameter, m_max, n)
    return SvdBasis(params.b, params.c, rho, g, np.arange(m_max + 1))


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
    adjoint integral phi_m = F* g_m / sigma_m; the document's phi rows are
    this on phi_grid(b)."""
    params = OperatorParams(b=svd.b, c=svd.c)
    return apply_adjoint(params, svd.g, x) / np.asarray(svd.sigma)[..., None]


def svd_to_json_dict(svd: SvdBasis) -> dict:
    xgrid = phi_grid(svd.b)
    phi = evaluate_phi(svd, xgrid.nodes)
    gnodes, pnodes = svd.g.grid.nodes.tolist(), xgrid.nodes.tolist()
    rows = zip(svd.m.tolist(), svd.sigma.tolist(), svd.rho.tolist(),
               svd.trusted.tolist(), svd.g.values.tolist(),
               phi.real.tolist(), phi.imag.tolist())
    entries = [{"m": m, "sigma": sigma, "rho": rho, "trusted": trusted,
                "g": {"nodes": gnodes, "values": g},
                "phi": {"nodes": pnodes, "re": re, "im": im}}
               for m, sigma, rho, trusted, g, re, im in rows]
    return {"b": svd.b, "c": svd.c, "entries": entries}


def triplets_from_json_dict(doc: dict) -> SvdBasis:
    """Rebuild the basis, checking the document against what the writer
    would write: valid (b, c), entries m = 0..M-1 in order, each exactly on
    the Gauss grid of the first one's size and on phi_grid(b), trusted a
    JSON boolean, sigma and rho numbers, every value finite, and sigma and
    trusted equal to those derived from rho. phi is checked, then dropped."""
    params = OperatorParams(b=float(doc["b"]), c=float(doc["c"]))
    entries = doc["entries"]
    if not entries:
        raise ValueError("svd document has no entries")
    if [e["m"] for e in entries] != list(range(len(entries))):
        raise ValueError("svd document entries are not m = 0..M-1 in order")
    ggrid = gauss_legendre(len(entries[0]["g"]["nodes"]))
    gnodes = ggrid.nodes.tolist()
    pnodes = phi_grid(params.b).nodes.tolist()
    for e in entries:
        # bool("false") is True, and a bool is an int: check the JSON types
        if not isinstance(e["trusted"], bool) or any(
                isinstance(e[k], bool) or not isinstance(e[k], (int, float))
                for k in ("sigma", "rho")):
            raise ValueError("sigma and rho must be numbers, trusted a boolean")
        if e["g"]["nodes"] != gnodes:
            raise ValueError("g grid is not the standard Gauss grid")
        if e["phi"]["nodes"] != pnodes:
            raise ValueError("phi grid does not match the standard panel grid")
    g = SampledFunction(ggrid, np.array([e["g"]["values"] for e in entries]))
    phi = np.array([(e["phi"]["re"], e["phi"]["im"]) for e in entries])
    if phi.shape != (len(entries), 2, len(pnodes)):
        raise ValueError("phi values do not match the phi grid")
    sigma = np.array([float(e["sigma"]) for e in entries])
    rho = np.array([float(e["rho"]) for e in entries])
    if not all(np.isfinite(v).all() for v in (sigma, rho, g.values, phi)):
        raise ValueError("svd document holds non-finite values")
    svd = SvdBasis(params.b, params.c, rho, g, np.arange(len(entries)))
    if not np.array_equal(sigma, svd.sigma):
        raise ValueError("stored sigma is not sqrt(rho / c)")
    if [e["trusted"] for e in entries] != svd.trusted.tolist():
        raise ValueError("stored trusted flags do not follow from rho")
    return svd
