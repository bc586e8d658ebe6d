"""The sech-kernel convolution operator on (-1,1) and the windowed Fourier transform.

Q_c acts on L2(-1,1) with kernel pi*c*sech(pi*c*(x-y)/2). It factors as
c*F F* where F maps L2(cosh(b.)) to L2(-1,1) by restricting the Fourier
transform to a window, with effective parameter c/b. The Rayleigh integral
gives the SVD every eigenvalue, far below what a dense solver can see. The
Nystrom discretization, the independent dense oracle, refines its small
eigenpairs in extended precision, so that eigenvectors stay accurate down
to eigenvalues around 1e-10.
"""
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import QuadratureGrid, gauss_legendre, panel_grid

__all__ = [
    "OperatorParams",
    "check_c",
    "SampledFunction",
    "NystromSpectrum",
    "kernel",
    "nystrom_eigensystem",
    "rho_rayleigh",
    "rayleigh_trust_floor",
    "apply_adjoint",
    "refine_eigh_block",
    "symmetric_nystrom_eigenpairs",
    "nystrom_grid_size",
    "TRUST_FLOOR_FACTOR",
    "RAYLEIGH_TAIL_MULTIPLE",
    "RAYLEIGH_PANELS",
    "RAYLEIGH_MAX_PANEL_LENGTH",
    "RAYLEIGH_NODES",
    "REFINE_WINDOW",
    "REFINE_SWEEPS",
]

# eigenvalues below TRUST_FLOOR_FACTOR * eps * rho_0 are roundoff-dominated
TRUST_FLOOR_FACTOR = 1e3
# float64 eigenpairs with eigenvalues in this window are refined in
# longdouble; above it float64 vectors are accurate enough, below it the
# pairs are roundoff noise that no refinement recovers
REFINE_WINDOW = (1e-15, 1e-4)
REFINE_SWEEPS = 2
# the Rayleigh integral is truncated at RAYLEIGH_TAIL_MULTIPLE * c, where the
# sech tail is ~e^-60; see rayleigh_trust_floor
RAYLEIGH_TAIL_MULTIPLE = 60.0
# Rayleigh panels: 15 of length 4c, cut to at most 64, with 48 nodes each;
# see rho_rayleigh
RAYLEIGH_PANELS = 15
RAYLEIGH_MAX_PANEL_LENGTH = 64.0
RAYLEIGH_NODES = 48


@dataclass(frozen=True)
class OperatorParams:
    b: float
    c: float

    def __post_init__(self):
        # written so that nan fails too
        if not (0 < self.b < math.inf and 0 < self.c < math.inf):
            raise ValueError("parameters b and c must be positive and finite")

    @property
    def kernel_parameter(self):
        return self.c / self.b


def check_c(c: float):
    """The check on a bare c (or c/b); written so that nan fails too."""
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")


@dataclass
class SampledFunction:
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[-1] != self.grid.nodes.size:
            raise ValueError("values length does not match grid length")

    def norm(self):
        """L2 norm on the grid: a float for one function, one norm per row
        for stacked (M, n) values."""
        r = np.sqrt(np.sum(self.grid.weights * np.abs(self.values) ** 2, axis=-1))
        return float(r) if r.ndim == 0 else r


def kernel(c: float, x, y):
    """Kernel of Q_c: pi*c*sech(pi*c*(x-y)/2). Symmetric, positive, entire."""
    check_c(c)
    return math.pi * c / np.cosh(math.pi * c * (np.asarray(x) - np.asarray(y)) / 2.0)


def refine_eigh_block(A_ld, lam, V, count):
    """Residual-correction refinement of small eigenpairs, in place.

    lam (descending) and V come from a float64 eigh of A_ld.astype(float64).
    Float64 eigenVECTORS of eigenvalues near 1e-10 carry errors of order
    eps/gap, about 1e-6. Each of the first `count` pairs whose eigenvalue
    lies in REFINE_WINDOW gets REFINE_SWEEPS sweeps of
    x += V (V^T r) / (mu - lam), where r = A_ld x - mu x and the Rayleigh
    quotient mu are formed in longdouble and the target's own direction is
    left out (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983).
    The refined mu and x replace the float64 pair.
    """
    idx = np.nonzero((lam[:count] > REFINE_WINDOW[0])
                     & (lam[:count] < REFINE_WINDOW[1]))[0]
    if idx.size == 0:
        return
    own = (idx, np.arange(idx.size))
    X = V[:, idx].astype(np.longdouble)
    AX = A_ld @ X
    for _ in range(REFINE_SWEEPS):
        mu = np.sum(X * AX, axis=0)          # the columns of X are unit
        C = V.T @ (AX - X * mu).astype(np.float64)
        D = mu.astype(np.float64)[None, :] - lam[:, None]
        C[own] = 0.0
        D[own] = 1.0
        step = C / D
        X += V @ step
        # A_ld V = V diag(lam) up to float64 roundoff, which the small step
        # scales far below the longdouble residual
        AX += V @ (lam[:, None] * step)
        nrm = np.sqrt(np.sum(X * X, axis=0))
        X /= nrm
        AX /= nrm
    mu = np.sum(X * AX, axis=0)
    lam[idx] = mu
    V[:, idx] = X


@dataclass
class NystromSpectrum:
    c: float
    n: int
    grid: QuadratureGrid
    eigenvalues: np.ndarray          # all n, decreasing
    g_values: np.ndarray             # (n_nodes, m_max+1), unit L2(-1,1) norm
    m_max: int
    trust_floor: float

    @property
    def trusted(self):
        return self.eigenvalues[: self.m_max + 1] > self.trust_floor

    def eigenfunction(self, m: int) -> SampledFunction:
        return SampledFunction(self.grid, self.g_values[:, m].copy())

    def trace_error(self):
        return abs(float(self.eigenvalues.sum()) - 2 * math.pi * self.c)


def nystrom_grid_size(m_max: int, n: int = None) -> int:
    """Gauss grid size of the g samples and the dense oracle, m = 0..m_max:
    n if given, else max(200, 20 (m_max+1)); at least 4 (m_max+1) needed."""
    if n is None:
        n = max(200, 20 * (m_max + 1))
    if n < 4 * (m_max + 1):
        raise ValueError("grid too small for the requested number of eigenpairs")
    return n


def symmetric_nystrom_eigenpairs(Kl, grid: QuadratureGrid, count: int):
    """Eigenpairs of a symmetric kernel on a Gauss grid, refined in extended
    precision: the Nystrom core shared by the sech and sinc oracles.

    Kl is the longdouble kernel matrix K(x_i, x_j) on the grid's nodes. It
    is symmetrized with weight square roots, Al = sqrt(w) K sqrt(w), so the
    eigenvectors come out orthogonal; a float64 eigh of Al gives every
    eigenvalue, and the first `count` pairs are refined against Al by
    refine_eigh_block. Returns the eigenvalues (all of them, decreasing) and
    the node values u/sqrt(w) of the first `count` eigenfunctions as
    columns, each of unit L2 norm on the grid and positive at the last node.
    """
    wl = grid.weights.astype(np.longdouble)
    sw = np.sqrt(wl)
    Al = sw[:, None] * Kl * sw[None, :]
    lam, V = np.linalg.eigh(Al.astype(np.float64))
    lam = lam[::-1].copy()
    V = V[:, ::-1].copy()
    refine_eigh_block(Al, lam, V, count)
    g = V[:, :count] / np.sqrt(grid.weights)[:, None]
    g *= np.where(g[-1] < 0, -1.0, 1.0)
    g /= np.sqrt(np.sum(grid.weights[:, None] * g ** 2, axis=0))
    return lam, g


def nystrom_eigensystem(c: float, n: int = None, m_max: int = 12) -> NystromSpectrum:
    """Spectral discretization of Q_c on an n-point Gauss grid.

    A dense float64 eigh resolves eigenvalues down to about 1e-13*rho_0;
    the pairs m <= m_max with eigenvalues in REFINE_WINDOW are then refined
    by residual correction against the longdouble matrix
    (symmetric_nystrom_eigenpairs), which makes the eigenVECTORS good to
    ~1e-9 down to eigenvalues around 1e-10.
    """
    check_c(c)
    n = nystrom_grid_size(m_max, n)
    grid = gauss_legendre(n)
    xl = grid.nodes.astype(np.longdouble)
    Kl = kernel(np.longdouble(c), xl[:, None], xl[None, :])
    try:
        lam, g = symmetric_nystrom_eigenpairs(Kl, grid, m_max + 1)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for c={c}, n={n}: {e}") from e
    trust_floor = TRUST_FLOOR_FACTOR * np.finfo(np.float64).eps * lam[0]
    return NystromSpectrum(c=c, n=n, grid=grid, eigenvalues=lam, g_values=g,
                           m_max=m_max, trust_floor=trust_floor)


def rho_rayleigh(c: float, g: SampledFunction):
    """Eigenvalue of Q_c as the Rayleigh integral int sech(x/c)|g_hat(x)|^2 dx.

    g_hat(x) = int_{-1}^{1} e^{ixt} g(t) dt. The integrand is nonnegative, so
    there is no outer cancellation, and eigenvalues far below machine
    epsilon times rho_0 are still computed. They are not computed to full
    relative accuracy: g_hat is formed from float64 samples of g and the
    inner transform cancels, so the relative error grows about as
    eps/sqrt(rho). Perturbing g by relative eps moves rho by 3e-7 at
    rho = 1.2e-23 (c = 0.25, m = 16) and by 1e-3 at rho = 2e-29 (m = 20).
    The outer integral is truncated at RAYLEIGH_TAIL_MULTIPLE*c (sech tail
    below 1e-26), on 15 panels of length 4c, cut to at most 64, with 48
    Gauss nodes each. sech(x/c) has its poles pi c/2 off the real axis, so
    panels that scale with c give the same accuracy at every c (unit panels
    put rho_0 off by 2e-6 at c = 0.01); the cut is for |g_hat|^2, of
    exponential type 2 (uncut panels were off by 42 % at c = 32). On all
    rows of m_max = 30 this is within 3e-12 relative of unit panels for
    c = 1..64, bar one row at c = 1 (7.6e-11 where eps/sqrt(rho) is 2e-8).

    g.values may hold one function (a float is returned) or M stacked rows
    of shape (M, n) (an array of M eigenvalues is returned); each panel's
    cos/sin matrices are formed once and multiply all rows together. Every
    row must have unit L2(-1,1) norm.
    """
    check_c(c)
    nrm = g.norm()
    if np.any(np.abs(nrm - 1.0) > 1e-8):
        raise ValueError(f"input must be L2(-1,1)-normalized, got norm {nrm!r}")
    xg = g.grid.nodes
    wg = (g.grid.weights * np.real(g.values)).T      # (n,) or (n, M)
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
    total = 2.0 * total
    return float(total) if np.ndim(total) == 0 else total


def rayleigh_trust_floor(c: float) -> float:
    """Level at or below which rho_rayleigh(c, .) is not trusted: two
    decades above its truncated tail, 8 max(c, 1) e^-RAYLEIGH_TAIL_MULTIPLE."""
    return 100.0 * (8 * max(c, 1.0) * math.exp(-RAYLEIGH_TAIL_MULTIPLE))


def apply_adjoint(params: OperatorParams, h: SampledFunction, x) -> np.ndarray:
    """Adjoint of the windowed transform: sech(b x) * int_{-1}^1 e^{-i c x t} h(t) dt
    at the points x.

    h.values may hold one function, giving values of shape (len(x),), or M
    stacked rows of shape (M, n), giving (M, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = h.grid.nodes
    wh = h.grid.weights * h.values
    ph = np.exp(-1j * params.c * x[:, None] * t[None, :])
    # the rows times ph^T, written so that a single function keeps its
    # matrix-vector product
    vals = (ph @ wh.T).T
    return vals / np.cosh(params.b * x)
