"""The sech-kernel convolution operator on (-1,1) and the windowed Fourier transform.

Q_c acts on L2(-1,1) with kernel pi*c*sech(pi*c*(x-y)/2). It factors as
c*F F* where F maps L2(cosh(b.)) to L2(-1,1) by restricting the Fourier
transform to a window, with effective parameter c/b. The Nystrom
discretization below refines its small eigenpairs by residual correction in
extended precision, so that eigenvectors stay accurate down to eigenvalues
around 1e-10, and the Rayleigh integral form recovers eigenvalues far below
what a dense solver can see.
"""
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .special_functions import QuadratureGrid, gauss_legendre

__all__ = [
    "OperatorParams",
    "SampledFunction",
    "NystromSpectrum",
    "kernel",
    "nystrom_eigensystem",
    "rho_rayleigh",
    "apply_forward",
    "apply_adjoint",
    "verify_factorization",
    "panel_grid",
    "refine_eigh_block",
    "nystrom_grid_size",
    "TRUST_FLOOR_FACTOR",
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


@dataclass(frozen=True)
class OperatorParams:
    b: float
    c: float

    def __post_init__(self):
        if self.b <= 0 or self.c <= 0:
            raise ValueError("parameters b and c must be positive")

    @property
    def kernel_parameter(self):
        return self.c / self.b


@dataclass
class SampledFunction:
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[-1] != self.grid.nodes.size:
            raise ValueError("values length does not match grid length")

    def norm(self):
        return math.sqrt(float(np.sum(self.grid.weights * np.abs(self.values) ** 2)))


def kernel(c: float, x, y):
    """Kernel of Q_c: pi*c*sech(pi*c*(x-y)/2). Symmetric, positive, entire."""
    if c <= 0:
        raise ValueError("c must be positive")
    return math.pi * c / np.cosh(math.pi * c * (np.asarray(x) - np.asarray(y)) / 2.0)


def panel_grid(edges, nodes_per_panel: int = 24) -> QuadratureGrid:
    """Composite Gauss rule: nodes_per_panel-point Gauss on each [edges[i], edges[i+1]]."""
    edges = np.asarray(edges, dtype=float)
    base = gauss_legendre(nodes_per_panel)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(half * base.nodes + 0.5 * (a + b))
        ws.append(half * base.weights)
    return QuadratureGrid(np.concatenate(xs), np.concatenate(ws),
                          (float(edges[0]), float(edges[-1])))


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
    trusted: np.ndarray = field(default=None)
    close_gaps: list = field(default_factory=list)

    def __post_init__(self):
        if self.trusted is None:
            self.trusted = self.eigenvalues[: self.m_max + 1] > self.trust_floor

    def eigenfunction(self, m: int) -> SampledFunction:
        return SampledFunction(self.grid, self.g_values[:, m].copy())

    def trace_error(self):
        return abs(float(self.eigenvalues.sum()) - 2 * math.pi * self.c)


def nystrom_grid_size(m_max: int, n: int = None) -> int:
    """Gauss grid size of the dense eigensolver for indices 0..m_max: n if
    given, else max(200, 20 (m_max+1)); at least 4 (m_max+1) is required."""
    if n is None:
        n = max(200, 20 * (m_max + 1))
    if n < 4 * (m_max + 1):
        raise ValueError("grid too small for the requested number of eigenpairs")
    return n


def nystrom_eigensystem(c: float, n: int = None, m_max: int = 12) -> NystromSpectrum:
    """Spectral discretization of Q_c on an n-point Gauss grid.

    The matrix is symmetrized with weight square roots so the eigenvectors
    come out orthogonal; node values are recovered as u/sqrt(w). A dense
    float64 eigh resolves eigenvalues down to about 1e-13*rho_0; the pairs
    m <= m_max with eigenvalues in REFINE_WINDOW are then refined by
    residual correction against the longdouble matrix (refine_eigh_block),
    which makes the eigenVECTORS good to ~1e-9 down to eigenvalues around
    1e-10.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    n = nystrom_grid_size(m_max, n)
    grid = gauss_legendre(n)
    xl = grid.nodes.astype(np.longdouble)
    wl = grid.weights.astype(np.longdouble)
    cl = np.longdouble(c)
    Kl = np.pi * cl / np.cosh(np.pi * cl * (xl[:, None] - xl[None, :]) / 2)
    Al = np.sqrt(wl)[:, None] * Kl * np.sqrt(wl)[None, :]
    A = Al.astype(np.float64)
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for c={c}, n={n}: {e}") from e
    lam = lam[::-1].copy()
    V = V[:, ::-1].copy()

    refine_eigh_block(Al, lam, V, m_max + 1)

    trust_floor = TRUST_FLOOR_FACTOR * np.finfo(np.float64).eps * lam[0]
    mm = min(m_max, n - 1)
    g = V[:, : mm + 1] / np.sqrt(grid.weights)[:, None]
    for m in range(mm + 1):
        if g[-1, m] < 0:
            g[:, m] = -g[:, m]
        nrm = math.sqrt(float(np.sum(grid.weights * g[:, m] ** 2)))
        g[:, m] /= nrm

    close_gaps = []
    for m in range(mm):
        if lam[m] > trust_floor and lam[m] - lam[m + 1] < 1e-10 * lam[0]:
            close_gaps.append(m)
    if close_gaps:
        warnings.warn(f"near-degenerate eigenvalue gaps at m={close_gaps}")

    return NystromSpectrum(c=c, n=n, grid=grid, eigenvalues=lam, g_values=g,
                           m_max=mm, trust_floor=trust_floor,
                           close_gaps=close_gaps)


def rho_rayleigh(c: float, g: SampledFunction, tail_multiple: float = 60.0,
                 nodes_per_panel: int = 32) -> float:
    """Eigenvalue of Q_c as the Rayleigh integral int sech(x/c)|g_hat(x)|^2 dx.

    g_hat(x) = int_{-1}^{1} e^{ixt} g(t) dt. The integrand is nonnegative, so
    there is no outer cancellation and eigenvalues far below machine epsilon
    times rho_0 are still computed to full relative accuracy. The outer
    integral is truncated at tail_multiple*c (sech tail below 1e-26) and done
    on unit-length Gauss panels, which resolve both the sech scale c and the
    O(2*pi) oscillation of g_hat.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    nrm = g.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"input must be L2(-1,1)-normalized, got norm {nrm!r}")
    xg = g.grid.nodes
    wg = g.grid.weights * np.real(g.values)
    x_t = tail_multiple * c
    edges = np.linspace(0.0, x_t, int(math.ceil(x_t)) + 1)
    base = gauss_legendre(nodes_per_panel)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xi = half * base.nodes + 0.5 * (a + b)
        wi = half * base.weights
        ph = xi[:, None] * xg[None, :]
        re = np.cos(ph) @ wg
        im = np.sin(ph) @ wg
        total += float(np.sum(wi / np.cosh(xi / c) * (re * re + im * im)))
    return 2.0 * total


def apply_forward(params: OperatorParams, f: SampledFunction, y_grid) -> SampledFunction:
    """Windowed Fourier transform: (F f)(y) = int e^{i c y t} f(t) dt for y in [-1,1].

    f lives on a real-line quadrature grid covering the decay of the
    cosh-weighted space.
    """
    y = np.atleast_1d(np.asarray(y_grid, dtype=float))
    t = f.grid.nodes
    T = float(np.max(np.abs(t)))
    if params.c * T / math.pi > t.size / 4:
        raise ValueError("grid too coarse for the oscillation of the transform")
    ph = np.exp(1j * params.c * y[:, None] * t[None, :])
    vals = ph @ (f.grid.weights * f.values)
    ygrid = QuadratureGrid(y, np.full(y.size, np.nan), (float(y[0]), float(y[-1])))
    return SampledFunction(ygrid, vals)


def apply_adjoint(params: OperatorParams, h: SampledFunction, x_grid) -> SampledFunction:
    """Adjoint of the windowed transform: sech(b x) * int_{-1}^1 e^{-i c x t} h(t) dt.

    x_grid may be a QuadratureGrid (kept, so the result can be integrated) or
    a plain array of points.
    """
    if isinstance(x_grid, QuadratureGrid):
        xg = x_grid
    else:
        x = np.atleast_1d(np.asarray(x_grid, dtype=float))
        xg = QuadratureGrid(x, np.full(x.size, np.nan), (float(x[0]), float(x[-1])))
    ph = np.exp(-1j * params.c * xg.nodes[:, None] * h.grid.nodes[None, :])
    vals = ph @ (h.grid.weights * h.values)
    vals = vals / np.cosh(params.b * xg.nodes)
    return SampledFunction(xg, vals)


def _default_real_line_grid(b: float) -> QuadratureGrid:
    # symmetric unit panels out to T with sech(b*T) < 1e-9
    T = 22.0 / b
    edges = np.linspace(-T, T, 2 * int(math.ceil(T)) + 1)
    return panel_grid(edges, 24)


def verify_factorization(params: OperatorParams, h: SampledFunction) -> float:
    """Relative residual of the factorization c * F F* h = Q_{c/b} h."""
    xg = _default_real_line_grid(params.b)
    # the sech factor of the adjoint is already in adj.values, and the
    # forward map is a plain (unweighted) integral of it
    adj = apply_adjoint(params, h, xg)
    fwd = apply_forward(params, adj, h.grid.nodes)
    lhs = params.c * fwd.values
    cp = params.kernel_parameter
    K = kernel(cp, h.grid.nodes[:, None], h.grid.nodes[None, :])
    rhs = K @ (h.grid.weights * h.values)
    num = math.sqrt(float(np.sum(h.grid.weights * np.abs(lhs - rhs) ** 2)))
    den = h.norm()
    if den == 0:
        return 0.0
    return num / den

