"""Stable analytic continuation from a noisy window observation.

The function f is observed on (x0-c, x0+c) as f_delta(c x + x0) =
f(c x + x0) + delta * xi(x). Its Fourier transform is expanded in the
singular basis phi_m of the windowed transform, the expansion is truncated
at level N, and f is recovered on the line by an inverse transform. The
truncation level balancing data fit against the exponentially growing noise
amplification 1/sigma_m is picked by a Goldenshluger-Lepski style rule.
"""
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .special_functions import gauss_legendre, uniform_grid
from .sech_operator import OperatorParams, SampledFunction, apply_adjoint
from .svd_assembly import SvdBasis, compute_svd, evaluate_g
from .bounds import beta

__all__ = [
    "ObservationWindow",
    "CutoffEstimate",
    "builtin_case",
    "coefficients",
    "cutoff_estimate",
    "sigma_penalty",
    "n_max",
    "basis_m_max",
    "adaptive_N",
    "rate_sweep",
    "l2_error",
]


@dataclass
class ObservationWindow:
    x0: float
    c: float
    delta: float
    samples: SampledFunction      # f_delta(c x + x0) on a Gauss grid, x in (-1,1)
    truth: object = None          # optional callable f for error reports

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if not np.all(np.isfinite(self.samples.values)):
            raise ValueError("window samples must be finite")


@dataclass
class CutoffEstimate:
    N: int
    d: np.ndarray                 # coefficients for m <= N
    svd: SvdBasis
    obs: ObservationWindow
    F: SampledFunction            # transform-side estimate on the phi panel grid
    grid: np.ndarray              # report grid for the reconstruction
    values: np.ndarray            # complex f_delta^N on the report grid


def builtin_case(case_id: str, delta: float = None, n_window: int = 2048):
    """Benchmark instances: (a) f = 0.5/cosh(2x), b=1, delta=0.05;
    (b) f = sinc(2x)/6, b=1/6.5, delta=0.01. Both c=0.5, x0=0, noise
    xi(x)=cos(50 x)."""
    if case_id == "a":
        b, dflt = 1.0, 0.05

        def truth(x):
            return 0.5 / np.cosh(2.0 * np.asarray(x, dtype=float))
    elif case_id == "b":
        b, dflt = 1 / 6.5, 0.01

        def truth(x):
            return np.sinc(2.0 * np.asarray(x, dtype=float)) / 6.0
    else:
        raise ValueError(f"unknown case {case_id!r}; use 'a' or 'b'")
    c, x0 = 0.5, 0.0
    if delta is None:
        delta = dflt
    grid = gauss_legendre(n_window)
    vals = truth(c * grid.nodes + x0) + delta * np.cos(50.0 * grid.nodes)
    obs = ObservationWindow(x0=x0, c=c, delta=delta,
                            samples=SampledFunction(grid, vals), truth=truth)
    return obs, truth, OperatorParams(b=b, c=c)


def coefficients(obs: ObservationWindow, svd: SvdBasis) -> np.ndarray:
    """d_m = <f_delta(c.+x0), g_m> on the window, for every m in the svd.

    All g_m are expanded at once, so the window is projected once per call.
    """
    if np.any(np.isnan(obs.samples.grid.weights)):
        raise ValueError("observation grid carries no quadrature weights")
    if abs(obs.c - svd.c) > 1e-12:
        raise ValueError("observation window and svd have different c")
    G = evaluate_g(svd, obs.samples.grid.nodes)
    return G @ (obs.samples.grid.weights * obs.samples.values)


def _last_trusted(svd: SvdBasis) -> int:
    """svd.last_trusted; the estimator reads a row's position as its m, so
    a sub-basis that skips an index would be used with shifted indices."""
    if not np.array_equal(svd.m, np.arange(len(svd))):
        raise ValueError("the estimator needs a basis with rows m = 0..M-1")
    return svd.last_trusted


def sigma_penalty(params: OperatorParams, delta: float, N: int) -> float:
    """Noise-amplification penalty 2 pi c delta^2 e^{2 beta(c/b) N} / (1 - e^{-2 beta(c/b)})."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    be = beta(params.kernel_parameter)
    return 2 * math.pi * params.c * delta ** 2 * math.exp(2 * be * N) \
        / (1 - math.exp(-2 * be))


def n_max(delta: float) -> int:
    """Largest truncation level considered: floor(log(1/delta))."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta >= 1:
        warnings.warn("delta >= 1: no usable truncation levels, N_max = 0")
        return 0
    return int(math.floor(math.log(1.0 / delta)))


def basis_m_max(delta: float, level: int = 0) -> int:
    """m_max of the basis an estimate at noise delta needs: through N_max
    (when delta > 0) and through a fixed level, and at least 8."""
    return max(8, level, n_max(delta) if delta > 0 else 0)


def _invert_transform(F_vals, xu, wu, x0, s_grid):
    """f(s) = int exp(-i (x0 - s) x) F(x) dx by the trapezoid rule on the
    uniform grid xu, at every point of the uniform grid s_grid.

    Written about the grid centres, x_j = xc + j dx and s_k = sc + k ds with
    centred indices j, k, the sum is the chirp-z transform
    sum_j a_j exp(i dx ds j k) (Rabiner, Schafer & Rader 1969). Bluestein's
    identity j k = (j^2 + k^2 - (k - j)^2) / 2 turns it into one FFT
    convolution. The centred indices keep the chirp phases, and with them
    the roundoff, small.
    """
    n, M = xu.size, s_grid.size
    if n < 2 or M < 2:
        raise ValueError("transform and report grids need at least 2 points")
    dx = (xu[-1] - xu[0]) / (n - 1)
    ds = (s_grid[-1] - s_grid[0]) / (M - 1)
    xc = 0.5 * (xu[0] + xu[-1])
    uc = x0 - 0.5 * (s_grid[0] + s_grid[-1])
    al = dx * ds
    j = np.arange(n) - 0.5 * (n - 1)
    k = np.arange(M) - 0.5 * (M - 1)
    a = wu * F_vals * np.exp(1j * (0.5 * al * j * j - uc * dx * j))
    d = np.arange(1 - n, M) + 0.5 * (n - M)           # k - j
    L = 1 << (n + M - 2).bit_length()
    chirp = np.exp(-0.5j * al * d * d)
    conv = np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(chirp, L))
    return conv[n - 1: n - 1 + M] * np.exp(
        1j * (0.5 * al * k * k + ds * xc * k - uc * xc))


def cutoff_estimate(obs: ObservationWindow, svd: SvdBasis, N: int,
                    nfft: int = 4096, report_points: int = 1201,
                    report_halfwidth: float = 6.0,
                    d: np.ndarray = None) -> CutoffEstimate:
    """Spectral cut-off estimate at level N.

    d is coefficients(obs, svd) if the caller already has it (adaptive_N
    returns it in its diagnostics); otherwise the window is projected here.

    The transform-side estimate F = sum_{m<=N} (d_m/sigma_m) phi_m is linear
    in the g_m, so it is one adjoint applied to sum_m (d_m/sigma_m^2) g_m,
    sampled on the nfft-node uniform_grid over the phi support. Its nodes
    are x_0 + j dx, so e^{-i c x_j t} is exactly a factor in j // p times a
    factor in j % p, and apply_adjoint forms those two small matrices
    instead of an nfft x n_g one. F is inverted by the
    trapezoid rule, evaluated on the uniform report grid as a chirp-z
    transform; since F and all its derivatives are ~1e-9 at the grid ends,
    the trapezoid rule is spectrally accurate here.
    """
    if N < 0:
        raise ValueError(f"truncation level must be nonnegative, got {N}")
    last_trusted = _last_trusted(svd)
    if N > last_trusted:
        raise ValueError(f"truncation level {N} exceeds trusted index {last_trusted}")
    if d is None:
        d = coefficients(obs, svd)
    elif np.shape(d) != (len(svd),):
        raise ValueError("d must hold one coefficient per svd triplet")
    head = svd[: N + 1]
    coef = d[: N + 1] / head.sigma
    pg = svd.phi.grid
    F_panel = coef @ head.phi.values
    h = SampledFunction(svd.g.grid, (coef / head.sigma) @ head.g.values)
    ug = uniform_grid(pg.interval[1], nfft)
    F_u = apply_adjoint(OperatorParams(b=svd.b, c=svd.c), h, ug).values
    s_grid = np.linspace(obs.x0 - report_halfwidth, obs.x0 + report_halfwidth,
                         report_points)
    vals = _invert_transform(F_u, ug.nodes, ug.weights, obs.x0, s_grid)
    return CutoffEstimate(N=N, d=d[: N + 1], svd=svd, obs=obs,
                          F=SampledFunction(pg, F_panel), grid=s_grid,
                          values=vals)


def l2_error(s_grid: np.ndarray, fhat: np.ndarray, ftrue) -> float:
    """L2 distance on the report grid by the trapezoid rule."""
    ft = ftrue(s_grid) if callable(ftrue) else np.asarray(ftrue)
    return float(np.sqrt(np.trapezoid(np.abs(fhat - ft) ** 2, s_grid)))


def adaptive_N(obs: ObservationWindow, svd: SvdBasis, variant: str = "plus"):
    """Adaptive truncation level by the Goldenshluger-Lepski comparison.

    B(N) = max over N <= N' <= N_max of (||F^{N'} - F^N||^2 +/- Sigma(N'))_+
    in the exact coefficient form of the cosh-norm, and N_hat minimizes
    B(N) + Sigma(N), smallest index on ties. The "plus" variant keeps the
    penalty sign inside the positive part as printed in the source
    derivation; "minus" is the standard comparison rule. The penalty uses
    the svd's own (b, c). diagnostics["q"][m] = (2 pi d_m / sigma_m)^2 is
    the cosh-norm squared of the increment from level m-1 to m; the 2 pi is
    the transform-convention factor that also appears in the penalty.
    """
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    params = OperatorParams(b=svd.b, c=svd.c)
    nm = n_max(obs.delta)
    if nm > _last_trusted(svd):
        raise ValueError(f"svd must be trusted through N_max = {nm}")
    d = coefficients(obs, svd)
    q = (2 * math.pi * d[: nm + 1] / svd.sigma[: nm + 1]) ** 2
    Sig = np.array([sigma_penalty(params, obs.delta, N) for N in range(nm + 1)])
    B = np.empty(nm + 1)
    for N in range(nm + 1):
        terms = []
        for Np in range(N, nm + 1):
            diff2 = float(q[N + 1: Np + 1].sum())
            t = diff2 + Sig[Np] if variant == "plus" else diff2 - Sig[Np]
            terms.append(max(t, 0.0))
        B[N] = max(terms)
    crit = B + Sig
    n_hat = int(np.argmin(crit))   # argmin returns the first (smallest) index
    diagnostics = {"B": B, "Sigma": Sig, "q": q, "criterion": crit,
                   "n_max": nm, "variant": variant, "d": d}
    return n_hat, diagnostics


def rate_sweep(case_id: str, delta_list, oracle_rule: str = "polynomial",
               kappa: float = 1.0, variant: str = "plus") -> dict:
    """Error-vs-delta table for a benchmark case.

    For each delta the estimator runs once with the rule-driven level
    N_bar (log(1/delta)/(2 beta) for polynomially growing weights,
    log(1/delta)/(kappa + beta) for exponential ones) and once with the
    adaptive N_hat; log-log slopes of both error columns are fitted.
    """
    if oracle_rule not in ("polynomial", "exponential"):
        raise ValueError("oracle_rule must be 'polynomial' or 'exponential'")
    deltas = list(delta_list)
    if any(not 0 < dl <= 0.5 for dl in deltas):
        raise ValueError("deltas must lie in (0, 0.5]")
    if not 0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and nonnegative")
    obs0, truth, params = builtin_case(case_id, delta=deltas[-1])
    be = beta(params.kernel_parameter)
    svd = compute_svd(params, m_max=basis_m_max(min(deltas)))
    rows = []
    for dl in deltas:
        obs, _, _ = builtin_case(case_id, delta=dl)
        if oracle_rule == "polynomial":
            nbar = math.log(1.0 / dl) / (2 * be)
        else:
            nbar = math.log(1.0 / dl) / (kappa + be)
        nbar = min(int(math.floor(nbar)), svd.last_trusted)
        nhat, diag = adaptive_N(obs, svd, variant=variant)
        est_bar = cutoff_estimate(obs, svd, nbar, d=diag["d"])
        err_bar = l2_error(est_bar.grid, est_bar.values, truth)
        est_hat = cutoff_estimate(obs, svd, nhat, d=diag["d"])
        err_hat = l2_error(est_hat.grid, est_hat.values, truth)
        rows.append({"delta": dl, "N_bar": nbar, "err_bar": err_bar,
                     "N_hat": nhat, "err_hat": err_hat})
    logd = np.log([r["delta"] for r in rows])
    if np.ptp(logd) > 0:
        slope_bar = float(np.polyfit(logd, np.log([r["err_bar"] for r in rows]), 1)[0])
        slope_hat = float(np.polyfit(logd, np.log([r["err_hat"] for r in rows]), 1)[0])
    else:
        # a constant delta list pins every run to one point; no slope exists
        slope_bar = slope_hat = float("nan")
    return {"case": case_id, "rule": oracle_rule, "kappa": kappa,
            "rows": rows, "slope_bar": slope_bar, "slope_hat": slope_hat}

