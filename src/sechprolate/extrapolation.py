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

from .special_functions import gauss_legendre
from .sech_operator import OperatorParams, SampledFunction
from .svd_assembly import compute_svd, evaluate_g, evaluate_phi
from .bounds import beta

__all__ = [
    "ObservationWindow",
    "CutoffEstimate",
    "builtin_case",
    "coefficients",
    "cutoff_estimate",
    "sigma_penalty",
    "n_max",
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
    svd: list
    obs: ObservationWindow
    F: SampledFunction            # transform-side estimate on the phi panel grid
    grid: np.ndarray              # report grid for the reconstruction
    values: np.ndarray            # complex f_delta^N on the report grid

    def increment_norm_sq(self, n_lo: int, n_hi: int) -> float:
        """cosh-norm squared of the estimate difference between levels,
        sum over n_lo < m <= n_hi of (2 pi d_m / sigma_m)^2. The 2 pi is the
        transform-convention factor that also appears in the penalty."""
        return float(sum((2 * math.pi * self.d[m] / self.svd[m].sigma) ** 2
                         for m in range(n_lo + 1, n_hi + 1)))


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


def coefficients(obs: ObservationWindow, svd: list) -> np.ndarray:
    """d_m = <f_delta(c.+x0), g_m> on the window, for every m in the svd."""
    if np.any(np.isnan(obs.samples.grid.weights)):
        raise ValueError("observation grid carries no quadrature weights")
    if abs(obs.c - svd[0].c) > 1e-12:
        raise ValueError("observation window and svd have different c")
    wv = obs.samples.grid.weights * obs.samples.values
    return np.array([float(evaluate_g(t, obs.samples.grid.nodes) @ wv)
                     for t in svd])


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


def _uniform_transform_grid(svd: list, nfft: int):
    T = svd[0].phi.grid.interval[1]
    xu = np.linspace(-T, T, nfft)
    wu = np.full(nfft, xu[1] - xu[0])
    wu[0] *= 0.5
    wu[-1] *= 0.5
    return xu, wu


def _invert_transform(F_vals, xu, wu, x0, s_grid):
    # f(s) = int exp(-i (x0 - s) x) F(x) dx, trapezoid on the uniform grid
    out = np.empty(s_grid.size, dtype=complex)
    for i in range(0, s_grid.size, 512):
        s = s_grid[i:i + 512]
        ph = np.exp(-1j * np.outer(x0 - s, xu))
        out[i:i + 512] = ph @ (wu * F_vals)
    return out


def cutoff_estimate(obs: ObservationWindow, svd: list, N: int,
                    nfft: int = 4096, report_points: int = 1201,
                    report_halfwidth: float = 6.0) -> CutoffEstimate:
    """Spectral cut-off estimate at level N.

    The transform-side estimate F = sum_{m<=N} (d_m/sigma_m) phi_m is
    sampled on a uniform grid over the phi support and inverted by a
    trapezoid-corrected discrete Fourier transform; since F and all its
    derivatives are ~1e-9 at the grid ends, the trapezoid rule is
    spectrally accurate here.
    """
    last_trusted = max((t.m for t in svd if t.trusted), default=-1)
    if N > last_trusted:
        raise ValueError(f"truncation level {N} exceeds trusted index {last_trusted}")
    d = coefficients(obs, svd)
    coef = d[: N + 1] / np.array([t.sigma for t in svd[: N + 1]])
    pg = svd[0].phi.grid
    F_panel = np.zeros(pg.nodes.size, dtype=complex)
    for m in range(N + 1):
        F_panel += coef[m] * svd[m].phi.values
    xu, wu = _uniform_transform_grid(svd, nfft)
    F_u = np.zeros(xu.size, dtype=complex)
    for m in range(N + 1):
        F_u += coef[m] * evaluate_phi(svd[m], xu)
    s_grid = np.linspace(obs.x0 - report_halfwidth, obs.x0 + report_halfwidth,
                         report_points)
    vals = _invert_transform(F_u, xu, wu, obs.x0, s_grid)
    return CutoffEstimate(N=N, d=d[: N + 1], svd=svd, obs=obs,
                          F=SampledFunction(pg, F_panel), grid=s_grid,
                          values=vals)


def l2_error(s_grid: np.ndarray, fhat: np.ndarray, ftrue) -> float:
    """L2 distance on the report grid by the trapezoid rule."""
    ft = ftrue(s_grid) if callable(ftrue) else np.asarray(ftrue)
    return float(np.sqrt(np.trapezoid(np.abs(fhat - ft) ** 2, s_grid)))


def adaptive_N(obs: ObservationWindow, svd: list, variant: str = "plus",
               params: OperatorParams = None):
    """Adaptive truncation level by the Goldenshluger-Lepski comparison.

    B(N) = max over N <= N' <= N_max of (||F^{N'} - F^N||^2 +/- Sigma(N'))_+
    in the exact coefficient form of the cosh-norm, and N_hat minimizes
    B(N) + Sigma(N), smallest index on ties. The "plus" variant keeps the
    penalty sign inside the positive part as printed in the source
    derivation; "minus" is the standard comparison rule.
    """
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    if params is None:
        params = OperatorParams(b=svd[0].b, c=svd[0].c)
    nm = n_max(obs.delta)
    last_trusted = max((t.m for t in svd if t.trusted), default=-1)
    if nm > last_trusted:
        raise ValueError(f"svd must be trusted through N_max = {nm}")
    d = coefficients(obs, svd)
    q = np.array([(2 * math.pi * d[m] / svd[m].sigma) ** 2
                  for m in range(nm + 1)])
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
                   "n_max": nm, "variant": variant}
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
    obs0, truth, params = builtin_case(case_id, delta=deltas[-1])
    be = beta(params.kernel_parameter)
    m_top = max(n_max(min(deltas)), 8)
    svd = compute_svd(params, m_max=m_top)
    last_trusted = max(t.m for t in svd if t.trusted)
    rows = []
    for dl in deltas:
        obs, _, _ = builtin_case(case_id, delta=dl)
        if oracle_rule == "polynomial":
            nbar = math.log(1.0 / dl) / (2 * be)
        else:
            nbar = math.log(1.0 / dl) / (kappa + be)
        nbar = min(int(math.floor(nbar)), last_trusted)
        est_bar = cutoff_estimate(obs, svd, nbar)
        err_bar = l2_error(est_bar.grid, est_bar.values, truth)
        nhat, _ = adaptive_N(obs, svd, variant=variant, params=params)
        est_hat = cutoff_estimate(obs, svd, nhat)
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

