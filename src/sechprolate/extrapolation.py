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

WINDOW_NODES = 2048       # Gauss nodes of an observation window
REPORT_BLOCK = 256        # report points per block of the estimator's kernel


@dataclass
class ObservationWindow:
    x0: float
    c: float
    delta: float
    samples: SampledFunction      # f_delta(c x + x0) on a Gauss grid, x in (-1,1)

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if not np.all(np.isfinite(self.samples.values)):
            raise ValueError("window samples must be finite")

    @classmethod
    def sampled(cls, x0: float, c: float, delta: float, f):
        """The window whose f_delta(c x + x0) is f(x), at WINDOW_NODES Gauss nodes."""
        grid = gauss_legendre(WINDOW_NODES)
        return cls(x0, c, delta, SampledFunction(grid, f(grid.nodes)))


@dataclass
class CutoffEstimate:
    N: int
    d: np.ndarray                 # coefficients for m <= N
    grid: np.ndarray              # report grid for the reconstruction
    values: np.ndarray            # real f_delta^N on the report grid


def builtin_case(case_id: str, delta: float = None):
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
    obs = ObservationWindow.sampled(
        x0, c, delta, lambda x: truth(c * x + x0) + delta * np.cos(50.0 * x))
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


def cutoff_estimate(obs: ObservationWindow, svd: SvdBasis, N: int,
                    nfft: int = 4096, report_points: int = 1201,
                    report_halfwidth: float = 6.0,
                    d: np.ndarray = None) -> CutoffEstimate:
    """Spectral cut-off estimate at level N on the report grid
    np.linspace(x0 - report_halfwidth, x0 + report_halfwidth, report_points).

    d is coefficients(obs, svd) if the caller already has it (adaptive_N
    returns it in its diagnostics); otherwise the window is projected here.

    The transform-side estimate F = sum_{m<=N} (d_m/sigma_m) phi_m is
    sech(b x) times the transform int e^{-i c x t} h(t) dt of
    h = sum_m (d_m/sigma_m^2) g_m, and sech(b x) has the Fourier transform
    (pi/b) sech(pi w / (2b)). So the inverse transform of F is exact on h's
    Gauss grid, with no grid on the line:
    f(s) = (pi/b) sum_j w_j h(t_j) sech(pi (c t_j + x0 - s) / (2b)).
    It is real. The sech matrix is formed REPORT_BLOCK report points at a
    time, and where cosh overflows (b below about 0.013) sech is correctly 0.
    """
    # nfft is unused: read only by benchmarks/worker.py (ROADMAP item 1 drops it)
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
    h = (d[: N + 1] / head.sigma ** 2) @ head.g.values
    k = math.pi / (2 * svd.b)
    wh = (math.pi / svd.b) * svd.g.grid.weights * h
    kt = (k * svd.c) * svd.g.grid.nodes
    s_grid = np.linspace(obs.x0 - report_halfwidth, obs.x0 + report_halfwidth,
                         report_points)
    vals = np.empty(report_points)
    with np.errstate(over="ignore"):
        for lo in range(0, report_points, REPORT_BLOCK):
            K = np.add.outer(k * (obs.x0 - s_grid[lo: lo + REPORT_BLOCK]), kt)
            np.reciprocal(np.cosh(K, out=K), out=K)
            vals[lo: lo + REPORT_BLOCK] = K @ wh
    return CutoffEstimate(N=N, d=d[: N + 1], grid=s_grid, values=vals)


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
    # R[N] = max over N' >= N of (q[N+1] + ... + q[N'] +/- Sig[N'])
    R = (1.0 if variant == "plus" else -1.0) * Sig
    for N in range(nm - 1, -1, -1):
        R[N] = max(R[N], q[N + 1] + R[N + 1])
    B = np.maximum(R, 0.0)
    crit = B + Sig
    n_hat = int(np.argmin(crit))   # argmin returns the first (smallest) index
    return n_hat, {"B": B, "Sigma": Sig, "q": q, "criterion": crit,
                   "n_max": nm, "variant": variant, "d": d}


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
    _, truth, params = builtin_case(case_id)
    be = beta(params.kernel_parameter)
    svd = compute_svd(params, m_max=basis_m_max(min(deltas)))
    rows = []
    for dl in deltas:
        obs, _, _ = builtin_case(case_id, delta=dl)
        nbar = math.log(1.0 / dl) / (2 * be if oracle_rule == "polynomial"
                                     else kappa + be)
        nbar = min(int(math.floor(nbar)), svd.last_trusted)
        nhat, diag = adaptive_N(obs, svd, variant=variant)
        est_bar = cutoff_estimate(obs, svd, nbar, d=diag["d"])
        err_bar = l2_error(est_bar.grid, est_bar.values, truth)
        est_hat = cutoff_estimate(obs, svd, nhat, d=diag["d"])
        err_hat = l2_error(est_hat.grid, est_hat.values, truth)
        rows.append({"delta": dl, "N_bar": nbar, "err_bar": err_bar,
                     "N_hat": nhat, "err_hat": err_hat})
    logd = np.log(deltas)
    # a constant delta list pins every run to one point; no slope exists
    slope_bar, slope_hat = (
        float(np.polyfit(logd, np.log([r[k] for r in rows]), 1)[0])
        if np.ptp(logd) > 0 else float("nan") for k in ("err_bar", "err_hat"))
    return {"case": case_id, "rule": oracle_rule, "kappa": kappa,
            "rows": rows, "slope_bar": slope_bar, "slope_hat": slope_hat}

