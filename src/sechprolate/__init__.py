"""Numerics for the truncated Fourier transform on sech-weighted spaces.

The package computes the singular value decomposition of the map
f -> (Fourier transform of f restricted to a window), acting from
L2(cosh(b.)) into L2(-1,1), checks the operator's spectral bounds against
independently computed spectra, and uses the truncated SVD for stable
analytic continuation of noisily observed functions.
"""

__version__ = "0.2.0"

from .sech_operator import (
    OperatorParams,
    SampledFunction,
    kernel,
    nystrom_eigensystem,
    rho_rayleigh,
    apply_forward,
    apply_adjoint,
    verify_factorization,
)
from .svd_assembly import compute_svd, rescale_phi
from .extrapolation import (
    builtin_case,
    coefficients,
    cutoff_estimate,
    sigma_penalty,
    n_max,
    adaptive_N,
    rate_sweep,
)

__all__ = [
    "OperatorParams",
    "SampledFunction",
    "kernel",
    "nystrom_eigensystem",
    "rho_rayleigh",
    "apply_forward",
    "apply_adjoint",
    "verify_factorization",
    "compute_svd",
    "rescale_phi",
    "builtin_case",
    "coefficients",
    "cutoff_estimate",
    "sigma_penalty",
    "n_max",
    "adaptive_N",
    "rate_sweep",
    "__version__",
]
