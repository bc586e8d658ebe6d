"""Numerics for the truncated Fourier transform on sech-weighted spaces.

The package computes the singular value decomposition of the map
f -> (Fourier transform of f restricted to a window), acting from
L2(cosh(b.)) into L2(-1,1), checks the operator's spectral bounds against
independently computed spectra, and uses the truncated SVD for stable
analytic continuation of noisily observed functions.
"""

__version__ = "0.3.4"

__all__ = ["__version__"]
