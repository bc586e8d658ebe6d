"""The parameter rescaling identity of the singular triplets."""
import math

import numpy as np

from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import QuadratureGrid
from sechprolate.svd_assembly import SvdBasis


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
    grid = QuadratureGrid(src.grid.nodes / b, src.grid.weights / b)
    phi = SampledFunction(grid, src.values * math.sqrt(b))
    return SvdBasis(b, c, svd.sigma / math.sqrt(b), svd.rho, svd.trusted,
                    svd.g, phi, svd.m)
