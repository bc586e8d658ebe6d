"""The phi rows of a basis and the parameter rescaling identity of the
singular triplets."""
import math

import numpy as np

from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import QuadratureGrid, phi_grid
from sechprolate.svd_assembly import SvdBasis, evaluate_phi


def phi_rows(svd: SvdBasis) -> SampledFunction:
    """Every phi_m of the basis on phi_grid(b): the rows svd_to_json_dict
    writes."""
    grid = phi_grid(svd.b)
    return SampledFunction(grid, evaluate_phi(svd, grid.nodes))


def rescale_phi(b: float, c: float, svd: SvdBasis):
    """(sigma, phi) at (b, c) from a basis computed at (1, c/b).

    phi_m at (b,c) is sqrt(b) * phi_m at (1, c/b) evaluated at b*x, which on
    the phi grid is a node relabeling, no interpolation; sigma picks up
    1/sqrt(b) and g is shared. Every row of the source must be trusted.
    """
    if not np.all(svd.trusted):
        raise ValueError("source basis has untrusted rows")
    if abs(svd.b - 1.0) > 1e-12 or abs(svd.c - c / b) > 1e-12:
        raise ValueError("source basis must be at parameters (1, c/b)")
    src = phi_rows(svd)
    grid = QuadratureGrid(src.grid.nodes / b, src.grid.weights / b)
    return (svd.sigma / math.sqrt(b),
            SampledFunction(grid, src.values * math.sqrt(b)))
