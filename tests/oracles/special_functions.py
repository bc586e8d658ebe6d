"""Special functions and the real-line grid of the oracles."""
import math

import numpy as np

from sechprolate.special_functions import (REAL_LINE_HALF_WIDTH,
                                           QuadratureGrid, panel_grid)


def real_line_grid(b: float) -> QuadratureGrid:
    """Symmetric unit panels of 24 Gauss nodes out to T = 22/b
    (REAL_LINE_HALF_WIDTH): the real-line grid of the factorisation self-check.

    phi_grid covers the same interval with fewer nodes; on it the largest
    self-check residual at (b, c) = (0.5, 2) rises from 2.9e-11 to 2.4e-9,
    so this finer grid stays.
    """
    T = REAL_LINE_HALF_WIDTH / b
    edges = np.linspace(-T, T, 2 * int(math.ceil(T)) + 1)
    return panel_grid(edges, 24)


def legendre_derivative_table(m_max: int, x) -> np.ndarray:
    """Derivatives of the orthonormal Legendre polynomials (same layout as legendre_table).

    Uses P'_k = P'_{k-2} + (2k-1) P_{k-1} on the unnormalized polynomials.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((m_max + 1, x.size))
    ders = np.empty((m_max + 1, x.size))
    p0 = np.ones_like(x)
    p1 = x.copy()
    vals[0] = p0
    ders[0] = 0.0
    if m_max >= 1:
        vals[1] = p1
        ders[1] = 1.0
    for k in range(2, m_max + 1):
        vals[k] = ((2 * k - 1) * x * vals[k - 1] - (k - 1) * vals[k - 2]) / k
        ders[k] = ders[k - 2] + (2 * k - 1) * vals[k - 1]
    for k in range(m_max + 1):
        ders[k] *= math.sqrt(k + 0.5)
    return ders


def spherical_bessel_ratio(k: int, z: float) -> float:
    """Spherical Bessel function j_k(z) for k >= 0, z >= 0.

    Downward recurrence from order k + ceil(20 + z), normalized against
    j_0(z) = sin(z)/z, which keeps the result stable for k well above z.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if z < 0:
        raise ValueError("argument must be nonnegative")
    if k == 0:
        return 1.0 if z == 0.0 else math.sin(z) / z
    if z < 1e-6:
        # series head: z^k / (2k+1)!!, relative error below z^2 ~ 1e-12;
        # also covers denormal z where the recurrences overflow
        val = 1.0
        for n in range(1, k + 1):
            val *= z / (2 * n + 1)
        return val
    if z > 2.0 * k:
        # upward recurrence is stable here and cheaper
        jm, j = math.sin(z) / z, (math.sin(z) / z - math.cos(z)) / z
        for n in range(1, k):
            jm, j = j, (2 * n + 1) / z * j - jm
        return j
    n_start = k + int(math.ceil(20.0 + z))
    jp = 0.0
    j = 1e-300
    target = 0.0
    for n in range(n_start, 0, -1):
        jm = (2 * n + 1) / z * j - jp
        jp, j = j, jm
        if n - 1 == k:
            target = j
        if abs(j) > 1e280:
            j *= 1e-280
            jp *= 1e-280
            target *= 1e-280
    # j now holds the downward value at order 0
    return target * ((math.sin(z) / z) / j)
