import math
import tracemalloc

import numpy as np
import pytest

from sechprolate.bounds import beta
from sechprolate.extrapolation import (ObservationWindow,
                                       adaptive_N, basis_m_max, builtin_case,
                                       coefficients,
                                       cutoff_estimate, l2_error, n_max,
                                       rate_sweep, sigma_penalty)
from sechprolate.sech_operator import SampledFunction
from sechprolate.special_functions import QuadratureGrid, gauss_legendre
from sechprolate.svd_assembly import compute_svd, evaluate_g, evaluate_phi

from oracles.special_functions import real_line_grid


def scaled_window(obs, lam):
    samples = SampledFunction(obs.samples.grid, lam * obs.samples.values)
    return ObservationWindow(x0=obs.x0, c=obs.c, delta=lam * obs.delta,
                             samples=samples)


def test_builtin_case_a_fields(case_a):
    obs, truth, params, _ = case_a
    assert (params.b, params.c) == (1.0, 0.5)
    assert obs.x0 == 0.0 and obs.delta == 0.05
    x = obs.samples.grid.nodes
    expected = 0.5 / np.cosh(2.0 * (0.5 * x)) + 0.05 * np.cos(50.0 * x)
    assert np.array_equal(obs.samples.values, expected)
    assert truth(0.0) == pytest.approx(0.5)


def test_builtin_case_b_fields():
    obs, truth, params = builtin_case("b")
    assert params.b == pytest.approx(1 / 6.5)
    assert (obs.c, obs.delta) == (0.5, 0.01)
    assert truth(0.0) == pytest.approx(1 / 6)
    assert truth(0.5) == pytest.approx(0.0, abs=1e-15)   # sinc zero


def test_builtin_case_rejects_unknown():
    with pytest.raises(ValueError):
        builtin_case("c")


def test_noise_vanishes_with_delta():
    obs, truth, _ = builtin_case("a", delta=1e-12)
    x = obs.samples.grid.nodes
    assert np.max(np.abs(obs.samples.values - truth(0.5 * x))) < 2e-12


def test_window_rejects_bad_input():
    g = gauss_legendre(16)
    with pytest.raises(ValueError):
        ObservationWindow(x0=0.0, c=0.5, delta=-0.1,
                          samples=SampledFunction(g, np.zeros(16)))
    with pytest.raises(ValueError):
        ObservationWindow(x0=0.0, c=0.5, delta=0.1,
                          samples=SampledFunction(g, np.full(16, np.nan)))


@pytest.mark.parametrize("key, value", [
    ("c", math.nan), ("c", math.inf), ("c", 0.0), ("c", -0.5),
    ("x0", math.nan), ("x0", -math.inf), ("delta", math.nan),
    ("delta", math.inf)])
def test_window_rejects_bad_parameters(key, value):
    """c, x0 and delta are checked where the window is built, written so
    that nan fails too: a nan c would pass coefficients' check on c, and a
    nan x0 would give an all-nan reconstruction."""
    params = {"x0": 0.0, "c": 0.5, "delta": 0.05, key: value}
    g = gauss_legendre(16)
    with pytest.raises(ValueError, match=key):
        ObservationWindow(samples=SampledFunction(g, np.zeros(16)), **params)


def test_window_rejects_an_infinite_weight():
    """One infinite quadrature weight fails when the window is built; the
    projection would otherwise turn it into alternating infinite d_m."""
    g = gauss_legendre(16)
    w = g.weights.copy()
    w[3] = np.inf
    with pytest.raises(ValueError, match="weights must be finite"):
        ObservationWindow(x0=0.0, c=0.5, delta=0.05,
                          samples=SampledFunction(QuadratureGrid(g.nodes, w),
                                                  np.ones(16)))


def test_coefficients_zero(case_a):
    _, _, _, svd = case_a
    g = gauss_legendre(128)
    obs = ObservationWindow(x0=0.0, c=0.5, delta=0.05,
                            samples=SampledFunction(g, np.zeros(128)))
    assert np.array_equal(coefficients(obs, svd), np.zeros(13))


def test_coefficients_recover_basis(case_a):
    _, _, _, svd = case_a
    g = gauss_legendre(256)
    for k in [0, 3, 6]:
        vals = evaluate_g(svd[k], g.nodes)
        obs = ObservationWindow(x0=0.0, c=0.5, delta=0.0,
                                samples=SampledFunction(g, vals))
        d = coefficients(obs, svd)
        ref = np.zeros(len(svd))
        ref[k] = 1.0
        assert np.max(np.abs(d - ref)) < 1e-8, f"k={k}"


def test_coefficients_bessel(case_a):
    obs, _, _, svd = case_a
    w = obs.samples.grid.weights
    norm2 = float(np.sum(w * obs.samples.values ** 2))
    d = coefficients(obs, svd)
    assert float(np.sum(d ** 2)) <= norm2 + 1e-8


def test_coefficients_grid_mismatch(case_a):
    _, _, _, svd = case_a
    g = gauss_legendre(64)
    bad_grid = QuadratureGrid(g.nodes, np.full(64, np.nan))
    with pytest.raises(ValueError, match="weights must be finite"):
        ObservationWindow(x0=0.0, c=0.5, delta=0.05,
                          samples=SampledFunction(bad_grid, np.zeros(64)))
    obs2 = ObservationWindow(x0=0.0, c=0.7, delta=0.05,
                             samples=SampledFunction(g, np.zeros(64)))
    with pytest.raises(ValueError):
        coefficients(obs2, svd)


def test_coefficients_batched_equals_per_triplet_loop(case_a):
    obs, _, _, svd = case_a
    wv = obs.samples.grid.weights * obs.samples.values
    ref = np.array([evaluate_g(t, obs.samples.grid.nodes) @ wv for t in svd])
    d = coefficients(obs, svd)
    assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("b", [1.0, 1 / 6.5])
@pytest.mark.parametrize("nfft, report_points",
                         [(4096, 301), (4096, 1201), (4096, 4096), (2047, 1201)])
def test_chirp_z_inverse_matches_dense_longdouble(case_a, b, nfft,
                                                  report_points):
    """The inverse onto the report grid (a chirp-z sum before the closed
    form) against the sech kernel sum in longdouble, on every 37th report
    point and both ends, with an off-centre window. Report grids of 301,
    1201 and 4096 points end mid-block. nfft changes nothing."""
    if b == 1.0:
        obs, svd = case_a[0], case_a[3]
    else:
        obs, _, params = builtin_case("b")
        svd = compute_svd(params, m_max=8)
    assert svd.b == b
    obs = ObservationWindow(x0=0.37, c=obs.c, delta=obs.delta,
                            samples=obs.samples)
    est = cutoff_estimate(obs, svd, 4, nfft=nfft, report_points=report_points)
    assert np.array_equal(est.grid, np.linspace(0.37 - 6.0, 0.37 + 6.0,
                                                report_points))
    default = cutoff_estimate(obs, svd, 4, report_points=report_points)
    assert est.values.tobytes() == default.values.tobytes()
    idx = np.unique(np.r_[np.arange(0, report_points, 37), report_points - 1])
    ld = np.longdouble
    h = (est.d / svd.sigma[:5] ** 2) @ svd[:5].g.values
    wh = svd.g.grid.weights.astype(ld) * h.astype(ld)
    arg = (ld(math.pi) / (2 * ld(b))) * (
        ld(svd.c) * svd.g.grid.nodes.astype(ld)[None, :]
        + (ld(0.37) - est.grid[idx].astype(ld))[:, None])
    ref = ((ld(math.pi) / ld(b)) * ((1 / np.cosh(arg)) @ wh)).astype(float)
    assert np.max(np.abs(est.values[idx] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fused_transform_side_equals_sum_of_modes(case_a):
    """The closed-form kernel sum against the inverse transform of
    F = sum_{m<=N} (d_m/sigma_m) phi_m by direct quadrature on
    real_line_grid(b), with phi_m from evaluate_phi. That grid stops at
    b T = 22, where sech is 5.6e-10, which sets the tolerance."""
    obs, _, _, svd = case_a
    N = 4
    est = cutoff_estimate(obs, svd, N, report_points=301)
    assert np.array_equal(est.grid, np.linspace(obs.x0 - 6.0, obs.x0 + 6.0, 301))
    xg = real_line_grid(svd.b)
    F = (est.d / svd.sigma[: N + 1]) @ evaluate_phi(svd[: N + 1], xg.nodes)
    ref = np.exp(-1j * np.outer(obs.x0 - est.grid, xg.nodes)) @ (xg.weights * F)
    assert np.max(np.abs(est.values - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_cutoff_estimate_forms_no_nfft_by_ng_matrix(case_a):
    """The sech kernel is formed in blocks of report points: one estimate
    at 4096 report points peaks far below the 8.5 MB of a 4096 x n_g real
    matrix."""
    obs, _, _, svd = case_a
    d = coefficients(obs, svd)
    cutoff_estimate(obs, svd, 4, report_points=4096, d=d)
    tracemalloc.start()
    try:
        cutoff_estimate(obs, svd, 4, report_points=4096, d=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_cutoff_rejects_negative_level(case_a):
    obs, _, _, svd = case_a
    with pytest.raises(ValueError, match="nonnegative"):
        cutoff_estimate(obs, svd, -1)


@pytest.mark.parametrize("report_points", [0, 1])
def test_cutoff_rejects_fewer_than_two_report_points(case_a, report_points):
    """Fewer than two report points leave l2_error's trapezoid rule no
    interval, so the error of any estimate would read 0."""
    obs, _, _, svd = case_a
    with pytest.raises(ValueError, match="at least 2 report points"):
        cutoff_estimate(obs, svd, 2, report_points=report_points)


def test_sigma_penalty_formula(case_a):
    _, _, params, _ = case_a
    be = beta(params.kernel_parameter)
    s0 = sigma_penalty(params, 0.05, 0)
    assert s0 == pytest.approx(2 * math.pi * 0.5 * 0.05 ** 2
                               / (1 - math.exp(-2 * be)), rel=1e-14)
    vals = [sigma_penalty(params, 0.05, N) for N in range(6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sigma_penalty(params, 0.0, 1)


def test_n_max_values():
    assert n_max(0.01) == 4
    assert n_max(0.05) == 2
    with pytest.raises(ValueError):
        n_max(0.0)
    with pytest.warns(UserWarning):
        assert n_max(1.5) == 0


def test_increment_norm_two_ways(case_a):
    """The adaptive rule's coefficient form q of the cosh-norm against
    direct quadrature on real_line_grid(b) of the differences of the
    transform sides F^N = sum_{m<=N} (d_m/sigma_m) phi_m. The grid's cut at
    b T = 22 leaves about 5e-10 relative."""
    obs, _, _, svd = case_a
    _, diag = adaptive_N(obs, svd)
    q = diag["q"]
    xg = real_line_grid(svd.b)
    terms = (diag["d"][:3] / svd.sigma[:3])[:, None] \
        * evaluate_phi(svd[:3], xg.nodes)
    w = xg.weights * np.cosh(svd.b * xg.nodes)

    def grid_norm_sq(lo, hi):
        diff = terms[lo + 1: hi + 1].sum(axis=0)
        return (2 * math.pi) ** 2 * float(np.sum(w * np.abs(diff) ** 2))

    assert grid_norm_sq(0, 2) == pytest.approx(q[1] + q[2], rel=1e-8)
    assert grid_norm_sq(1, 2) == pytest.approx(q[2], rel=1e-8)


def test_cutoff_untrusted_level(case_a):
    obs, _, _, svd = case_a
    with pytest.raises(ValueError):
        cutoff_estimate(obs, svd, len(svd))


def test_estimator_rejects_basis_not_starting_at_zero(case_a):
    """A sub-basis keeps its m labels, but the estimator indexes by
    position; svd[1:] would otherwise be read as m = 0..11."""
    obs, _, _, svd = case_a
    with pytest.raises(ValueError, match="m = 0..M-1"):
        cutoff_estimate(obs, svd[1:], 2)
    with pytest.raises(ValueError, match="m = 0..M-1"):
        adaptive_N(obs, svd[1:])
    cutoff_estimate(obs, svd[:5], 2)


def test_cutoff_single_mode_shape(case_a):
    """At N=0 the reconstruction is d_0/sigma_0 times a fixed profile, so
    two different observations give proportional outputs."""
    _, _, _, svd = case_a
    g = gauss_legendre(512)
    x = g.nodes
    o1 = ObservationWindow(x0=0.0, c=0.5, delta=0.0,
                           samples=SampledFunction(g, np.cosh(x)))
    o2 = ObservationWindow(x0=0.0, c=0.5, delta=0.0,
                           samples=SampledFunction(g, 1.0 / (2.0 + x)))
    e1 = cutoff_estimate(o1, svd, 0, report_points=301)
    e2 = cutoff_estimate(o2, svd, 0, report_points=301)
    assert np.allclose(e1.values * e2.d[0], e2.values * e1.d[0],
                       rtol=0, atol=1e-12 * np.max(np.abs(e1.values)))


def test_cutoff_clean_data_accuracy():
    """delta=0 benchmark truth: the N=12 estimate lands within 2e-2 relative
    on [-3,3] and keeps improving with N. The tail of this benchmark's
    coefficient sequence decays slowly, so desk accuracy saturates near 1e-2
    rather than collapsing to quadrature precision."""
    obs, truth, params = builtin_case("a", delta=0.0)
    svd = compute_svd(params, m_max=20)
    nrm = None
    errs = {}
    for N in (10, 12, 20):
        # 2401 points on [-6, 6] keep the step 0.005 of 1201 on [-3, 3]
        est = cutoff_estimate(obs, svd, N, report_points=2401)
        inner = np.abs(est.grid) <= 3.0 + 1e-9
        s, vals = est.grid[inner], est.values[inner]
        if nrm is None:
            nrm = math.sqrt(np.trapezoid(truth(s) ** 2, s))
        errs[N] = l2_error(s, vals, truth) / nrm
    assert errs[12] < 2e-2
    assert errs[20] < errs[12] < errs[10]


def test_noise_removal_chain(case_a):
    """error(delta=0, N) <= error(delta, N) + 2 pi delta sqrt(c)
    (sum 1/rho_m)^(1/2): removing the noise can only help, up to the
    amplified noise budget."""
    obs, truth, params, svd = case_a
    obs0, _, _ = builtin_case("a", delta=0.0)
    for N in (0, 2):
        e0 = cutoff_estimate(obs0, svd, N)
        en = cutoff_estimate(obs, svd, N)
        err0 = l2_error(e0.grid, e0.values, truth)
        errn = l2_error(en.grid, en.values, truth)
        budget = 2 * math.pi * obs.delta * math.sqrt(obs.c) \
            * math.sqrt(sum(1.0 / svd[m].rho for m in range(N + 1)))
        assert err0 <= errn + budget


def test_adaptive_bounded_and_deterministic(case_a):
    obs, _, _, svd = case_a
    n1, diag1 = adaptive_N(obs, svd)
    n2, diag2 = adaptive_N(obs, svd)
    assert n1 == n2
    assert n1 <= diag1["n_max"] == n_max(obs.delta)
    assert np.array_equal(diag1["B"], diag2["B"])
    assert np.array_equal(diag1["criterion"], diag2["criterion"])


def test_adaptive_zero_observations(case_a):
    _, _, _, svd = case_a
    g = gauss_legendre(128)
    obs = ObservationWindow(x0=0.0, c=0.5, delta=0.05,
                            samples=SampledFunction(g, np.zeros(128)))
    n_hat, _ = adaptive_N(obs, svd)
    assert n_hat == 0


def test_adaptive_scaling_invariance(case_a):
    """Multiplying samples and delta by the same lambda scales B and Sigma
    by lambda^2 and leaves the arg-min untouched. lambda = 2 keeps
    N_max = floor(log(1/delta)) at 2, so the tables stay comparable."""
    obs, _, _, svd = case_a
    lam = 2.0
    n1, d1 = adaptive_N(obs, svd)
    n2, d2 = adaptive_N(scaled_window(obs, lam), svd)
    assert d1["n_max"] == d2["n_max"]
    assert n1 == n2
    assert np.allclose(d2["B"], lam ** 2 * d1["B"], rtol=1e-12)
    assert np.allclose(d2["Sigma"], lam ** 2 * d1["Sigma"], rtol=1e-12)


def test_adaptive_variant_validation(case_a):
    obs, _, _, svd = case_a
    with pytest.raises(ValueError):
        adaptive_N(obs, svd, variant="median")
    n_plus, _ = adaptive_N(obs, svd, variant="plus")
    n_minus, _ = adaptive_N(obs, svd, variant="minus")
    assert 0 <= n_minus <= n_max(obs.delta)
    assert 0 <= n_plus <= n_max(obs.delta)


def test_rate_sweep_case_a():
    table = rate_sweep("a", [1e-1, 1e-2, 1e-3])
    errs = [row["err_hat"] for row in table["rows"]]
    assert errs[0] > errs[1] > errs[2]
    deltas = [row["delta"] for row in table["rows"]]
    assert deltas == [1e-1, 1e-2, 1e-3]


def test_rate_sweep_validation():
    with pytest.raises(ValueError):
        rate_sweep("a", [0.6, 0.01])
    with pytest.raises(ValueError):
        rate_sweep("a", [0.1, 0.0])
    with pytest.raises(ValueError):
        rate_sweep("a", [0.1, 0.01], oracle_rule="linear")
    # nan failed inside int(), -5 as a negative level, inf gave N_bar = 0
    for kappa in (math.nan, -5.0, math.inf):
        with pytest.raises(ValueError, match="kappa"):
            rate_sweep("a", [0.1, 0.01], oracle_rule="exponential",
                       kappa=kappa)


def test_basis_m_max_covers_every_level_and_at_least_8():
    assert basis_m_max(0.05) == 8           # N_max = 2
    assert basis_m_max(0.0) == 8            # no N_max without noise
    assert basis_m_max(1e-5) == n_max(1e-5) == 11
    assert basis_m_max(0.05, 10) == 10
    assert basis_m_max(0.0, 3) == 8


def test_rate_sweep_constant_delta_deterministic():
    t1 = rate_sweep("a", [0.05, 0.05])
    r1, r2 = t1["rows"]
    assert r1["err_bar"] == r2["err_bar"]
    assert r1["err_hat"] == r2["err_hat"]
    assert r1["N_hat"] == r2["N_hat"]
    assert t1["slope_bar"] is None and t1["slope_hat"] is None


def test_adaptive_estimate_projects_the_window_once(case_a, coefficient_calls):
    obs, _, _, svd = case_a
    fresh = {N: cutoff_estimate(obs, svd, N) for N in range(n_max(obs.delta) + 1)}
    coefficient_calls.clear()
    n_hat, diag = adaptive_N(obs, svd)
    est = cutoff_estimate(obs, svd, n_hat, d=diag["d"])
    assert len(coefficient_calls) == 1
    assert diag["d"].tobytes() == coefficients(obs, svd).tobytes()
    for N, ref in fresh.items():
        got = est if N == n_hat else cutoff_estimate(obs, svd, N, d=diag["d"])
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.d.tobytes() == ref.d.tobytes()


def test_cutoff_rejects_misshapen_coefficients(case_a):
    obs, _, _, svd = case_a
    d = coefficients(obs, svd)
    for bad in (d[:3], d[:, None], np.append(d, 0.0)):
        with pytest.raises(ValueError):
            cutoff_estimate(obs, svd, 2, d=bad)


def test_rate_sweep_projects_each_window_once(coefficient_calls):
    deltas = [1e-1, 1e-2]
    table = rate_sweep("a", deltas)
    assert len(coefficient_calls) == len(deltas)
    assert table == rate_sweep("a", deltas)
