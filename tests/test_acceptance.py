"""Acceptance battery: one test per advertised guarantee.

Each test prints a single `criterion N: PASS` or `criterion N: FAIL (...)`
line before asserting, so a verbose run reads as a checklist. Three
criteria fail by measurement, not by implementation defect; their tests
state the claimed inequality as advertised and report the offending
values rather than loosening anything:

  - criterion 2: the closed-form upper eigenvalue bound is violated at
    small c (c=0.1 for m=0..3, c=0.3 for m=0..2), while every lower
    bound holds with margin.
  - criterion 6: the two-sided enclosure for the commuting operator's
    eigenvalues fails on its upper edge at every m, as does the stated
    band for the flattened potential (the enclosure's width is right,
    its placement is mirrored); the cross-method eigenfunction
    agreement passes at 1e-6.
  - criterion 9: on benchmark case (a) at delta=0.05 the adaptive rule
    under-selects (error ~12x the best fixed level, allowed 3x), and on
    case (b) the best cosh-route error is ~3.2x the best prolate-route
    error (allowed 3x).
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from sechprolate.bounds import (R_of_c, chi_sandwich, fit_log_slope,
                                lower_combined, supnorm_bound, upper_bound,
                                widom_slope)
from sechprolate.cli import main as cli_main
from sechprolate.commuting_ode import (LiouvilleTransform, family_parameter,
                                       galerkin_eigensystem, q_c_potential)
from sechprolate.extrapolation import (adaptive_N, builtin_case,
                                       cutoff_estimate, l2_error, n_max,
                                       rate_sweep)
from sechprolate.sech_operator import (OperatorParams, SampledFunction,
                                       nystrom_eigensystem, rho_rayleigh)
from sechprolate.special_functions import gauss_legendre
from sechprolate.svd_assembly import compute_svd

from oracles.pswf import pswf_basis, pswf_cutoff_estimate
from oracles.sech_operator import verify_factorization
from oracles.svd_assembly import phi_rows, rescale_phi


def report(n: int, failures: list):
    line = (f"criterion {n}: PASS" if not failures
            else f"criterion {n}: FAIL ({'; '.join(failures)})")
    print(line)
    assert not failures, line


def test_criterion_01_trace_identity():
    t0 = time.perf_counter()
    failures = []
    for c in (0.25, 1.0, 4.0):
        spectrum = nystrom_eigensystem(c, n=256)
        rel = spectrum.trace_error() / (2 * math.pi * c)
        if not rel < 1e-10:
            failures.append(f"c={c}: relative trace error {rel:.3e}")
    elapsed = time.perf_counter() - t0
    if not elapsed < 5.0:
        failures.append(f"runtime {elapsed:.2f}s, limit 5s")
    report(1, failures)


def test_criterion_02_eigenvalue_sandwich():
    t0 = time.perf_counter()
    failures = []
    for c in (0.1, 0.3, 0.6, 0.9, 1.0, 2.0, 4.0):
        rho = [t.rho for t in
               compute_svd(OperatorParams(b=1.0, c=c), m_max=10)]
        for m in range(11):
            lo = lower_combined(c, m)
            if not lo < rho[m] * (1 + 1e-8):
                failures.append(f"lower bound at c={c} m={m}: "
                                f"{lo:.4e} >= rho {rho[m]:.4e}")
            if c < 1:
                hi = upper_bound(c, m)
                if not rho[m] * (1 - 1e-8) < hi:
                    failures.append(f"upper bound at c={c} m={m}: "
                                    f"rho {rho[m]:.4e} >= {hi:.4e}")
    elapsed = time.perf_counter() - t0
    if not elapsed < 30.0:
        failures.append(f"runtime {elapsed:.2f}s, limit 30s")
    report(2, failures)


def test_criterion_03_widom_slope(sample_g):
    t0 = time.perf_counter()
    failures = []
    ms = np.arange(6, 13)
    for c in (0.75, 1.0, 1.5):
        ode = galerkin_eigensystem(c, n_b=140, m_max=12)
        rhos = rho_rayleigh(c, sample_g(ode, ms))
        slope = fit_log_slope(ms, rhos)
        target = widom_slope(c)
        if not abs(slope - target) < 0.05 * target:
            failures.append(f"c={c}: fitted slope {slope:.5f}, "
                            f"predicted {target:.5f}")
    elapsed = time.perf_counter() - t0
    if not elapsed < 120.0:
        failures.append(f"runtime {elapsed:.2f}s, limit 120s")
    report(3, failures)


def test_criterion_04_monotonicity_in_c():
    failures = []
    cs = (0.25, 0.5, 1.0, 2.0, 4.0)
    rho = {c: [t.rho for t in
               compute_svd(OperatorParams(b=1.0, c=c), m_max=10)]
           for c in cs}
    for m in range(11):
        for c1, c2 in zip(cs, cs[1:]):
            if not rho[c1][m] <= rho[c2][m] * (1 + 1e-10):
                failures.append(f"m={m}: rho at c={c1} is {rho[c1][m]:.6e}, "
                                f"above rho at c={c2} ({rho[c2][m]:.6e})")
    report(4, failures)


def test_criterion_05_factorization():
    failures = []
    grid = gauss_legendre(64)
    x = grid.nodes
    rng = np.random.default_rng(11)
    trig = sum(rng.standard_normal() * np.cos(k * x)
               + rng.standard_normal() * np.sin(k * x) for k in range(4))
    probes = [np.full(x.size, 1 / math.sqrt(2)), x.copy(), np.cos(2 * x),
              trig, np.exp(-4 * x ** 2) * (1 + 0.5 * x)]
    for b, c in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
        params = OperatorParams(b=b, c=c)
        for i, vals in enumerate(probes):
            res = verify_factorization(params, SampledFunction(grid, vals))
            if not res < 1e-8:
                failures.append(f"(b={b}, c={c}) probe {i}: "
                                f"residual {res:.3e}")
    report(5, failures)


def test_criterion_06_commuting_operator_consistency():
    failures = []
    for c in (0.5, 1.0, 2.0):
        ny = nystrom_eigensystem(c, m_max=20)
        ode = galerkin_eigensystem(c, n_b=140, m_max=20)

        bad = []
        for m in range(21):
            lo, hi = chi_sandwich(c, m)
            if not lo <= ode.chi[m] <= hi:
                bad.append(m)
        if bad:
            excess = max(ode.chi[m] - chi_sandwich(c, m)[1] for m in bad)
            failures.append(f"chi outside its enclosure at c={c} for "
                            f"{len(bad)}/21 levels (max excess over the "
                            f"upper edge {excess:.4g})")

        worst = 0.0
        for m in range(21):
            if ny.eigenvalues[m] > 1e-10:
                diff = ny.g_values[:, m] - ode.evaluate_g(m, ny.grid.nodes)
                worst = max(worst, math.sqrt(
                    float(np.sum(ny.grid.weights * diff ** 2))))
        if not worst <= 1e-6:
            failures.append(f"cross-method eigenfunctions at c={c}: "
                            f"max L2 difference {worst:.3e}")

        tr = LiouvilleTransform(c)
        t = family_parameter(c)
        top = 0.5 - (tr.U * t / math.pi) ** 2
        width = R_of_c(c)
        qv = q_c_potential(tr, np.linspace(-1.0, 1.0, 401))
        n_above = int(np.sum(qv > top + 1e-10))
        n_below = int(np.sum(qv < top - width - 1e-10))
        if n_above or n_below:
            failures.append(
                f"potential band at c={c}: {n_above}/401 nodes above the "
                f"stated upper edge (max excess "
                f"{float(np.max(qv - top)):.4g}), {n_below} below the "
                f"lower")
    report(6, failures)


def test_criterion_07_supnorm_bound():
    failures = []
    for c in (0.5, 1.0, 2.0):
        triplets = compute_svd(OperatorParams(b=1.0, c=c), m_max=20)
        for t in triplets:
            cap = supnorm_bound(c, t.m)
            seen = float(np.max(np.abs(t.g.values)))
            if not seen <= cap:
                failures.append(f"c={c} m={t.m}: max|g| {seen:.4f} "
                                f"exceeds {cap:.4f}")
    report(7, failures)


def test_criterion_08_svd_contracts():
    failures = []
    main_set = compute_svd(OperatorParams(b=1.0, c=1.0), m_max=8)
    src = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=6)
    direct = compute_svd(OperatorParams(b=2.0, c=1.0), m_max=6)

    for triplets, c in ((main_set, 1.0), (src, 0.5), (direct, 1.0)):
        for t in triplets:
            if t.sigma != math.sqrt(t.rho / c):
                failures.append(f"sigma != sqrt(rho/c) at (b={t.b}, c={t.c}) "
                                f"m={t.m}")

    phi = phi_rows(main_set)
    w = phi.grid.weights * np.cosh(phi.grid.nodes)
    P = phi.values
    gram = (P * w) @ P.conj().T
    dev = float(np.max(np.abs(gram - np.eye(9))))
    if not dev < 1e-4:
        failures.append(f"phi Gram deviates from identity by {dev:.3e}")

    for m in range(7):
        _, scaled = rescale_phi(2.0, 1.0, src[m])
        a, d = scaled.values, phi_rows(direct[m]).values
        ip = np.vdot(d, a)
        diff = float(np.max(np.abs(a - (ip / abs(ip)) * d)))
        if not diff < 1e-5:
            failures.append(f"rescaling identity m={m}: max difference "
                            f"{diff:.3e}")
    report(8, failures)


def test_criterion_09_benchmark_reproduction():
    failures = []
    for case_id, delta in (("a", 0.05), ("b", 0.01)):
        t0 = time.perf_counter()
        obs, truth, params = builtin_case(case_id, delta=delta)
        levels = range(n_max(delta) + 1)
        svd = compute_svd(params, m_max=max(8, n_max(delta)))
        errs = {}
        for N in levels:
            est = cutoff_estimate(obs, svd, N)
            errs[N] = l2_error(est.grid, est.values, truth)
        n_hat, _ = adaptive_N(obs, svd)
        best_n = min(errs, key=errs.get)
        ratio = errs[n_hat] / errs[best_n]
        if not ratio <= 3.0:
            failures.append(
                f"case ({case_id}): adaptive N_hat={n_hat} gives error "
                f"{errs[n_hat]:.4f}, {ratio:.2f}x the best fixed level "
                f"(N={best_n}, error {errs[best_n]:.4f})")

        if case_id == "b":
            basis = pswf_basis(obs.c / params.b, m_max=n_max(delta))
            perrs = []
            for N in levels:
                grid, vals = pswf_cutoff_estimate(obs, basis, N,
                                                  scale_b=params.b)
                perrs.append(l2_error(grid, vals, truth))
            route_ratio = min(errs.values()) / min(perrs)
            if not route_ratio <= 3.0:
                failures.append(
                    f"case (b): best cosh-route error "
                    f"{min(errs.values()):.4f} is {route_ratio:.2f}x the "
                    f"best prolate-route error {min(perrs):.4f}")

        elapsed = time.perf_counter() - t0
        if not elapsed < 120.0:
            failures.append(f"case ({case_id}) runtime {elapsed:.1f}s, "
                            f"limit 120s")
    report(9, failures)


def test_criterion_10_rate_behavior():
    failures = []
    deltas = [1e-1, 1e-2, 1e-3]
    sweep_a = rate_sweep("a", deltas)
    errs = [row["err_hat"] for row in sweep_a["rows"]]
    if not all(e0 > e1 for e0, e1 in zip(errs, errs[1:])):
        failures.append("case (a) adaptive errors not strictly "
                        "decreasing: "
                        + ", ".join(f"{e:.5f}" for e in errs))
    sweep_b = rate_sweep("b", deltas, oracle_rule="exponential",
                         kappa=1.0)
    slope = sweep_b["slope_bar"]
    if not 0.0 < slope <= 1.0:
        failures.append(f"case (b) rule-driven log-log slope "
                        f"{slope:.4f} outside (0, 1]")
    report(10, failures)


def test_criterion_11_determinism(tmp_path):
    failures = []
    names = ["selftest_svd.json", "selftest_bounds.csv",
             "selftest_reconstruction.csv"]
    outs = [tmp_path / "one", tmp_path / "two"]
    env = {"SECHPROLATE_CACHE": str(tmp_path / "cache")}
    for out in outs:
        res = CliRunner().invoke(cli_main, ["selftest", "--out", str(out)],
                                 env=env)
        if res.exit_code != 0:
            failures.append(f"selftest exited with {res.exit_code}")
    if not failures:
        for name in names:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                failures.append(f"{name} differs between consecutive runs")
    report(11, failures)
