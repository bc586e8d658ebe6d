import json
import math

import numpy as np
import pytest

from sechprolate.bounds import build_report
from sechprolate.commuting_ode import galerkin_eigensystem
from sechprolate.extrapolation import WINDOW_NODES
from sechprolate.sech_operator import (OperatorParams, SampledFunction,
                                       apply_adjoint, nystrom_eigensystem,
                                       nystrom_grid_size, rho_rayleigh)
from sechprolate.special_functions import gauss_legendre, panel_grid, phi_grid
from sechprolate.svd_assembly import (commuting_eigenpairs, compute_svd,
                                      evaluate_g, evaluate_phi,
                                      svd_to_json_dict,
                                      triplets_from_json_dict)

from oracles.commuting_ode import log_rho_endpoint_identity
from oracles.sech_operator import apply_forward
from oracles.svd_assembly import phi_rows, rescale_phi


def phi_weight(b):
    grid = phi_grid(b)
    return grid.weights * np.cosh(b * grid.nodes)


@pytest.fixture(scope="module")
def svd_c01():
    """A basis whose last two rows, m = 11 and 12, are untrusted."""
    return compute_svd(OperatorParams(b=1.0, c=0.1), m_max=12)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 4.0])
def test_rho_matches_the_endpoint_identity(c):
    """Rayleigh's rho against the endpoint identity anchored at the flat
    limit (16 Gauss nodes in u, 8 in log c above c = 1), on the rows with
    rho > 1e-8: 1e-10 relative (measured at most 1.6e-11, at c = 4)."""
    rho = compute_svd(OperatorParams(1.0, c), m_max=12).rho
    ref = np.exp(log_rho_endpoint_identity(c, 12))
    rows = rho > 1e-8
    assert np.count_nonzero(rows) >= 5
    assert np.max(np.abs(rho[rows] / ref[rows] - 1)) <= 1e-10


def test_sigma_rho_relation(svd_b1_c1):
    for t in svd_b1_c1:
        assert t.sigma ** 2 * 1.0 == pytest.approx(t.rho, rel=1e-12)


def test_sigma_strictly_decreasing(svd_b1_c1):
    sig = [t.sigma for t in svd_b1_c1 if t.trusted]
    assert all(a > b for a, b in zip(sig, sig[1:]))


def test_g_unit_norm(svd_b1_c1):
    for t in svd_b1_c1:
        n2 = np.sum(t.g.grid.weights * t.g.values ** 2)
        assert n2 == pytest.approx(1.0, abs=1e-8)


def test_phi_cosh_norm(svd_b1_c1):
    n2 = np.abs(phi_rows(svd_b1_c1).values) ** 2 @ phi_weight(1.0)
    assert n2 == pytest.approx(np.ones(9), abs=1e-4)


def test_phi_parity_structure(svd_b1_c1):
    """Even-index singular functions are real and even, odd ones imaginary
    and odd, up to quadrature noise."""
    for m, phi in zip(svd_b1_c1.m, phi_rows(svd_b1_c1).values):
        scale = np.max(np.abs(phi))
        if m % 2 == 0:
            off = np.max(np.abs(phi.imag))
        else:
            off = np.max(np.abs(phi.real))
        assert off < 1e-6 * scale, f"m={m}"


@pytest.mark.parametrize("n", [None, 61])
def test_g_rows_are_mirrored_exactly(n):
    """g_m(-x) = (-1)^m g_m(x) bit for bit on the Gauss grid, with and
    without a middle node."""
    svd = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=12, n=n)
    G = svd.g.values
    assert np.array_equal(G[:, ::-1], np.where(svd.m[:, None] % 2 == 1, -G, G))


@pytest.mark.parametrize("cp", [0.25, 0.5, 1.0, 4.0])
def test_phi_other_part_is_exactly_zero(cp):
    """phi_m is (-i)^m times a real row: on phi_grid(b) the imaginary part
    of an even index and the real part of an odd one are exactly 0, on the
    trusted rows and the untrusted ones alike, and the other part is not."""
    svd = compute_svd(OperatorParams(b=1.0, c=cp), m_max=30)
    phi = phi_rows(svd).values
    even = svd.m % 2 == 0
    assert not np.any(phi[even].imag) and not np.any(phi[~even].real)
    assert np.all(np.any(phi[even].real, axis=1))
    assert np.all(np.any(phi[~even].imag, axis=1))


def test_phi_gram(svd_b1_c1):
    P = phi_rows(svd_b1_c1).values
    gram = np.abs((P * phi_weight(1.0)) @ P.conj().T)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-4


def test_rho_monotone_in_c():
    prev = None
    for c in [0.5, 1.0, 2.0]:
        svd = compute_svd(OperatorParams(b=1.0, c=c), m_max=6)
        rho = np.array([t.rho for t in svd])
        if prev is not None:
            assert np.all(rho >= prev * (1 - 1e-10))
        prev = rho


@pytest.mark.parametrize("cp", [0.01, 0.25])
def test_trace_identity_on_compute_svd(cp):
    """README's trace contract holds on the SVD itself: sum rho = 2 pi c/b
    to 1e-10 relative (past m_max = 12 the tail is below 1e-15 here). Fixed
    unit Rayleigh panels missed it by 2.0e-6 at c/b = 0.01."""
    svd = compute_svd(OperatorParams(b=2.0, c=2.0 * cp), m_max=12)
    trace = 2 * np.pi * cp
    assert abs(np.sum(svd.rho) - trace) <= 1e-10 * trace


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_eigenvalue_endpoint_identity(c):
    """Moving the window edge is the only c-dependence of F*F, so at b = 1
    d log rho_m / dc = 2 g_m(1)^2 / c: the Rayleigh rho against the
    Galerkin endpoint values, by central differences with h = 1e-4 c."""
    h = 1e-4 * c
    ode, _, _ = commuting_eigenpairs(c, 12)
    log_rho = [np.log(commuting_eigenpairs(cc, 12)[2]) for cc in (c - h, c + h)]
    slope = (log_rho[1] - log_rho[0]) / (2 * h)
    g1 = ode.evaluate_g(np.arange(13), [1.0])[:, 0]
    assert np.max(np.abs(slope / (2 * g1 ** 2 / c) - 1)) <= 1e-6


def test_eigenvalue_endpoint_identity_integrated():
    """The endpoint identity integrated in log c:
    log rho_m(1) - log rho_m(0.5) = int 2 g_m(1)^2 d(log c), by an 8-node
    Gauss rule in log c with one Galerkin solve per node, against the
    Rayleigh rho of commuting_eigenpairs for m <= 8 (rho >= 1.1e-7 here)."""
    rule = panel_grid([math.log(0.5), 0.0], 8)
    m = np.arange(9)
    g1 = np.array([galerkin_eigensystem(math.exp(u), m_max=8)
                   .evaluate_g(m, [1.0])[:, 0] for u in rule.nodes])
    integral = rule.weights @ (2 * g1 ** 2)
    diff = np.log(commuting_eigenpairs(1.0, 8)[2]
                  / commuting_eigenpairs(0.5, 8)[2])
    assert np.max(np.abs(integral / diff - 1)) <= 1e-10


def test_expansion_closes_coefficient_loop():
    """Expand the transform of f(x) = sech(2x) in the g basis, rebuild the
    12-term partial sum from the phi side, and push it back through the
    forward transform: the coefficients must come back."""
    params = OperatorParams(b=1.0, c=1.0)
    svd = compute_svd(params, m_max=12)
    phi = phi_rows(svd)
    x = phi.grid.nodes
    f = SampledFunction(phi.grid, 1.0 / np.cosh(2.0 * x))
    ygrid = svd.g.grid
    h = apply_forward(params, f, ygrid.nodes)
    d = np.array([np.sum(ygrid.weights * h * np.conj(t.g.values))
                  for t in svd])
    partial = np.zeros_like(x, dtype=complex)
    for t, dm, row in zip(svd, d, phi.values):
        partial += (dm / t.sigma) * row
    h_back = apply_forward(params, SampledFunction(phi.grid, partial),
                           ygrid.nodes)
    d_back = np.array([np.sum(ygrid.weights * h_back * np.conj(t.g.values))
                       for t in svd])
    assert np.max(np.abs(d_back - d)) < 1e-4


def test_rescale_identity(svd_b1_c1):
    for t in svd_b1_c1[:4]:
        sigma, phi = rescale_phi(1.0, 1.0, t)
        assert sigma == pytest.approx(t.sigma, rel=1e-14)
        assert np.allclose(phi.values, phi_rows(t).values, atol=1e-13)
        assert np.array_equal(phi.grid.nodes, phi_grid(1.0).nodes)


def test_rescale_norm():
    src = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=6)
    for t in src:
        _, phi = rescale_phi(2.0, 1.0, t)
        w = phi.grid.weights * np.cosh(2.0 * phi.grid.nodes)
        n2 = np.sum(w * np.abs(phi.values) ** 2)
        assert n2 == pytest.approx(1.0, abs=1e-4)


def test_rescale_matches_direct():
    """The scaling law from (1, 0.5) reproduces a direct computation at
    (b=2, c=1); the node grids coincide exactly under x -> x/b."""
    src = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=6)
    direct = compute_svd(OperatorParams(b=2.0, c=1.0), m_max=6)
    for m in range(7):
        sigma, scaled = rescale_phi(2.0, 1.0, src[m])
        a = scaled.values
        d = phi_rows(direct[m]).values
        assert np.allclose(scaled.grid.nodes, phi_grid(2.0).nodes, atol=1e-15)
        ip = np.vdot(d, a)            # fix the sign ambiguity
        s = ip / abs(ip)
        assert np.max(np.abs(a - s * d)) < 1e-5, f"m={m}"
        assert sigma == pytest.approx(direct[m].sigma, rel=1e-10)


def test_rescale_rejects_wrong_source(svd_b1_c1):
    # source sits at (1, 1); asking for (b=2, c=1) needs a (1, 0.5) source
    with pytest.raises(ValueError):
        rescale_phi(2.0, 1.0, svd_b1_c1[0])


def test_rescale_rejects_untrusted(svd_c01):
    svd = svd_c01
    bad = next(t for t in svd if not t.trusted)
    with pytest.raises(ValueError):
        rescale_phi(1.0, 0.1, bad)
    with pytest.raises(ValueError, match="untrusted"):
        rescale_phi(1.0, 0.1, svd)
    rescale_phi(1.0, 0.1, svd[svd.trusted])


def test_basis_indexing(svd_b1_c1):
    """An int key gives one triplet with scalar fields and 1-D values; a
    slice or mask gives a sub-basis on the same grid that keeps its m."""
    svd = svd_b1_c1
    assert len(svd) == 9 and list(svd.m) == list(range(9))
    t = svd[4]
    assert (t.m, t.sigma, t.rho, t.trusted) == (4, svd.sigma[4], svd.rho[4],
                                                svd.trusted[4])
    assert t.g.values.shape == svd.g.values.shape[1:]
    assert evaluate_phi(t, [0.0, 0.5]).shape == (2,)
    assert svd[-1].m == 8
    sub = svd[2:5]
    assert list(sub.m) == [2, 3, 4] and sub.g.grid is svd.g.grid
    assert np.array_equal(sub.g.values, svd.g.values[2:5])
    odd = svd[svd.m % 2 == 1]
    assert list(odd.m) == [1, 3, 5, 7] and odd.g.grid is svd.g.grid
    assert [u.m for u in svd] == list(range(9))
    assert [u.sigma for u in sub] == list(svd.sigma[2:5])


def test_last_trusted(svd_c01):
    svd = svd_c01
    first_bad = int(np.argmin(svd.trusted))
    assert 0 < first_bad
    assert svd.last_trusted == first_bad - 1
    assert svd[first_bad:].last_trusted == -1
    assert svd[3].last_trusted == 3


def test_basis_rescale_and_evaluate_match_rows():
    """rescale_phi, evaluate_g and evaluate_phi on the whole basis agree
    with the same calls on its rows one by one."""
    src = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=6)
    sigma, phi = rescale_phi(2.0, 1.0, src)
    x = np.linspace(-0.9, 0.9, 7)
    G = evaluate_g(src, x)
    P = evaluate_phi(src, x)
    assert G.shape == P.shape == (7, 7)
    for m, t in enumerate(src):
        row_sigma, row_phi = rescale_phi(2.0, 1.0, t)
        assert row_sigma == sigma[m]
        assert np.allclose(row_phi.values, phi.values[m], rtol=0, atol=1e-13)
        assert np.allclose(evaluate_g(t, x), G[m], rtol=0, atol=1e-13)
        assert np.allclose(evaluate_phi(t, x), P[m], rtol=0, atol=1e-13)


def test_evaluate_g_consistency(svd_b1_c1):
    """At the basis' own nodes the interpolant returns the stored samples
    exactly, and a point outside [-1, 1] or NaN is rejected."""
    for t in svd_b1_c1[:5]:
        assert np.array_equal(evaluate_g(t, t.g.grid.nodes), t.g.values)
    # the nodes twice and one place on: hits in two blocks, off their edges
    x = svd_b1_c1.g.grid.nodes
    G = evaluate_g(svd_b1_c1, np.r_[0.3, x, x])
    assert np.array_equal(G[:, 1:], np.tile(svd_b1_c1.g.values, 2))
    for bad in (1.5, -1.0 - 1e-12, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            evaluate_g(svd_b1_c1, [0.0, bad])


@pytest.mark.parametrize("cp", [0.25, 4.0, 16.0, 32.0, 64.0, 100.0])
def test_evaluate_g_off_its_grid(cp):
    """The interpolant of the basis' samples at the window nodes, where
    coefficients reads it, and at s = +-1, against the Galerkin
    eigenfunctions of the same c: within 1e-10 for every m <= m_max, with
    m_max 30 up to c/b = 4 and 12 above (measured at most 2.8e-12, at
    c/b = 100)."""
    m_max = 30 if cp <= 4.0 else 12
    svd = compute_svd(OperatorParams(b=1.0, c=cp), m_max=m_max)
    ode = galerkin_eigensystem(cp, m_max=m_max)
    s = np.r_[-1.0, gauss_legendre(WINDOW_NODES).nodes, 1.0]
    ref = ode.evaluate_g(np.arange(m_max + 1), s)
    assert np.max(np.abs(evaluate_g(svd, s) - ref)) <= 1e-10


def test_evaluate_phi_consistency(svd_b1_c1):
    """The document's phi rows are evaluate_phi on its phi nodes, bit for
    bit: the writer forms phi by that one formula."""
    entries = svd_to_json_dict(svd_b1_c1)["entries"]
    nodes = entries[0]["phi"]["nodes"]
    assert nodes == phi_grid(1.0).nodes.tolist()
    rows = np.array([e["phi"]["re"] for e in entries]) \
        + 1j * np.array([e["phi"]["im"] for e in entries])
    assert np.array_equal(rows, evaluate_phi(svd_b1_c1, nodes))


def test_json_round_trip(svd_b1_c1):
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    back = triplets_from_json_dict(doc)
    assert len(back) == len(svd_b1_c1)
    # one g grid per document
    assert all(t.g.grid is back[0].g.grid for t in back)
    for t_in, t_out in zip(svd_b1_c1, back):
        assert t_out.sigma == t_in.sigma
        assert t_out.rho == t_in.rho
        assert t_out.trusted == t_in.trusted
        assert np.array_equal(t_out.g.values, t_in.g.values)
    # the basis read back writes the document it was read from
    assert svd_to_json_dict(back) == doc


def test_json_rejects_tampered_grid(svd_b1_c1):
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    nodes = doc["entries"][0]["g"]["nodes"]
    nodes[3] = 0.5 * (nodes[3] + nodes[4])
    with pytest.raises(ValueError):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("key, value", [("trusted", "false"), ("trusted", 1),
                                        ("sigma", "0.5"), ("rho", True),
                                        ("rho", None)])
def test_json_rejects_fields_of_the_wrong_type(svd_b1_c1, key, value):
    """trusted must be a JSON boolean and sigma, rho numbers: bool("false")
    is True, so a string would be read as a trusted row."""
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    doc["entries"][2][key] = value
    with pytest.raises(ValueError, match="trusted a boolean"):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("field", ["sigma", "rho", "g", "phi"])
def test_json_rejects_non_finite_values(svd_b1_c1, field):
    """The reader is the one place that checks a document's values: a nan
    or inf in any of them is rejected, so the CLI treats the file as a
    miss."""
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    entry = doc["entries"][2]
    if field == "g":
        entry["g"]["values"][5] = math.nan
    elif field == "phi":
        entry["phi"]["re"][5] = math.inf
    else:
        entry[field] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("m, part", [(2, "g"), (3, "g"), (2, "im"), (3, "re")])
def test_json_rejects_values_of_the_wrong_parity(svd_b1_c1, m, part):
    """A g value that breaks g_m(-x) = (-1)^m g_m(x), or a nonzero value in
    the part of phi_m that is exactly 0, is rejected."""
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    entry = doc["entries"][m]
    if part == "g":
        entry["g"]["values"][5] += 0.5
    else:
        entry["phi"][part][40] = 1e-300
    with pytest.raises(ValueError, match="parity|real row"):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("key", ["b", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_json_rejects_invalid_parameters(svd_b1_c1, key, value):
    """The document's (b, c) pass the one check OperatorParams makes."""
    doc = svd_to_json_dict(svd_b1_c1)
    doc[key] = value
    with pytest.raises(ValueError, match="positive and finite"):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("m, key", [(3, "sigma"), (12, "trusted"),
                                    (0, "trusted")])
def test_json_rejects_sigma_or_trusted_not_derived_from_rho(svd_c01, m, key):
    """A stored sigma one ulp off sqrt(rho/c), or a trusted flag flipped on
    an untrusted row (m = 12) or a trusted one (m = 0), is rejected: both
    follow from rho."""
    assert svd_c01.trusted.tolist() == [True] * 11 + [False] * 2
    doc = json.loads(json.dumps(svd_to_json_dict(svd_c01)))
    entry = doc["entries"][m]
    entry[key] = (not entry[key] if key == "trusted"
                  else float(np.nextafter(entry[key], math.inf)))
    with pytest.raises(ValueError, match=key):
        triplets_from_json_dict(doc)


def test_json_rejects_phi_grid_of_another_panel_size(svd_b1_c1):
    """A document on the phi panels with 15 Gauss nodes each, instead of
    phi_grid's 16, is rejected even though every entry is consistent."""
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    # each 16-node panel's edges from its end nodes, mid +- half-width
    panels = phi_grid(1.0).nodes.reshape(-1, 16)
    mid = 0.5 * (panels[:, 0] + panels[:, -1])
    half = 0.5 * (panels[:, -1] - panels[:, 0]) / gauss_legendre(16).nodes[-1]
    nodes = panel_grid(np.append(mid - half, mid[-1] + half[-1]), 15).nodes
    nodes = nodes.tolist()
    for e in doc["entries"]:
        e["phi"] = {"nodes": nodes, "re": [0.0] * len(nodes),
                    "im": [0.0] * len(nodes)}
    with pytest.raises(ValueError, match="phi grid"):
        triplets_from_json_dict(doc)


@pytest.mark.parametrize("reorder", ["gap", "reversed"])
def test_json_rejects_entries_not_in_m_order(svd_b1_c1, reorder):
    """A row's position is its m, so a document with a missing or
    reordered entry is rejected rather than read with shifted indices."""
    doc = json.loads(json.dumps(svd_to_json_dict(svd_b1_c1)))
    if reorder == "gap":
        del doc["entries"][4]
    else:
        doc["entries"].reverse()
    with pytest.raises(ValueError, match="m = 0..M-1"):
        triplets_from_json_dict(doc)


def test_untrusted_kept_not_dropped(svd_c01):
    svd = svd_c01
    assert len(svd) == 13
    flags = [t.trusted for t in svd]
    assert not all(flags)
    assert any(flags)
    first_bad = flags.index(False)
    assert all(flags[:first_bad]) and not any(flags[first_bad:])


def test_invalid_params():
    with pytest.raises(ValueError):
        OperatorParams(b=-1.0, c=1.0)
    with pytest.raises(ValueError):
        OperatorParams(b=1.0, c=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            OperatorParams(b=bad, c=1.0)
        with pytest.raises(ValueError):
            OperatorParams(b=1.0, c=bad)
    with pytest.raises(ValueError):
        compute_svd(OperatorParams(b=1.0, c=1.0), m_max=-1)


def test_one_adjoint_and_one_rayleigh_call_per_svd(operator_calls):
    """compute_svd makes the one Rayleigh call and no adjoint call; the
    document writer makes the one adjoint call, for every phi at once."""
    svd = compute_svd(OperatorParams(b=1.0, c=0.5), m_max=20)
    assert svd[-1].rho < 1e-16      # far below the dense solver's reach
    assert operator_calls == {"apply_adjoint": 0, "rho_rayleigh": 1,
                              "nystrom_eigensystem": 0}
    svd_to_json_dict(svd)
    assert operator_calls == {"apply_adjoint": 1, "rho_rayleigh": 1,
                              "nystrom_eigensystem": 0}


def test_no_dense_solve_at_any_c(operator_calls):
    """Every index takes the commuting route, also where the dense
    solver's trust floor would have covered them all."""
    for c, m_max in ((0.25, 12), (4.0, 12), (1.0, 30)):
        for name in operator_calls:
            operator_calls[name] = 0
        compute_svd(OperatorParams(b=1.0, c=c), m_max=m_max)
        assert operator_calls == {"apply_adjoint": 0, "rho_rayleigh": 1,
                                  "nystrom_eigensystem": 0}, (c, m_max)


def test_bounds_report_makes_one_rayleigh_call(operator_calls):
    build_report(0.5, m_max=16)
    assert operator_calls["rho_rayleigh"] == 1
    assert operator_calls["nystrom_eigensystem"] == 0


def test_one_route_matches_its_parts():
    """The stacked assembly against its parts one index at a time: each g
    row is evaluate_g renormalised on the Gauss grid within its roundoff
    eps max|g|, rho is rho_rayleigh within its roundoff eps/sqrt(rho), and
    sigma phi is F* g within its roundoff eps ||g||_1."""
    params = OperatorParams(b=1.0, c=0.5)
    svd = compute_svd(params, m_max=20)
    ode = galerkin_eigensystem(0.5, m_max=20)
    grid = svd.g.grid
    assert grid.nodes.size == nystrom_grid_size(20)
    xg = phi_grid(1.0)
    P = evaluate_phi(svd, xg.nodes)
    eps = np.finfo(float).eps
    for t in svd:
        g = ode.evaluate_g(t.m, grid.nodes)
        g = SampledFunction(grid, g / SampledFunction(grid, g).norm())
        assert np.max(np.abs(t.g.values - g.values)) <= \
            100 * eps * np.max(np.abs(g.values))
        rho = rho_rayleigh(0.5, g)
        assert abs(t.rho - rho) <= rho * max(1e-12, eps / np.sqrt(rho))
        assert t.sigma == np.sqrt(t.rho / params.c)
        adj = apply_adjoint(params, t.g, xg.nodes)
        g_l1 = np.sum(t.g.grid.weights * np.abs(t.g.values))
        assert np.max(np.abs(P[t.m] * t.sigma - adj)) <= 100 * eps * g_l1


@pytest.mark.parametrize("m_max", [12, 30])
@pytest.mark.parametrize("cp", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_g_matches_the_dense_oracle(cp, m_max):
    """README's cross-method contract: wherever rho > 1e-10 the commuting
    route's g_m agree with the refined dense Nystrom eigenvectors, on the
    same Gauss grid, to 1e-6 in L2 (measured at most 2.6e-10). On the
    dense solver's trusted rows rho agrees with its eigenvalue to 5 % of
    its trust floor, 50 eps rho_0, the dense roundoff scale (measured at
    most 5.2e-3 of the floor)."""
    svd = compute_svd(OperatorParams(b=1.0, c=cp), m_max=m_max)
    ny = nystrom_eigensystem(cp, m_max=m_max)
    assert np.array_equal(svd.g.grid.nodes, ny.grid.nodes)
    rows = np.nonzero(svd.rho > 1e-10)[0]
    assert rows.size > 0
    diff = svd.g.values[rows] - ny.g_values[:, rows].T
    l2 = SampledFunction(ny.grid, diff).norm()
    assert np.max(l2) <= 1e-6, (cp, m_max, np.argmax(l2))
    dense = ny.trusted
    assert np.all(np.abs(svd.rho[dense] - ny.eigenvalues[: m_max + 1][dense])
                  <= 0.05 * ny.trust_floor)
