import pytest

from sechprolate.commuting_ode import LiouvilleTransform, galerkin_eigensystem
from sechprolate.extrapolation import builtin_case
from sechprolate.sech_operator import (OperatorParams, SampledFunction,
                                       nystrom_eigensystem)
from sechprolate.special_functions import gauss_legendre
from sechprolate.svd_assembly import compute_svd


@pytest.fixture(scope="session")
def ny_c1():
    return nystrom_eigensystem(1.0, m_max=12)


@pytest.fixture(scope="session")
def ode_c1():
    return galerkin_eigensystem(1.0, n_b=140, m_max=20)


@pytest.fixture(scope="session")
def sample_g():
    """sample_g(ode, m): g_m of a Galerkin spectrum on the
    max(256, 2 n_b)-point Gauss grid, one function for an int m and
    stacked rows for an index array."""
    def sample(ode, m):
        grid = gauss_legendre(max(256, 2 * ode.n_b))
        return SampledFunction(grid, ode.evaluate_g(m, grid.nodes))
    return sample


@pytest.fixture(scope="session")
def transform_c1():
    return LiouvilleTransform(1.0)


@pytest.fixture(scope="session")
def svd_b1_c1():
    return compute_svd(OperatorParams(b=1.0, c=1.0), m_max=8)


@pytest.fixture(scope="session")
def basis_c2():
    from oracles.pswf import pswf_basis
    return pswf_basis(2.0, m_max=10)


@pytest.fixture(scope="session")
def case_a():
    """Benchmark case (a) with its SVD, shared by the extrapolation tests."""
    obs, truth, params = builtin_case("a")
    svd = compute_svd(params, m_max=12)
    return obs, truth, params, svd


@pytest.fixture
def coefficient_calls(monkeypatch):
    """List that grows by one on every extrapolation.coefficients call."""
    import sechprolate.extrapolation as ex
    calls = []
    original = ex.coefficients

    def counted(obs, svd):
        calls.append(1)
        return original(obs, svd)

    monkeypatch.setattr(ex, "coefficients", counted)
    return calls


@pytest.fixture
def document_parses(monkeypatch):
    """List that grows by one on every triplets_from_json_dict call the
    command line makes."""
    import sechprolate.cli as cli
    calls = []
    original = cli.triplets_from_json_dict

    def counted(doc):
        calls.append(1)
        return original(doc)

    monkeypatch.setattr(cli, "triplets_from_json_dict", counted)
    return calls


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts of apply_adjoint, rho_rayleigh and nystrom_eigensystem calls,
    by name. Each is rebound in sech_operator and in every module that
    imports it."""
    import sechprolate.bounds as bo
    import sechprolate.sech_operator as so
    import sechprolate.svd_assembly as sa
    calls = {"apply_adjoint": 0, "rho_rayleigh": 0, "nystrom_eigensystem": 0}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        wrapped = counter(name, getattr(so, name))
        for module in (so, sa, bo):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return calls
