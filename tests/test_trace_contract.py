"""The benchmark's traced layers are bound by name: benchmarks/worker.py
rebinds each LAYERS target at run time, and its attribute hooks read
parameters and fields of the package by name. A rename that breaks them
would otherwise show only when a traced benchmark run starts."""

import importlib
import importlib.util
import inspect
import os

import pytest
from click.testing import CliRunner

import sechprolate.cli as cli
from sechprolate.extrapolation import builtin_case, cutoff_estimate
from sechprolate.sech_operator import NystromSpectrum
from sechprolate.svd_assembly import compute_svd

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "worker.py")


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("target", sorted(load_worker().LAYERS))
def test_layer_target_resolves(target):
    """'module.function' is a function defined in that module;
    'module.Class.method' is a function in the class's own namespace."""
    parts = target.split(".")
    module = importlib.import_module(f"sechprolate.{parts[0]}")
    if len(parts) == 3:
        owner = getattr(module, parts[1])
        assert inspect.isclass(owner), target
        assert inspect.isfunction(owner.__dict__.get(parts[2])), target
    else:
        assert len(parts) == 2, target
        func = getattr(module, parts[1], None)
        assert inspect.isfunction(func), target
        assert func.__module__ == module.__name__, target


def test_cutoff_estimate_binds_the_traced_arguments():
    """worker._exp_elements binds a call's arguments, applies the defaults
    and reads these four by name; selftest passes only three positionally."""
    bound = inspect.signature(cutoff_estimate).bind(None, [], 2)
    bound.apply_defaults()
    assert {"svd", "N", "nfft", "report_points"} <= set(bound.arguments)


def test_exp_elements_hook_reads_a_real_call():
    """worker._exp_elements on the arguments and result of a real
    cutoff_estimate call returns an integer count."""
    obs, _, params = builtin_case("a")
    args = (obs, compute_svd(params, m_max=4), 2)
    kwargs = {"nfft": 256, "report_points": 64}
    attrs = load_worker()._exp_elements(args, kwargs,
                                        cutoff_estimate(*args, **kwargs))
    n_g = args[1].g.grid.nodes.size
    assert attrs == {"exp_elements": 64 * 256 + 3 * 256 * n_g}
    assert isinstance(attrs["exp_elements"], int)


def test_nystrom_spectrum_keeps_the_traced_fields():
    """worker._n_points reads .n; the accuracy pass calls trace_error()."""
    assert "n" in NystromSpectrum.__dataclass_fields__
    assert callable(NystromSpectrum.trace_error)


def test_svd_miss_encodes_its_document_in_one_json_bytes_call(tmp_path,
                                                             monkeypatch):
    """The benchmark times the document's encoding as the cli.json_bytes
    span and reads its size from the returned bytes: on a cache miss `svd`
    encodes the document in one call, whose result is svd.json."""
    calls = []
    original = cli.json_bytes

    def counted(doc):
        data = original(doc)
        calls.append(("entries" in doc, len(data)))
        return data

    monkeypatch.setattr(cli, "json_bytes", counted)
    out = tmp_path / "run"
    res = CliRunner().invoke(cli.main, ["svd", "--b", "1", "--c", "1",
                                        "--m-max", "4", "--out", str(out)],
                             env={"SECHPROLATE_CACHE": str(tmp_path / "c")})
    assert res.exit_code == 0, res.output
    assert [size for is_document, size in calls if is_document] == [
        os.path.getsize(out / "svd.json")]
