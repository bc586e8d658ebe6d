"""Command-line surface, end to end through click's test runner: output
files and their exact round-trips, exit codes, and byte reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import sechprolate.bounds as bounds_lib
import sechprolate.cli as cli
from sechprolate.cli import main
from sechprolate.svd_assembly import triplets_from_json_dict

from oracles.svd_assembly import rescale_phi


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One disk cache for the whole module, so repeat invocations also
    exercise the cache path."""
    return str(tmp_path_factory.mktemp("svd_cache"))


def run_cli(cache, *args):
    return CliRunner().invoke(main, list(args),
                              env={"SECHPROLATE_CACHE": cache})


def run_usage_error(tmp_path, *args):
    """Run a command that must fail as a usage error: exit code 2, and
    nothing written to its own fresh cache directory."""
    fresh = tmp_path / "usage_cache"
    fresh.mkdir(exist_ok=True)
    res = run_cli(str(fresh), *args, "--out", str(tmp_path / "u"))
    assert res.exit_code == 2, args
    assert not any(fresh.iterdir()), args
    return res


def read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_svd_outputs(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "svd", "--b", "1", "--c", "1", "--m-max", "12",
                  "--out", str(out))
    assert res.exit_code == 0
    assert "svd: 13 triplets" in res.output
    header, rows = read_csv(out / "svd_summary.csv")
    assert header == ["m", "sigma", "rho", "trusted"]
    assert [r[0] for r in rows] == [str(m) for m in range(13)]
    sig = [float(r[1]) for r in rows]
    assert all(s0 > s1 for s0, s1 in zip(sig, sig[1:]))
    assert all(r[3] == "true" for r in rows)
    man = json.loads((out / "svd_manifest.json").read_text())
    assert man["command"] == "svd"
    assert man["outputs"] == ["svd.json", "svd_summary.csv"]
    assert man["parameters"] == {"b": 1.0, "c": 1.0, "m_max": 12, "n": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert man["environment"] == {
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas_name": blas["name"], "blas_version": blas["version"],
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


@pytest.mark.parametrize("config", [{}, {"Build Dependencies": {}},
                                    {"Build Dependencies": {"blas": {}}}])
def test_blas_build_is_null_where_numpy_does_not_record_it(monkeypatch,
                                                           config):
    monkeypatch.setattr(np, "show_config", lambda mode: config)
    assert cli.blas_build.__wrapped__() == (None, None)


def test_svd_rerun_is_byte_identical(tmp_path, cache):
    outs = [tmp_path / name for name in ("first", "second")]
    for out in outs:
        res = run_cli(cache, "svd", "--b", "1", "--c", "1", "--m-max", "12",
                      "--out", str(out))
        assert res.exit_code == 0
    for name in ("svd.json", "svd_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_svd_summary_roundtrips_to_json(tmp_path, cache):
    """The 17-significant-digit CSV cells parse back to the exact doubles
    stored in svd.json."""
    out = tmp_path / "run"
    res = run_cli(cache, "svd", "--b", "1", "--c", "1", "--m-max", "12",
                  "--out", str(out))
    assert res.exit_code == 0
    doc = json.loads((out / "svd.json").read_text())
    _, rows = read_csv(out / "svd_summary.csv")
    for row, entry in zip(rows, doc["entries"], strict=True):
        assert int(row[0]) == entry["m"]
        assert float(row[1]) == entry["sigma"]
        assert float(row[2]) == entry["rho"]


def test_svd_at_the_top_of_the_range_warns_nothing(tmp_path, cache):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = run_cli(cache, "svd", "--b", "1", "--c", "111", "--m-max", "12",
                      "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert [str(w.message) for w in seen
            if issubclass(w.category, RuntimeWarning)] == []


def test_svd_usage_errors(tmp_path):
    res = run_usage_error(tmp_path, "svd", "--b", "-1", "--c", "1")
    assert "'--b'" in res.stderr and "x>0" in res.stderr

    res = run_usage_error(tmp_path, "svd", "--b", "1", "--c", "1",
                          "--n", "10")
    assert "too small" in res.stderr

    run_usage_error(tmp_path, "svd", "--c", "1")

    for args in (["svd", "--b", "1", "--c", "1"], ["bounds", "--c", "1"],
                 ["widom", "--c", "1", "--fit"]):
        res = run_usage_error(tmp_path, *args, "--m-max", "-1")
        assert "'--m-max'" in res.stderr and "x>=0" in res.stderr, args

    # a decay fit needs at least three points
    for m_max in ("0", "1"):
        res = run_usage_error(tmp_path, "widom", "--c", "1", "--fit",
                              "--m-max", m_max)
        assert "--m-max" in res.stderr, m_max
    assert not (tmp_path / "u").exists()

    # nan passes every comparison with 0, and inf every lower bound
    for b, c, msg in [("nan", "1", "not a finite number"),
                      ("1", "nan", "not a finite number"),
                      ("1", "inf", "not a finite number"),
                      ("-inf", "1", "x>0")]:
        res = run_usage_error(tmp_path, "svd", "--b", b, "--c", c)
        assert msg in res.stderr, (b, c)


def test_svd_cache_key_changes_with_version(monkeypatch):
    key = cli.svd_cache_key(1.0, 1.0, 12, None)
    # the default n is resolved before hashing
    assert cli.svd_cache_key(1.0, 1.0, 12, 260) == key
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    assert cli.svd_cache_key(1.0, 1.0, 12, None) != key


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_version_matches_pyproject():
    """The cache key reads only __version__, and pyproject.toml takes the
    package version from it, so the two read one literal."""
    from setuptools.config.pyprojecttoml import read_configuration
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == cli.__version__


def fresh_interpreter_env(**extra):
    """Environment for a fresh interpreter that imports this package."""
    pkg_root = os.path.dirname(os.path.dirname(cli.__file__))
    paths = [pkg_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **extra)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter importing the
    # command line must not load any of it
    code = ("import sys, sechprolate.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code],
                         env=fresh_interpreter_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout.strip() == "[]"


def test_svd_byte_identical_across_processes_at_one_blas_thread(tmp_path):
    """README's determinism contract holds at a fixed BLAS thread count:
    two fresh interpreters with OPENBLAS_NUM_THREADS=1, each with its own
    empty cache, write the same svd.json."""
    digests = []
    for run in ("one", "two"):
        cache_dir = tmp_path / run / "cache"
        env = fresh_interpreter_env(OPENBLAS_NUM_THREADS="1",
                                    SECHPROLATE_CACHE=str(cache_dir))
        subprocess.run([sys.executable, "-m", "sechprolate.cli", "svd",
                        "--b", "1", "--c", "0.5", "--m-max", "20",
                        "--out", str(tmp_path / run / "out")],
                       env=env, capture_output=True, timeout=120, check=True)
        assert any(cache_dir.iterdir())
        data = (tmp_path / run / "out" / "svd.json").read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
    assert digests[0] == digests[1]


def test_svd_scaling_law_across_runs(tmp_path, cache):
    """The phi rows and sigma written at (b=2, c=1) match the scaling law
    applied to the basis read back from the (1, 0.5) document."""
    out_src, out_tgt = tmp_path / "src", tmp_path / "tgt"
    for out, b, c in ((out_src, "1", "0.5"), (out_tgt, "2", "1")):
        res = run_cli(cache, "svd", "--b", b, "--c", c, "--m-max", "6",
                      "--out", str(out))
        assert res.exit_code == 0
    src = triplets_from_json_dict(
        json.loads((out_src / "svd.json").read_text()))
    tgt = json.loads((out_tgt / "svd.json").read_text())["entries"]
    for m in range(7):
        sigma, scaled = rescale_phi(2.0, 1.0, src[m])
        a = scaled.values
        d = np.array(tgt[m]["phi"]["re"]) + 1j * np.array(tgt[m]["phi"]["im"])
        assert np.allclose(scaled.grid.nodes, tgt[m]["phi"]["nodes"],
                           atol=1e-15)
        ip = np.vdot(d, a)
        s = ip / abs(ip)
        assert np.max(np.abs(a - s * d)) < 1e-5, f"m={m}"
        assert sigma == pytest.approx(tgt[m]["sigma"], rel=1e-10)


def test_bounds_table(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "bounds", "--c", "0.5", "--c", "2.0", "--m-max", "8",
                  "--out", str(out))
    assert res.exit_code == 0
    assert "bounds: 18 rows" in res.output
    header, rows = read_csv(out / "bounds.csv")
    assert header == ["c"] + bounds_lib.ROW_FIELDS + [
        "lower_exponent", "upper_exponent", "widom_slope", "slope_fit"]
    assert len(rows) == 18
    col = {name: i for i, name in enumerate(header)}

    half = [r for r in rows if float(r[0]) == 0.5]
    assert len(half) == 9
    for r in half:
        assert float(r[col["widom_slope"]]) == bounds_lib.widom_slope(0.5)
        assert float(r[col["lower_exponent"]]) == 2 * bounds_lib.beta(0.5)
        assert float(r[col["upper_exponent"]]) == 2 * math.log(2.0)
        assert r[col["upper"]] != ""
        assert r[col["lower_small_c"]] != ""
        lo = float(r[col["lower_combined"]])
        rho = float(r[col["rho_computed"]])
        assert lo <= rho * (1 + 1e-8)

    for r in [r for r in rows if float(r[0]) == 2.0]:
        # no closed-form upper bound and no small-c lower bound at c = 2
        assert r[col["upper"]] == ""
        assert r[col["upper_exponent"]] == ""
        assert r[col["lower_small_c"]] == ""

    for bad in ("0", "-1", "nan", "inf"):
        run_usage_error(tmp_path, "bounds", "--c", "0.5", "--c", bad)


def test_widom_default_grid(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "widom", "--out", str(out))
    assert res.exit_code == 0
    header, rows = read_csv(out / "widom.csv")
    assert header == ["c", "widom_slope", "lower_exponent", "upper_exponent",
                      "slope_fit"]
    assert [float(r[0]) for r in rows] == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                                           2.0, 2.5, 3.0]
    for r in rows:
        c = float(r[0])
        assert float(r[1]) == bounds_lib.widom_slope(c)
        assert float(r[2]) == 2 * bounds_lib.beta(c)
        if c < 1:
            assert float(r[3]) == 2 * math.log(1 / c)
        else:
            assert r[3] == ""
        assert r[4] == ""  # no --fit, so no fitted slope
    man = json.loads((out / "widom_manifest.json").read_text())
    assert "m_max" not in man["parameters"]   # read only with --fit

    for bad in ("0", "-1", "nan", "inf"):
        run_usage_error(tmp_path, "widom", "--c", bad)
    res = run_usage_error(tmp_path, "widom", "--c", "1", "--m-max", "5")
    assert "--m-max is not read without --fit" in res.stderr


def test_widom_fit_column(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "widom", "--c", "1.0", "--fit", "--out", str(out))
    assert res.exit_code == 0
    _, rows = read_csv(out / "widom.csv")
    assert len(rows) == 1
    assert float(rows[0][4]) == bounds_lib.build_report(1.0,
                                                        m_max=12).slope_fit
    man = json.loads((out / "widom_manifest.json").read_text())
    assert man["parameters"]["m_max"] == 12


def test_extrapolate_case_a_adaptive(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--case", "a", "--adaptive",
                  "--out", str(out))
    assert res.exit_code == 0
    assert "N_hat = " in res.output
    man = json.loads((out / "extrapolate_manifest.json").read_text())
    results = man["results"]
    assert results["N_max"] == 2
    assert 0 <= results["N_hat"] <= results["N_max"]
    assert len(results["B"]) == results["N_max"] + 1
    assert len(results["criterion"]) == results["N_max"] + 1
    assert 0 < results["error_l2"] < 0.5
    header, rows = read_csv(out / "reconstruction.csv")
    assert header == ["x", "f_hat_re", "f_hat_im", "f_true"]
    assert len(rows) == 4096
    xs = [float(r[0]) for r in rows]
    assert xs[0] == -6.0 and xs[-1] == 6.0


def test_extrapolate_case_b_fixed_level(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--case", "b", "--N", "0",
                  "--out", str(out))
    assert res.exit_code == 0
    assert "N = 0" in res.output
    man = json.loads((out / "extrapolate_manifest.json").read_text())
    assert man["parameters"]["case"] == "b"
    assert "variant" not in man["parameters"]   # a fixed level reads none
    assert man["results"]["N"] == 0
    assert man["results"]["error_l2"] > 0
    _, rows = read_csv(out / "reconstruction.csv")
    assert len(rows) == 4096


def test_extrapolate_usage_errors(tmp_path):
    window = tmp_path / "window.csv"
    window.write_text("x,f_delta\n" + "".join(
        f"{x},0.0\n" for x in np.linspace(-1, 1, 9)))
    bad_args = [
        ["extrapolate", "--adaptive"],
        ["extrapolate", "--case", "a", "--input", str(window), "--adaptive"],
        ["extrapolate", "--case", "a"],
        ["extrapolate", "--case", "a", "--adaptive", "--N", "1"],
        ["extrapolate", "--case", "a", "--b", "2.0", "--adaptive"],
        ["extrapolate", "--case", "a", "--sweep", "--adaptive"],
        ["extrapolate", "--input", str(window), "--adaptive"],
        ["extrapolate", "--input", str(window), "--sweep"],
        ["extrapolate", "--case", "a", "--N", "-1"],
        ["extrapolate", "--case", "a", "--N", "3", "--delta", "-0.1"],
        ["extrapolate", "--case", "a", "--N", "3", "--delta", "nan"],
        ["extrapolate", "--case", "a", "--sweep", "--delta", "inf"],
        # sweep deltas outside (0, 0.5] exited 3 as numerical failures
        ["extrapolate", "--case", "a", "--sweep", "--delta", "0"],
        ["extrapolate", "--case", "a", "--sweep", "--delta", "0.7"],
    ] + [
        # each exited 3 or ran with N_bar = 0 while --kappa was a bare float
        ["extrapolate", "--case", "a", "--sweep", "--rule", "exponential",
         "--kappa", v] for v in ("nan", "-5", "inf")
    ] + [["extrapolate", "--case", "a", "--N", "1", "--report-points", v]
         for v in ("0", "1")] + [
        # options the mode does not read, each ignored while unchecked
        ["extrapolate", "--case", "a", "--N", "2", "--x0", "0.3"],
        ["extrapolate", "--case", "a", "--N", "2", "--rule", "exponential",
         "--kappa", "5"],
        ["extrapolate", "--case", "a", "--sweep", "--delta", "0.1", "--b", "2",
         "--c", "3", "--x0", "1", "--report-points", "99"],
        ["extrapolate", "--case", "a", "--sweep", "--kappa", "5"],
    ] + [
        ["extrapolate", "--input", str(window), "--b", b, "--c", c,
         "--x0", x0, "--delta", "0.05", "--N", "1"]
        for b, c, x0 in [("nan", "0.5", "0"), ("1", "nan", "0"),
                         ("inf", "0.5", "0"), ("1", "0", "0"),
                         ("1", "0.5", "nan"), ("1", "0.5", "-inf")]]
    for args in bad_args:
        run_usage_error(tmp_path, *args)
    res = run_usage_error(tmp_path, "extrapolate", "--case", "a", "--N", "2",
                          "--variant", "minus")
    assert "--variant" in res.stderr


def test_extrapolate_window_csv_validation(tmp_path, cache):
    broken = tmp_path / "broken.csv"
    broken.write_text("x,f_delta\n-1.0,0.25\n0.0,oops\n1.0,0.25\n")
    res = run_cli(cache, "extrapolate", "--input", str(broken), "--b", "1",
                  "--c", "0.5", "--delta", "0.05", "--adaptive",
                  "--out", str(tmp_path / "o1"))
    assert res.exit_code == 2
    assert "line 3: could not parse a number" in res.stderr

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x,f_delta\n" + "".join(
        f"{x},0.1\n" for x in np.linspace(-0.9, 0.9, 21)))
    res = run_cli(cache, "extrapolate", "--input", str(narrow), "--b", "1",
                  "--c", "0.5", "--delta", "0.05", "--adaptive",
                  "--out", str(tmp_path / "o2"))
    assert res.exit_code == 2
    assert "must cover" in res.stderr

    # each of these crashed (exit 1) or ran (exit 0) while unchecked
    rows = [f"{x},0.1" for x in np.linspace(-1, 1, 21)]

    def text(lines):
        return ("x,f_delta\n" + "\n".join(lines) + "\n").encode("ascii")

    half = [f"{x},0.1" for x in np.linspace(-1, 0.5, 21)]
    bad_inputs = {
        "bom.csv": (b"\xef\xbb\xbf" + text(rows), "line 1: not ASCII"),
        "latin1.csv": (text(rows) + b"0.05,\xe9\n", "line 23: not ASCII"),
        "nan_f.csv": (text(rows[:4] + ["-0.55,nan"] + rows[4:]),
                      "line 6: values must be finite"),
        "nan_x.csv": (text(rows[:4] + ["nan,0.1"] + rows[4:]),
                      "line 6: values must be finite"),
        "half_inf.csv": (text(half + ["inf,0.5"]),
                         "line 23: values must be finite"),
    }
    for name, (data, msg) in bad_inputs.items():
        path = tmp_path / name
        path.write_bytes(data)
        res = run_usage_error(tmp_path, "extrapolate", "--input", str(path),
                              "--b", "1", "--c", "0.5", "--delta", "0.05",
                              "--adaptive")
        assert f"{name}: {msg}" in res.stderr, name


def test_extrapolate_untrusted_level_exits_3(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--case", "a", "--N", "30",
                  "--out", str(out))
    assert res.exit_code == 3
    assert "numerical failure:" in res.stderr
    assert "exceeds trusted index" in res.stderr


def test_extrapolate_input_csv_runs(tmp_path, cache):
    x = np.linspace(-1.0, 1.0, 401)
    f = 0.5 / np.cosh(2 * 0.5 * x)
    window = tmp_path / "window.csv"
    window.write_text("x,f_delta\n" + "".join(
        f"{format(xi, '.17g')},{format(fi, '.17g')}\n"
        for xi, fi in zip(x, f)))
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--input", str(window), "--b", "1",
                  "--c", "0.5", "--delta", "0.05", "--adaptive",
                  "--out", str(out))
    assert res.exit_code == 0
    man = json.loads((out / "extrapolate_manifest.json").read_text())
    digest = hashlib.sha256(window.read_bytes()).hexdigest()
    assert man["input_hashes"] == {"window.csv": digest}
    assert man["results"]["N_hat"] <= man["results"]["N_max"]
    header, _ = read_csv(out / "reconstruction.csv")
    assert header == ["x", "f_hat_re", "f_hat_im"]  # no truth column


@pytest.mark.filterwarnings("error")
def test_extrapolate_input_small_b_is_not_aliased(tmp_path, cache):
    """At b = 0.01 no copy of the estimate lands on the report grid
    [x0 - 6, x0 + 6]: away from the window it has decayed like
    exp(-pi |x - x0| / (2 b)). The kernel's cosh argument reaches about 940
    here, past its overflow at 710, where sech is 0; the run must give no
    warning, and this test turns any warning into an error."""
    b, c, x0 = 0.01, 0.005, 0.3
    x = np.linspace(-1.0, 1.0, 201)
    window = tmp_path / "window.csv"
    window.write_text("x,f_delta\n" + "".join(
        f"{xi:.17g},{0.5 / np.cosh(2 * c * xi / b):.17g}\n" for xi in x))
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--input", str(window), "--b", str(b),
                  "--c", str(c), "--x0", str(x0), "--delta", "0.01", "--N", "2",
                  "--out", str(out))
    assert res.exit_code == 0, res.output
    data = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1)
    mag = np.abs(data[:, 1] + 1j * data[:, 2])
    assert np.max(mag[np.abs(data[:, 0] - x0) > 0.5]) < 1e-9 * np.max(mag)


def test_extrapolate_sweep_rates(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "extrapolate", "--case", "a", "--sweep",
                  "--delta", "0.1", "--delta", "0.01", "--out", str(out))
    assert res.exit_code == 0
    assert "extrapolate sweep: slopes" in res.output
    header, rows = read_csv(out / "rates.csv")
    assert header == ["delta", "N_bar", "err_bar", "N_hat", "err_hat"]
    assert [float(r[0]) for r in rows] == [0.1, 0.01]
    assert float(rows[0][4]) > float(rows[1][4])
    man = json.loads((out / "extrapolate_manifest.json").read_text())
    assert man["parameters"]["variant"] == "plus"
    assert "kappa" not in man["parameters"]     # the polynomial rule reads none
    assert math.isfinite(man["results"]["slope_bar"])
    assert math.isfinite(man["results"]["slope_hat"])


def test_selftest_byte_identical_data(tmp_path, cache):
    names = ["selftest_svd.json", "selftest_bounds.csv",
             "selftest_reconstruction.csv"]
    outs = [tmp_path / name for name in ("first", "second")]
    for out in outs:
        res = run_cli(cache, "selftest", "--out", str(out))
        assert res.exit_code == 0
        assert "selftest: ok" in res.output
        for name in names:
            line = next(l for l in res.output.splitlines()
                        if l.endswith(f"  {name}"))
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert line.split()[0] == digest
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def reconstruction_rows(n=4096):
    """Rows shaped like reconstruction.csv: numpy columns zipped together."""
    rng = np.random.default_rng(n)
    x = np.linspace(-6.0, 6.0, n)
    return list(zip(x, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                    np.sin(x) * 1e-310, 0.5 / np.cosh(2.0 * x)))


@pytest.mark.parametrize("rows", [
    reconstruction_rows(),
    [(0.1, -2.5, 1e300), (3.0, 1.0 / 3.0, -7e-310)],
    [tuple(np.float64(v) for v in (0.1, -2.5, 1e300, 2.0 ** -1074))],
    [(1, 2.5, True, None), (np.int64(-4), np.float64(0.5), np.bool_(False), 7)],
    [(math.inf, -math.inf, math.nan, -0.0, 0.0),
     (np.float64("inf"), np.float64("-inf"), np.float64("nan"),
      np.float64(-0.0), 5e-324)],
    [(2.0 ** -1022, 2.0 ** -1074, -4.9e-324, np.nextafter(0.0, 1.0)), ()],
    [(1.5, None), (None, 1.5), (np.float32(0.1), 0.1)],
])
def test_csv_bytes_equal_per_cell_join(rows):
    header = ["h%d" % i for i in range(max(len(r) for r in rows))]
    expected = "\n".join([",".join(header)] + [
        ",".join(cli.fmt_cell(x) for x in row) for row in rows]) + "\n"
    assert cli.csv_bytes(header, rows) == expected.encode("ascii")
    assert cli.csv_bytes(header, iter(rows)) == expected.encode("ascii")


def test_extrapolate_adaptive_projects_the_window_once(tmp_path, cache,
                                                       coefficient_calls):
    res = run_cli(cache, "extrapolate", "--case", "a", "--adaptive",
                  "--out", str(tmp_path / "run"))
    assert res.exit_code == 0
    assert len(coefficient_calls) == 1


def test_cli_parses_a_document_only_on_a_cache_hit(tmp_path, document_parses):
    """svd on an empty cache writes the document it computed without
    parsing it back; extrapolate on the now warm key parses it once, and
    on a key it has to compute, not at all."""
    cache_dir = str(tmp_path / "cache")
    res = run_cli(cache_dir, "svd", "--b", "1", "--c", "0.5", "--m-max", "8",
                  "--out", str(tmp_path / "svd"))
    assert res.exit_code == 0
    assert len(document_parses) == 0
    # case (a) is b = 1, c = 0.5 with an m_max = 8 basis: the key just written
    res = run_cli(cache_dir, "extrapolate", "--case", "a", "--N", "2",
                  "--out", str(tmp_path / "ex"))
    assert res.exit_code == 0
    assert len(document_parses) == 1
    res = run_cli(cache_dir, "extrapolate", "--case", "b", "--N", "2",
                  "--out", str(tmp_path / "miss"))
    assert res.exit_code == 0
    assert len(document_parses) == 1


def test_extrapolate_cache_miss_and_hit_are_byte_identical(tmp_path):
    """A miss estimates from the basis in memory, a hit from the parsed
    document; both must give the same reconstruction bytes."""
    cache_dir = str(tmp_path / "cache")
    outs = [tmp_path / name for name in ("miss", "hit")]
    for out in outs:
        res = run_cli(cache_dir, "extrapolate", "--case", "b", "--N", "3",
                      "--out", str(out))
        assert res.exit_code == 0
    first, second = [(out / "reconstruction.csv").read_bytes() for out in outs]
    assert first == second


def test_extrapolate_twice_in_one_process_is_byte_identical(tmp_path, cache):
    """The Gauss rules are shared across calls; a write into one would
    show as a changed reconstruction on the second run."""
    outs = [tmp_path / name for name in ("first", "second")]
    for out in outs:
        res = run_cli(cache, "extrapolate", "--case", "a", "--adaptive",
                      "--out", str(out))
        assert res.exit_code == 0
    first, second = [(out / "reconstruction.csv").read_bytes() for out in outs]
    assert first == second
    assert len(first.splitlines()) == 4097


def other_document(tmp_path, *svd_args):
    """The document `svd` writes for other parameters than case (a)'s."""
    other = tmp_path / "other"
    res = run_cli(str(other), "svd", *svd_args, "--out", str(tmp_path / "o"))
    assert res.exit_code == 0
    return (tmp_path / "o" / "svd.json").read_bytes()


def tampered_document(document, key, value):
    """The document with one field of entry m = 3 set to value."""
    doc = json.loads(document)
    doc["entries"][3][key] = value
    return json.dumps(doc).encode("ascii")


@pytest.mark.parametrize("corrupt", ["truncated", "empty_dict", "other_c",
                                     "other_n", "nan_rho",
                                     "string_trusted", "sigma_ulp"])
def test_corrupt_cached_document_is_recomputed(tmp_path, corrupt):
    """A cached document that does not parse, or parses as one for other
    parameters, with a non-finite value or with a field of the wrong JSON
    type, or with a sigma one ulp off the one rho gives, is a miss: the run
    recomputes it, overwrites the file and gives the bytes of a fresh-cache
    run."""
    fresh, cache_dir = tmp_path / "fresh", tmp_path / "cache"
    res = run_cli(str(fresh), "extrapolate", "--case", "a", "--N", "2",
                  "--out", str(tmp_path / "ref"))
    assert res.exit_code == 0
    # case (a) is b = 1, c = 0.5 with an m_max = 8 basis
    name = cli.svd_cache_key(1.0, 0.5, 8, None) + ".json"
    document = (fresh / name).read_bytes()
    cache_dir.mkdir()
    (cache_dir / name).write_bytes({
        "truncated": lambda: document[:100],
        "empty_dict": lambda: b"{}",
        "other_c": lambda: other_document(tmp_path, "--b", "1", "--c", "1",
                                          "--m-max", "8"),
        "other_n": lambda: other_document(tmp_path, "--b", "1", "--c", "0.5",
                                          "--m-max", "8", "--n", "400"),
        "nan_rho": lambda: tampered_document(document, "rho", float("nan")),
        "string_trusted": lambda: tampered_document(document, "trusted",
                                                    "false"),
        "sigma_ulp": lambda: tampered_document(document, "sigma", float(
            np.nextafter(json.loads(document)["entries"][3]["sigma"], 1.0))),
    }[corrupt]())
    res = run_cli(str(cache_dir), "extrapolate", "--case", "a", "--N", "2",
                  "--out", str(tmp_path / "run"))
    assert res.exit_code == 0, res.output
    assert (cache_dir / name).read_bytes() == document
    assert ((tmp_path / "run" / "reconstruction.csv").read_bytes()
            == (tmp_path / "ref" / "reconstruction.csv").read_bytes())


def test_cached_document_with_a_flipped_trusted_is_recomputed(tmp_path):
    """At c/b = 0.1 the rows m = 11, 12 are untrusted. A cached document
    that calls m = 12 trusted is a miss: the run overwrites it and writes
    the svd.json of a fresh-cache run."""
    args = ("svd", "--b", "1", "--c", "0.1", "--m-max", "12")
    fresh, cache_dir = tmp_path / "fresh", tmp_path / "cache"
    res = run_cli(str(fresh), *args, "--out", str(tmp_path / "ref"))
    assert res.exit_code == 0
    name = cli.svd_cache_key(1.0, 0.1, 12, None) + ".json"
    document = (fresh / name).read_bytes()
    doc = json.loads(document)
    assert [e["trusted"] for e in doc["entries"][10:]] == [True, False, False]
    doc["entries"][12]["trusted"] = True
    cache_dir.mkdir()
    (cache_dir / name).write_bytes(cli.json_bytes(doc))
    res = run_cli(str(cache_dir), *args, "--out", str(tmp_path / "run"))
    assert res.exit_code == 0, res.output
    assert (cache_dir / name).read_bytes() == document
    assert ((tmp_path / "run" / "svd.json").read_bytes()
            == (tmp_path / "ref" / "svd.json").read_bytes())
