"""Command-line surface, end to end through click's test runner: output
files and their exact round-trips, exit codes, and byte reproducibility."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import sechprolate.bounds as bounds_lib
import sechprolate.cli as cli
from sechprolate.cli import main
from sechprolate.svd_assembly import rescale_phi, triplets_from_json_dict


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One disk cache for the whole module, so repeat invocations also
    exercise the cache path."""
    return str(tmp_path_factory.mktemp("svd_cache"))


def run_cli(cache, *args):
    return CliRunner().invoke(main, list(args),
                              env={"SECHPROLATE_CACHE": cache})


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


def test_svd_usage_errors(tmp_path, cache):
    res = run_cli(cache, "svd", "--b", "-1", "--c", "1",
                  "--out", str(tmp_path / "u1"))
    assert res.exit_code == 2
    assert "positive" in res.stderr

    res = run_cli(cache, "svd", "--b", "1", "--c", "1", "--n", "10",
                  "--out", str(tmp_path / "u2"))
    assert res.exit_code == 2
    assert "too small" in res.stderr

    res = run_cli(cache, "svd", "--c", "1")
    assert res.exit_code == 2


def test_svd_cache_key_changes_with_version(monkeypatch):
    key = cli.svd_cache_key(1.0, 1.0, 12, None)
    # the default n is resolved before hashing
    assert cli.svd_cache_key(1.0, 1.0, 12, 260) == key
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    assert cli.svd_cache_key(1.0, 1.0, 12, None) != key


def test_svd_scaling_law_across_runs(tmp_path, cache):
    """Triplets written at (b=2, c=1) match the scaling law applied to the
    (1, 0.5) document, through the JSON round-trip."""
    out_src, out_tgt = tmp_path / "src", tmp_path / "tgt"
    for out, b, c in ((out_src, "1", "0.5"), (out_tgt, "2", "1")):
        res = run_cli(cache, "svd", "--b", b, "--c", c, "--m-max", "6",
                      "--out", str(out))
        assert res.exit_code == 0
    src = triplets_from_json_dict(
        json.loads((out_src / "svd.json").read_text()))
    tgt = triplets_from_json_dict(
        json.loads((out_tgt / "svd.json").read_text()))
    for m in range(7):
        scaled = rescale_phi(2.0, 1.0, src[m])
        a = scaled.phi.values
        d = tgt[m].phi.values
        assert np.allclose(scaled.phi.grid.nodes, tgt[m].phi.grid.nodes,
                           atol=1e-15)
        ip = np.vdot(d, a)
        s = ip / abs(ip)
        assert np.max(np.abs(a - s * d)) < 1e-5, f"m={m}"
        assert scaled.sigma == pytest.approx(tgt[m].sigma, rel=1e-10)


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


def test_widom_fit_column(tmp_path, cache):
    out = tmp_path / "run"
    res = run_cli(cache, "widom", "--c", "1.0", "--fit", "--out", str(out))
    assert res.exit_code == 0
    _, rows = read_csv(out / "widom.csv")
    assert len(rows) == 1
    assert float(rows[0][4]) == bounds_lib.build_report(1.0,
                                                        m_max=12).slope_fit


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
    assert man["results"]["N"] == 0
    assert man["results"]["error_l2"] > 0
    _, rows = read_csv(out / "reconstruction.csv")
    assert len(rows) == 4096


def test_extrapolate_usage_errors(tmp_path, cache):
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
    ]
    for args in bad_args:
        res = run_cli(cache, *args, "--out", str(tmp_path / "u"))
        assert res.exit_code == 2, args


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


def test_extrapolate_untrusted_level_exits_3(tmp_path, cache):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        # the deep spectrum at (1, 0.5) has close eigenvalue gaps; that
        # advisory is asserted elsewhere and is not what this test is about
        warnings.simplefilter("ignore", UserWarning)
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
