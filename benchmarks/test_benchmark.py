"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest benchmarks/test_benchmark.py
"""
import json
import os
import time

import pytest

import run
import spans
import worker
import workloads


class Tiny:
    """A workload reduced to fixed small items; everything else as the
    real one."""

    def __init__(self, base, items):
        self.base = base
        self.items = items

    def __getattr__(self, name):
        return getattr(self.base, name)

    def cycle(self, rng, ctx):
        return [dict(item) for item in self.items]


TINY = {
    "svd_cold": [{"argv": ["svd", "--b", "1", "--c", "0.5", "--m-max", "4"],
                  "m_max": 4}],
    "bounds_table": [{"argv": ["bounds", "--c", "0.5", "--c", "1", "--m-max", "4"],
                      "c": [0.5, 1.0], "m_max": 4}],
    "extrapolate_warm": [{"argv": ["extrapolate", "--case", "a", "--N", "1"],
                          "case": "a", "level": 1}],
}


def tiny_run(name, trace, tmp_path, items=None):
    wl = Tiny(workloads.WORKLOADS[name], items or TINY[name])
    t0 = time.perf_counter()
    marks = []
    result = worker.run(wl, 1, 0.0, trace, str(tmp_path / name),
                        ready=lambda: marks.append(time.perf_counter() - t0))
    return result, [(marks[0], result["setup_cal_s"])]


def benchmark_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, tmp_path):
    end_to_end, per_layer, names = benchmark_metric_names()
    assert sorted(names) == sorted(run.WORKLOADS)
    result, marks = tiny_run(name, 0, tmp_path)
    metrics, _ = run.summarise(result, marks, [result["import_s"]], 0)
    assert sorted(metrics) == sorted(end_to_end)
    assert not any(r["error"] for r in result["ops"])
    traced, marks = tiny_run(name, 1, tmp_path)
    metrics, _ = run.summarise(traced, marks, [traced["import_s"]], 1)
    assert sorted(metrics) == sorted(per_layer)
    for m in metrics.values():
        assert m["value"] >= 0 and m["unit"]
    # only extrapolate_warm reads SVD documents, all from the warm cache
    hit_ratio = 1.0 if name == "extrapolate_warm" else 0.0
    assert metrics["cli.cache_hit_ratio"]["value"] == hit_ratio


def test_bad_op_counts_as_error_and_the_run_goes_on(tmp_path):
    # n passes the CLI's own check (2 (m_max+1)) but not the solver's
    # (4 (m_max+1)), so the command exits 3
    bad = {"argv": ["svd", "--b", "1", "--c", "1", "--m-max", "12", "--n", "30"],
           "m_max": 12}
    result, marks = tiny_run("svd_cold", 0, tmp_path,
                             [bad] + TINY["svd_cold"])
    errors = [r for r in result["ops"] if r["error"]]
    assert [r["code"] for r in errors] == [3]
    assert len(result["ops"]) == 3          # bad, good, and the good one again
    metrics, _ = run.summarise(result, marks, [result["import_s"]], 0)
    assert metrics["ops_per_s"]["value"] > 0


def test_changed_data_file_fails_the_repeat(tmp_path):
    session = worker.Session(Tiny(workloads.WORKLOADS["svd_cold"], []), 1,
                             str(tmp_path))
    cli, _ = worker.import_cli()
    item = TINY["svd_cold"][0]
    first, _, _ = session.op(cli, item)
    session.first_hashes[json.dumps(item["argv"])]["svd.json"] = "0" * 64
    second, _, _ = session.op(cli, item)
    assert first["error"] is None
    assert second["error"].startswith("data files differ")


def test_nested_spans_give_self_time_within_total():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.01)

    inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer)
    with tracer.span("op"):
        outer()
    s = tracer.summary()
    assert [sp[0] for sp in tracer.spans] == ["op", "outer", "inner", "inner"]
    assert [sp[3] for sp in tracer.spans] == [-1, 0, 1, 1]
    assert s["inner"]["calls"] == 2
    for name in ("op", "outer", "inner"):
        assert 0 <= s[name]["self_s"] <= s[name]["s"]
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert s["op"]["self_s"] < 0.005


def test_install_rebinds_every_copy_and_uninstall_restores():
    import sechprolate.cli as cli
    import sechprolate.svd_assembly as svd_assembly
    original = svd_assembly.compute_svd
    tracer = spans.Tracer()
    tracer.install({"svd_assembly.compute_svd": None})
    try:
        assert cli.compute_svd is svd_assembly.compute_svd
        assert cli.compute_svd is not original
    finally:
        tracer.uninstall()
    assert cli.compute_svd is original and svd_assembly.compute_svd is original


def test_tail_percentile_leaves_ten_samples_beyond():
    records = [{"seconds": float(i), "cal_s": worker.REFERENCE_CAL_S, "error": None}
               for i in range(1, 41)]
    st = run.op_stats(records)
    assert st["tail_p"] == pytest.approx(75.0)
    assert sum(1 for r in records if r["seconds"] > st["tail"]) == 10
    assert st["p50"] == pytest.approx(20.5)


def test_times_are_normalised_by_the_calibration_around_them():
    records = [{"seconds": 1.0, "cal_s": 2 * worker.REFERENCE_CAL_S, "error": None},
               {"seconds": 3.0, "cal_s": worker.REFERENCE_CAL_S / 2, "error": None}]
    st = run.op_stats(records)
    assert st["p50"] == pytest.approx(3.25)
    assert st["ops_per_s"] == pytest.approx(2 / 6.5)
    assert run.op_stats(records, raw=True)["p50"] == pytest.approx(2.0)
