"""Benchmark of the sechprolate command line: end to end, and per layer.

From the repository root:

    python3 benchmarks/run.py --workload svd_cold --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1

Workloads (see workloads.py): svd_cold, extrapolate_warm, bounds_table.
Each run starts fresh interpreters (worker.py) with one BLAS thread: a few
that only set up, for the set-up and import times, and one that also runs
the timed closed loop, checks every op's outputs and repeats one input to
check that its data files are byte-identical.

Every reported op and set-up time is normalised for the host's speed: it is
multiplied by worker.REFERENCE_CAL_S over the time a fixed calibration kernel
(worker.Calibration) took around it, so it reads as the time on a host
where that kernel takes that long. On a shared host whose speed
drifts by tens of percent within a run this keeps a program change visible
above the drift. The raw medians are printed beside them, and the traced
run reports raw.op_s_p50 and host.calibration_s.

--trace 0 reports the end-to-end metrics. --trace 1 runs every input twice,
traced and untraced, and reports per-layer metrics per traced op, the
tracing overhead, the error rate and, from an untimed pass after the loop,
the accuracy numbers. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are the
same numbers for people, and the full record goes to .bench_work/results/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import worker  # noqa: E402  (stdlib-only at import)

WORKLOADS = ("svd_cold", "extrapolate_warm", "bounds_table")
SETUP_SAMPLES = 4             # fresh processes timed from spawn to READY
RUN_LIMIT_S = 170.0           # every child is killed past this
TAIL_BEYOND = 10              # samples beyond the reported tail percentile

LAYER_UNITS = {"s": "s/op", "self_s": "s/op", "calls": "calls/op",
               "n_sum": "n/op", "bytes": "B/op", "exp_elements": "elem/op"}
ACC_UNITS = {"acc.trace_rel_err_max": "ratio", "acc.cross_route_l2_max": "L2",
             "acc.recon_l2_err_median": "L2"}
# README contracts the accuracy numbers are shown against
ACC_CONTRACTS = {"acc.trace_rel_err_max": 1e-10, "acc.cross_route_l2_max": 1e-6}


class RunError(Exception):
    pass


def spawn(args, work, deadline, setup_only):
    """Run worker.py in a fresh interpreter; returns (seconds from spawn to
    READY, the worker's result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", result_path(args, ".spans.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if code != 0 or first.strip() != "READY" or not lines:
        raise RunError(f"worker exited with code {code} ({' '.join(cmd[2:])})")
    return setup_s, json.loads(lines[-1])


def result_path(args, suffix):
    return os.path.join(ROOT, ".bench_work", "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}")


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def op_stats(records, raw=False):
    """Timing stats of successful ops, normalised unless `raw`, with the
    tail at the highest percentile that leaves TAIL_BEYOND samples beyond
    it (p50 at least)."""
    def seconds(r):
        return r["seconds"] if raw else worker.normalised(r["seconds"], r["cal_s"])
    times = sorted(seconds(r) for r in records if not r["error"])
    if not times:
        raise RunError("no op succeeded")
    tail_p = max(50.0, 100.0 * (1 - TAIL_BEYOND / len(times)))
    return {"n": len(times), "p50": statistics.median(times),
            "tail": percentile(times, tail_p), "tail_p": tail_p,
            "ops_per_s": len(times) / sum(seconds(r) for r in records)}


def summarise(result, setup_samples, import_samples, trace):
    """(metrics, notes) from a worker result. setup_samples are (raw set-up
    seconds, that process's calibration seconds). metrics maps name ->
    {"value", "unit"}; notes are extra words for the readable report."""
    loop = [r for r in result["ops"] if not r["repeat"]]
    metrics, notes = {}, {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        notes[name] = note

    if not trace:
        st = op_stats(loop)
        raw = op_stats(loop, raw=True)
        setup = statistics.median(worker.normalised(s, c) for s, c in setup_samples)
        put("setup_s", setup, "s", f"median of {len(setup_samples)} fresh processes, raw "
            f"{statistics.median(s for s, _ in setup_samples):.4g} s")
        put("op_s_p50", st["p50"], "s", f"n={st['n']}, raw {raw['p50']:.4g} s")
        put("op_s_tail", st["tail"], "s", f"p{st['tail_p']:.1f}, n={st['n']}")
        put("ops_per_s", st["ops_per_s"], "1/s", f"{st['n']} ops")
        put("peak_rss_mb", result["peak_rss_mb"], "MB")
        return metrics, notes

    # import time swings with the host's speed from run to run more than
    # any end-to-end bound allows, so it is a per-layer number
    put("import_s", statistics.median(import_samples), "s",
        f"median of {len(import_samples)} fresh processes")
    for name, value in result["layers"].items():
        put(name, value, "ratio" if name == "cli.cache_hit_ratio"
            else LAYER_UNITS[name.rsplit(".", 1)[1]])
    traced = op_stats([r for r in loop if r["traced"]])
    plain = op_stats([r for r in loop if not r["traced"]])
    put("raw.op_s_p50", op_stats([r for r in loop if not r["traced"]], raw=True)["p50"],
        "s", "untraced ops, not normalised")
    put("host.calibration_s", statistics.median(r["cal_s"] for r in loop), "s",
        f"calibration kernel, median over ops; reference {worker.REFERENCE_CAL_S} s")
    put("trace.ops_per_s", traced["ops_per_s"], "1/s", f"{traced['n']} traced ops")
    put("trace.untraced_ops_per_s", plain["ops_per_s"], "1/s",
        f"{plain['n']} untraced ops, same inputs")
    put("trace.overhead_ratio", plain["ops_per_s"] / traced["ops_per_s"], "ratio",
        "untraced / traced ops_per_s")
    failed = sum(1 for r in result["ops"] if r["error"])
    put("error_rate", failed / len(result["ops"]), "ratio",
        f"{failed}/{len(result['ops'])} ops")
    for name, unit in ACC_UNITS.items():
        value = result["acc"].get(name.split(".", 1)[1])
        note = "n/a on this workload" if value is None else ""
        if value is not None and name in ACC_CONTRACTS:
            ok = value <= ACC_CONTRACTS[name]
            note = f"contract {ACC_CONTRACTS[name]:g}: {'ok' if ok else 'MISSED'}"
        put(name, 0.0 if value is None else value, unit, note)
    return metrics, notes


def run_one(args):
    """Run one workload; prints the readable report and returns the result
    record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(os.path.dirname(result_path(args, "")), exist_ok=True)
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup_samples, import_samples = [], []
        # set-up and import times need fresh processes; the traced run
        # reports neither, so it starts only the measuring one
        for i in range(0 if args.trace else SETUP_SAMPLES - 1):
            s, r = spawn(args, os.path.join(base, f"probe{i}"), deadline, True)
            setup_samples.append((s, r["setup_cal_s"]))
            import_samples.append(r["import_s"])
        s, result = spawn(args, os.path.join(base, "main"), deadline, False)
        setup_samples.append((s, result["setup_cal_s"]))
        import_samples.append(result["import_s"])
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics, notes = summarise(result, setup_samples, import_samples, args.trace)
    ops = result["ops"]
    failures = [r["error"] for r in ops if r["error"]]
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {result['cycles']}  ops {len(ops)}  failed {len(failures)}  "
          f"error_rate {len(failures) / len(ops):.4g}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:<14.6g} {m['unit']:9s} {notes[name]}")
    if not args.trace:
        print(f"  {'import_s (per-layer metric)':48s} "
              f"{statistics.median(import_samples):<14.6g} {'s':9s} "
              f"median of {len(import_samples)} fresh processes")
    for key, value in result["acc"].items():
        if "acc." + key not in metrics:
            print(f"  acc.{key:44s} {value}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for error in sorted(set(failures)):
        print(f"  failed op: {error}")
    record = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures), "metrics": metrics}
    with open(result_path(args, ".json"), "w", encoding="ascii") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup_samples_s": setup_samples,
                   "import_samples_s": import_samples, **result,
                   "summary": record}, f, indent=1)
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="normalised op time per run (BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(worker.SRC, "sechprolate", "cli.py")):
        print(f"no sechprolate sources under {worker.SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            record = run_one(args)
        except RunError as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
