"""One benchmark process: import, warm up, then the timed closed loop.

run.py starts this in a fresh interpreter for every sample. It prints
'READY' once set up and, as its last line, one JSON object with the raw
per-op records, the accuracy pass and the environment. With --setup-only it
stops after 'READY' and reports only its import and calibration times.

Every op calls the CLI entry point in-process and waits for it, like a user
running one command after another (closed loop, one caller). Ops run in
whole cycles of inputs from workloads.py, as many as fit --seconds of
normalised op time best.

After every op, and a few times once set-up is done, the process times a
fixed calibration kernel that does not touch sechprolate. run.py divides
each time by the calibration time around it, which takes the shared host's
speed drift out of the reported times (see Calibration).
"""
import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CAL_REPS = 3            # calibrations after set-up; their median is kept
# the calibration kernel's typical time on the 2-vCPU host the benchmark was
# written on; normalised times read as seconds on a host this fast
REFERENCE_CAL_S = 0.011


def _n_points(args, kwargs, result):
    return {"n_sum": result.n}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _data_bytes(args, kwargs, result):
    return {"bytes": len(args[1] if len(args) > 1 else kwargs["data"])}


def _exp_elements(args, kwargs, result):
    """complex exponentials a cutoff estimate evaluates: the inverse
    transform plus one phi evaluation per mode (computed from the sizes)."""
    from sechprolate.extrapolation import cutoff_estimate
    bound = inspect.signature(cutoff_estimate).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n_g = a["svd"][0].g.grid.nodes.size
    return {"exp_elements": a["report_points"] * a["nfft"]
            + (a["N"] + 1) * a["nfft"] * n_g}


# span name -> (per-layer fields reported, attrs recorded on each call)
LAYERS = {
    "cli.cached_svd_document": (("s",), None),
    "cli.json_bytes": (("s", "bytes"), _result_bytes),
    "cli.csv_bytes": (("s",), None),
    "cli.atomic_write": (("s", "bytes"), _data_bytes),
    "svd_assembly.compute_svd": (("s", "self_s"), None),
    "svd_assembly.svd_to_json_dict": (("s",), None),
    "svd_assembly.triplets_from_json_dict": (("s",), None),
    "svd_assembly.evaluate_g": (("s", "calls"), None),
    "svd_assembly.evaluate_phi": (("s", "calls"), None),
    "sech_operator.nystrom_eigensystem": (("s", "self_s", "calls", "n_sum"), _n_points),
    "sech_operator.refine_eigh_block": (("s", "calls"), None),
    "sech_operator.rho_rayleigh": (("s", "calls"), None),
    "sech_operator.apply_adjoint": (("s", "calls"), None),
    "commuting_ode.galerkin_eigensystem": (("s", "calls"), None),
    "commuting_ode.q_c_potential": (("calls",), None),
    "commuting_ode.LiouvilleTransform.s": (("s", "calls"), None),
    "commuting_ode.OdeSpectrum.evaluate_g": (("s", "calls"), None),
    "extrapolation.coefficients": (("s", "calls"), None),
    "extrapolation.adaptive_N": (("s",), None),
    "extrapolation.cutoff_estimate": (("s", "self_s", "exp_elements"), _exp_elements),
    "bounds.build_report": (("s", "self_s"), None),
    "special_functions.gauss_legendre": (("s", "calls"), None),
}


def import_cli():
    """Import the CLI from this checkout's src/; returns (module, seconds)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sechprolate.cli as cli
    return cli, time.perf_counter() - t0


class Calibration:
    """A fixed kernel of pure-Python arithmetic, JSON encoding and longdouble
    array arithmetic, about 11 ms on one core. On a shared 2-vCPU host the
    speed of every workload's ops drifts by up to half within tens of
    seconds; of the kernels tried (python, numpy exp, matmul, longdouble)
    this mix tracked that drift most closely, so op time over kernel time
    is far steadier than op time alone. It uses no sechprolate code, so a
    change to the program does not move it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20190527)
        self.ld = rng.random(3000).astype(np.longdouble)
        self.doc = [{"m": i, "v": rng.random(50).tolist()} for i in range(60)]
        self.np = np

    def __call__(self):
        """seconds the kernel took this time"""
        t0 = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        json.dumps(self.doc)
        json.dumps(self.doc)
        for _ in range(20):
            self.np.sqrt(self.ld * self.ld + 1)
        return time.perf_counter() - t0


def normalised(seconds, cal_s):
    """seconds as on a host where the calibration kernel takes
    REFERENCE_CAL_S"""
    return seconds * REFERENCE_CAL_S / cal_s


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_op(cli, argv, cache, tracer=None):
    """One CLI command in-process; returns (seconds, exit code, message)."""
    previous = os.environ.get("SECHPROLATE_CACHE")
    os.environ["SECHPROLATE_CACHE"] = cache
    sink = io.StringIO()
    message = ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                cli.main(argv, standalone_mode=False)
            else:
                with tracer.span("cli." + argv[0]):
                    cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:   # an op that crashes is counted, not fatal
            code = getattr(exc, "exit_code", 1)
            message = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if previous is None:
        del os.environ["SECHPROLATE_CACHE"]
    else:
        os.environ["SECHPROLATE_CACHE"] = previous
    if code:
        message = (message or sink.getvalue().strip())[-300:]
    return seconds, code, message


def environment(seed):
    import numpy as np
    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "sechprolate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src_lines += f.read().count(b"\n")
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas["name"],
            "blas_version": blas["version"],
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "seed": seed, "src_lines": src_lines}


def layer_metrics(tracer, n_ops):
    """Per-layer values per traced op, plus the cache hit ratio."""
    summary = tracer.summary()
    out = {}
    for name, (fields, _) in LAYERS.items():
        agg = summary.get(name, {})
        for field in fields:
            out[f"{name}.{field}"] = agg.get(field, 0) / n_ops
    # a cache read that had to compute the document is a miss
    misses = set()
    for name, _, _, parent, _, _ in tracer.spans:
        if name == "svd_assembly.compute_svd":
            while parent >= 0 and tracer.spans[parent][0] != "cli.cached_svd_document":
                parent = tracer.spans[parent][3]
            if parent >= 0:
                misses.add(parent)
    reads = summary.get("cli.cached_svd_document", {}).get("calls", 0)
    out["cli.cache_hit_ratio"] = (reads - len(misses)) / reads if reads else 0.0
    return out


class Session:
    """Set-up state of one process and its closed loop."""

    def __init__(self, workload, seed, work):
        import numpy as np
        import workloads
        self.wl = workloads.WORKLOADS[workload] if isinstance(workload, str) else workload
        self.ctx = workloads.Context(work)
        self.rng = np.random.default_rng(seed)
        self.first_hashes = {}
        self.n_ops = 0
        self.calibrate = Calibration()
        self.last_cal = None

    def setup_calibration(self):
        """median calibration time once set-up is done; also the 'before'
        calibration of the first op"""
        self.last_cal = sorted(self.calibrate() for _ in range(SETUP_CAL_REPS)
                               )[SETUP_CAL_REPS // 2]
        return self.last_cal

    def warm_up(self, cli):
        for argv in self.wl.warmup(self.ctx):
            out = self.ctx.path("warmup")
            _, code, message = run_op(cli, argv + ["--out", out], self.ctx.cache)
            if code:
                raise RuntimeError(f"warm-up {argv} failed: {message}")
            shutil.rmtree(out)

    def op(self, cli, item, tracer=None, keep=False):
        """Run one item and check its outputs; returns the op record, the
        output directory (removed unless `keep`) and the check's extra value."""
        self.n_ops += 1
        out = self.ctx.path("out", str(self.n_ops))
        cache = self.ctx.path("cold", str(self.n_ops)) if self.wl.fresh_cache \
            else self.ctx.cache
        seconds, code, error = run_op(cli, item["argv"] + ["--out", out], cache, tracer)
        cal = self.calibrate()
        cal_s = cal if self.last_cal is None else (self.last_cal + cal) / 2
        self.last_cal = cal
        extra = None
        if not code:
            try:
                error, extra = self.wl.check(item, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output check failed: {type(exc).__name__}: {exc}"
        if not error:
            hashes = {f: sha256_file(os.path.join(out, f)) for f in self.wl.data_files}
            if self.first_hashes.setdefault(json.dumps(item["argv"]), hashes) != hashes:
                error = "data files differ from an earlier run of the same input"
        if self.wl.fresh_cache:
            shutil.rmtree(cache, ignore_errors=True)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        record = {"seconds": seconds, "cal_s": cal_s, "code": code,
                  "error": error or None,
                  "traced": tracer is not None, "repeat": False}
        return record, out, extra

    def loop(self, cli, seconds, tracer=None):
        """Closed loop over whole cycles of items, at least one, ending at
        the cycle boundary where the ops' normalised time is nearest to
        --seconds. Whole cycles, counted in normalised time, give every run
        the same mix of op sizes and about the same number of ops, whatever
        the host's speed.
        With a tracer every item runs twice in a row, traced and untraced,
        alternating which goes first, so both halves see the same inputs.
        Returns the op records, the (item, out dir, extra) of cycle 0's
        passed ops, and the number of cycles run."""
        targets = {name: attrs for name, (_, attrs) in LAYERS.items()}
        records, kept = [], []
        elapsed = 0.0
        cycle = 0
        while True:
            items = self.wl.cycle(self.rng, self.ctx)
            for j, item in enumerate(items):
                passes = [None] if tracer is None else \
                    ([tracer, None] if (cycle + j) % 2 == 0 else [None, tracer])
                for tr in passes:
                    if tr is not None:
                        tr.op_id = self.n_ops + 1
                        tr.install(targets)
                    try:
                        rec, out, extra = self.op(
                            cli, item, tr, keep=cycle == 0 and tracer is not None)
                    finally:
                        if tr is not None:
                            tr.uninstall()
                    records.append(rec)
                    elapsed += normalised(rec["seconds"], rec["cal_s"])
                    if cycle == 0 and not rec["error"]:
                        kept.append((item, out, extra))
            cycle += 1
            if elapsed + elapsed / cycle / 2 >= seconds:
                return records, kept, cycle


def run(workload, seed, seconds, trace, work, setup_only=False, spans_path=None,
        ready=None):
    """The whole process's work; returns the result dict. `ready` is called
    once set-up is done."""
    cli, import_s = import_cli()
    with warnings.catch_warnings():
        # the library's near-degenerate-gap warning fires on most deep spectra
        warnings.simplefilter("ignore")
        session = Session(workload, seed, work)
        session.warm_up(cli)
        if ready is not None:
            ready()
        setup_cal_s = session.setup_calibration()
        if setup_only:
            return {"import_s": import_s, "setup_cal_s": setup_cal_s}

        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
        records, kept, cycles = session.loop(cli, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # untimed: one repeated input for determinism; the accuracy numbers
        # are per-layer metrics, so only the traced run spends time on them
        if kept:
            rec, _, _ = session.op(cli, kept[0][0])
            rec["repeat"] = True
            records.append(rec)
        acc = session.wl.accuracy(session.ctx, kept) if kept and trace else {}

    result = {"import_s": import_s, "setup_cal_s": setup_cal_s,
              "peak_rss_mb": peak_rss_mb,
              "cycles": cycles, "ops": records, "acc": acc,
              "env": environment(seed)}
    if tracer is not None:
        n_traced = sum(1 for r in records if r["traced"])
        result["layers"] = layer_metrics(tracer, max(n_traced, 1))
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for caches and outputs")
    p.add_argument("--spans", default=None, help="file for the traced spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # before numpy is first imported, so the BLAS pool has this size
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.work,
                 setup_only=args.setup_only, spans_path=args.spans,
                 ready=lambda: print("READY", flush=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
