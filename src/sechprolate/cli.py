"""Command-line front end.

Subcommands: svd | bounds | widom | extrapolate | selftest. Everything is
written as CSV ('.' decimal, ',' separator, 17 significant digits) or JSON
(raw doubles), so the files round-trip exactly and identical inputs give
byte-identical outputs. The run manifest is the only file with a clock in
it. SVD documents are cached on disk under a content hash of the
parameters; SECHPROLATE_CACHE overrides the cache directory.

Exit codes: 0 on success, 2 on usage errors, 3 on numerical failures.
"""

import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from . import bounds as bounds_lib
from .extrapolation import (adaptive_N, builtin_case, cutoff_estimate,
                            l2_error, n_max, rate_sweep, ObservationWindow)
from .sech_operator import OperatorParams, SampledFunction, nystrom_grid_size
from .special_functions import gauss_legendre
from .svd_assembly import compute_svd, svd_to_json_dict, triplets_from_json_dict

EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# formatting and atomic output

def fmt_cell(x) -> str:
    """One CSV cell; empty for a missing value, 17 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(fmt_cell(x) for x in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


def atomic_write(path: str, data: bytes):
    """Write through a sibling temp file and os.replace, so a crashed run
    never leaves a half-written data or cache file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# SVD document cache

def cache_dir() -> str:
    env = os.environ.get("SECHPROLATE_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "sechprolate")


def svd_cache_key(b: float, c: float, m_max: int, n) -> str:
    """Hash of the package version and the resolved parameters, so a
    document written by an older algorithm is never served."""
    enc = (f"version={__version__}|b={b:.17g}|c={c:.17g}|m_max={m_max:d}"
           f"|n={nystrom_grid_size(m_max, n):d}")
    return hashlib.sha256(enc.encode("ascii")).hexdigest()


def cached_svd_document(b: float, c: float, m_max: int, n=None) -> bytes:
    """JSON bytes of the SVD document, computed once per parameter set."""
    path = os.path.join(cache_dir(), svd_cache_key(b, c, m_max, n) + ".json")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return f.read()
    triplets = compute_svd(OperatorParams(b=b, c=c), m_max=m_max, n=n)
    data = json_bytes(svd_to_json_dict(triplets))
    atomic_write(path, data)
    return data


def cached_svd_triplets(b: float, c: float, m_max: int, n=None) -> list:
    return triplets_from_json_dict(json.loads(cached_svd_document(b, c, m_max, n)))


# ---------------------------------------------------------------------------
# run manifest

@dataclass
class RunManifest:
    command: str
    parameters: dict
    version: str
    input_hashes: dict
    outputs: list
    wall_time_s: float
    results: dict = None

    def to_json_dict(self) -> dict:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "version": self.version,
            "input_hashes": self.input_hashes,
            "outputs": self.outputs,
            "wall_time_s": self.wall_time_s,
        }
        if self.results is not None:
            doc["results"] = self.results
        return doc


def write_manifest(out_dir: str, command: str, parameters: dict,
                   input_hashes: dict, outputs: list, wall_time_s: float,
                   results: dict = None) -> str:
    for name in outputs:
        path = os.path.join(out_dir, name)
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            raise RuntimeError(f"output file {name} is missing or empty")
    man = RunManifest(command=command, parameters=parameters,
                      version=__version__, input_hashes=input_hashes,
                      outputs=outputs, wall_time_s=wall_time_s,
                      results=results)
    path = os.path.join(out_dir, f"{command}_manifest.json")
    atomic_write(path, json_bytes(man.to_json_dict()))
    return path


def run_guarded(body):
    """Map library failures to exit code 3 with the diagnostic on stderr;
    usage errors keep click's exit code 2."""
    try:
        return body()
    except click.ClickException:
        raise
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


# ---------------------------------------------------------------------------
# commands

@click.group()
def main():
    """SVD of the truncated Fourier transform on sech-weighted spaces,
    eigenvalue bound tables, and spectral cut-off extrapolation."""


@main.command()
@click.option("--b", type=float, required=True, help="weight parameter, > 0")
@click.option("--c", type=float, required=True, help="window half-width, > 0")
@click.option("--m-max", type=int, default=12, show_default=True,
              help="largest singular index")
@click.option("--n", type=int, default=None,
              help="quadrature size of the eigensolver (default: automatic)")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True, help="output directory")
def svd(b, c, m_max, n, out):
    """Compute singular triplets; write svd.json and a summary CSV."""
    if b <= 0 or c <= 0:
        raise click.UsageError("b and c must be positive")
    if m_max < 0:
        raise click.UsageError("m-max must be nonnegative")
    if n is not None and n < 2 * (m_max + 1):
        raise click.UsageError("n is too small for the requested m-max")
    t0 = time.perf_counter()

    def body():
        data = cached_svd_document(b, c, m_max, n)
        os.makedirs(out, exist_ok=True)
        atomic_write(os.path.join(out, "svd.json"), data)
        doc = json.loads(data)
        rows = [(e["m"], e["sigma"], e["rho"], e["trusted"])
                for e in doc["entries"]]
        atomic_write(os.path.join(out, "svd_summary.csv"),
                     csv_bytes(["m", "sigma", "rho", "trusted"], rows))
        write_manifest(out, "svd", {"b": b, "c": c, "m_max": m_max, "n": n},
                       {}, ["svd.json", "svd_summary.csv"],
                       time.perf_counter() - t0)
        click.echo(f"svd: {len(rows)} triplets written to {out}")

    run_guarded(body)


@main.command()
@click.option("--c", "c_values", type=float, multiple=True, required=True,
              help="window half-width; may be given several times")
@click.option("--m-max", type=int, default=12, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
def bounds(c_values, m_max, out):
    """Eigenvalue bound table: one row per (c, m), every closed-form bound
    next to the computed spectrum, plus the per-c decay exponents."""
    if any(c <= 0 for c in c_values):
        raise click.UsageError("c must be positive")
    t0 = time.perf_counter()

    def body():
        header = ["c"] + bounds_lib.ROW_FIELDS + [
            "lower_exponent", "upper_exponent", "widom_slope", "slope_fit"]
        rows = []
        for c in c_values:
            rep = bounds_lib.build_report(c, m_max=m_max)
            lower_exp = 2 * bounds_lib.beta(c)
            upper_exp = 2 * math.log(1 / c) if c < 1 else None
            for r in rep.rows:
                rows.append([c] + [r[k] for k in bounds_lib.ROW_FIELDS]
                            + [lower_exp, upper_exp, rep.widom_slope,
                               rep.slope_fit])
        os.makedirs(out, exist_ok=True)
        atomic_write(os.path.join(out, "bounds.csv"), csv_bytes(header, rows))
        write_manifest(out, "bounds",
                       {"c": list(c_values), "m_max": m_max}, {},
                       ["bounds.csv"], time.perf_counter() - t0)
        click.echo(f"bounds: {len(rows)} rows written to {out}")

    run_guarded(body)


@main.command()
@click.option("--c", "c_values", type=float, multiple=True,
              help="window half-width; default is a small survey grid")
@click.option("--fit/--no-fit", default=False, show_default=True,
              help="also fit the decay slope from a computed spectrum (slow)")
@click.option("--m-max", type=int, default=12, show_default=True,
              help="spectrum size used for the fit")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
def widom(c_values, fit, m_max, out):
    """Predicted decay exponent of the eigenvalues per c, with the
    closed-form exponent bounds it should sit between."""
    if not c_values:
        c_values = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    if any(c <= 0 for c in c_values):
        raise click.UsageError("c must be positive")
    t0 = time.perf_counter()

    def body():
        rows = []
        for c in c_values:
            row = [c, bounds_lib.widom_slope(c), 2 * bounds_lib.beta(c),
                   2 * math.log(1 / c) if c < 1 else None]
            row.append(bounds_lib.build_report(c, m_max=m_max).slope_fit
                       if fit else None)
            rows.append(row)
        os.makedirs(out, exist_ok=True)
        header = ["c", "widom_slope", "lower_exponent", "upper_exponent",
                  "slope_fit"]
        atomic_write(os.path.join(out, "widom.csv"), csv_bytes(header, rows))
        write_manifest(out, "widom",
                       {"c": list(c_values), "fit": fit, "m_max": m_max}, {},
                       ["widom.csv"], time.perf_counter() - t0)
        click.echo(f"widom: {len(rows)} rows written to {out}")

    run_guarded(body)


def read_window_csv(path: str):
    """Window samples from a two-column CSV (header 'x,f_delta'); x is the
    window coordinate in [-1, 1], f_delta the observed value at c*x + x0."""
    xs, ys = [], []
    with open(path, "r", encoding="ascii") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and parts and parts[0].lower() == "x":
                continue
            if len(parts) != 2:
                raise click.UsageError(
                    f"{path}: line {lineno}: expected 2 columns, got {len(parts)}")
            try:
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
            except ValueError:
                raise click.UsageError(
                    f"{path}: line {lineno}: could not parse a number")
    if len(xs) < 8:
        raise click.UsageError(f"{path}: need at least 8 sample rows")
    x = np.asarray(xs)
    y = np.asarray(ys)
    order = np.argsort(x)
    x, y = x[order], y[order]
    if np.any(np.diff(x) <= 0):
        raise click.UsageError(f"{path}: x values must be distinct")
    if x[0] > -0.999 or x[-1] < 0.999:
        raise click.UsageError(f"{path}: samples must cover [-1, 1]")
    return x, y


@main.command()
@click.option("--case", "case_id", type=click.Choice(["a", "b"]), default=None,
              help="built-in benchmark case")
@click.option("--input", "input_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="window CSV with columns x,f_delta instead of a case")
@click.option("--b", type=float, default=None,
              help="weight parameter (required with --input)")
@click.option("--c", type=float, default=None,
              help="window half-width (required with --input)")
@click.option("--x0", type=float, default=0.0, show_default=True,
              help="window center (with --input)")
@click.option("--delta", "deltas", type=float, multiple=True,
              help="noise level; may repeat with --sweep")
@click.option("--adaptive", is_flag=True, help="data-driven truncation level")
@click.option("--N", "n_level", type=int, default=None,
              help="fixed truncation level")
@click.option("--variant", type=click.Choice(["plus", "minus"]),
              default="plus", show_default=True,
              help="sign of the penalty inside the comparison rule")
@click.option("--sweep", is_flag=True,
              help="error-vs-delta rate table (built-in cases only)")
@click.option("--rule", type=click.Choice(["polynomial", "exponential"]),
              default="polynomial", show_default=True,
              help="oracle truncation rule for --sweep")
@click.option("--kappa", type=float, default=1.0, show_default=True,
              help="smoothness exponent for the exponential rule")
@click.option("--n-window", type=click.IntRange(64, 15000), default=2048,
              show_default=True, help="window quadrature size")
@click.option("--nfft", type=int, default=4096, show_default=True,
              help="inverse-transform resolution")
@click.option("--report-points", type=int, default=None,
              help="reconstruction grid size (default: nfft)")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
def extrapolate(case_id, input_path, b, c, x0, deltas, adaptive, n_level,
                variant, sweep, rule, kappa, n_window, nfft, report_points,
                out):
    """Spectral cut-off reconstruction from a noisy window, either adaptive
    or at a fixed level; --sweep runs the error-vs-noise rate table."""
    if (case_id is None) == (input_path is None):
        raise click.UsageError("give exactly one of --case or --input")
    if report_points is None:
        report_points = nfft
    t0 = time.perf_counter()

    if sweep:
        if case_id is None:
            raise click.UsageError("--sweep works on built-in cases only")
        if adaptive or n_level is not None:
            raise click.UsageError("--sweep chooses its own levels")
        delta_list = list(deltas) if deltas else [1e-1, 1e-2, 1e-3]

        def body():
            table = rate_sweep(case_id, delta_list, oracle_rule=rule,
                               kappa=kappa, variant=variant)
            rows = [(r["delta"], r["N_bar"], r["err_bar"], r["N_hat"],
                     r["err_hat"]) for r in table["rows"]]
            os.makedirs(out, exist_ok=True)
            atomic_write(os.path.join(out, "rates.csv"),
                         csv_bytes(["delta", "N_bar", "err_bar", "N_hat",
                                    "err_hat"], rows))
            write_manifest(out, "extrapolate",
                           {"case": case_id, "deltas": delta_list,
                            "rule": rule, "kappa": kappa, "variant": variant,
                            "sweep": True},
                           {}, ["rates.csv"], time.perf_counter() - t0,
                           results={"slope_bar": table["slope_bar"],
                                    "slope_hat": table["slope_hat"]})
            click.echo(f"extrapolate sweep: slopes "
                       f"{table['slope_bar']:.4f} (rule) / "
                       f"{table['slope_hat']:.4f} (adaptive) -> {out}")

        run_guarded(body)
        return

    if adaptive == (n_level is not None):
        raise click.UsageError("give exactly one of --adaptive or --N")
    if len(deltas) > 1:
        raise click.UsageError("one --delta only without --sweep")
    delta = deltas[0] if deltas else None

    input_hashes = {}
    if case_id is not None:
        if b is not None or c is not None:
            raise click.UsageError("--case fixes b and c")
        obs, truth, params = builtin_case(case_id, delta=delta,
                                          n_window=n_window)
    else:
        if b is None or c is None or delta is None:
            raise click.UsageError("--input needs --b, --c and --delta")
        if b <= 0 or c <= 0:
            raise click.UsageError("b and c must be positive")
        xi, yi = read_window_csv(input_path)
        grid = gauss_legendre(n_window)
        obs = ObservationWindow(x0=x0, c=c, delta=delta,
                                samples=SampledFunction(
                                    grid, np.interp(grid.nodes, xi, yi)))
        truth, params = None, OperatorParams(b=b, c=c)
        input_hashes[os.path.basename(input_path)] = sha256_file(input_path)

    if adaptive and not obs.delta > 0:
        raise click.UsageError("adaptive selection needs delta > 0")

    def body():
        m_top = max(8, n_level or 0,
                    n_max(obs.delta) if obs.delta > 0 else 0)
        triplets = cached_svd_triplets(params.b, params.c, m_top)
        results = {"delta": obs.delta, "N_max": n_max(obs.delta)
                   if obs.delta > 0 else None}
        if adaptive:
            n_hat, diag = adaptive_N(obs, triplets, variant=variant,
                                     params=params)
            results.update({"N_hat": n_hat, "variant": variant,
                            "B": diag["B"].tolist(),
                            "Sigma": diag["Sigma"].tolist(),
                            "q": diag["q"].tolist(),
                            "criterion": diag["criterion"].tolist()})
            level = n_hat
        else:
            results["N"] = n_level
            level = n_level
        est = cutoff_estimate(obs, triplets, level, nfft=nfft,
                              report_points=report_points)
        if truth is not None:
            results["error_l2"] = l2_error(est.grid, est.values, truth)
        os.makedirs(out, exist_ok=True)
        header = ["x", "f_hat_re", "f_hat_im"]
        cols = [est.grid, est.values.real, est.values.imag]
        if truth is not None:
            header.append("f_true")
            cols.append(truth(est.grid))
        atomic_write(os.path.join(out, "reconstruction.csv"),
                     csv_bytes(header, zip(*cols)))
        write_manifest(out, "extrapolate",
                       {"case": case_id, "input": input_path,
                        "b": params.b, "c": params.c, "x0": obs.x0,
                        "delta": obs.delta, "adaptive": adaptive,
                        "N": n_level, "variant": variant,
                        "n_window": n_window, "nfft": nfft,
                        "report_points": report_points},
                       input_hashes, ["reconstruction.csv"],
                       time.perf_counter() - t0, results=results)
        msg = f"N_hat = {level}" if adaptive else f"N = {level}"
        if "error_l2" in results:
            msg += f", error {results['error_l2']:.5g}"
        click.echo(f"extrapolate: {msg} -> {out}")

    run_guarded(body)


@main.command()
@click.option("--out", type=click.Path(file_okay=False),
              default="selftest_out", show_default=True)
def selftest(out):
    """Deterministic battery over all three pipelines with internal
    consistency checks; the data files are byte-reproducible run to run."""
    t0 = time.perf_counter()

    def body():
        os.makedirs(out, exist_ok=True)
        outputs = []

        data = cached_svd_document(1.0, 1.0, 8)
        doc = json.loads(data)
        sig = [e["sigma"] for e in doc["entries"]]
        if not all(s0 > s1 for s0, s1 in zip(sig, sig[1:])):
            raise ValueError("singular values are not strictly decreasing")
        for e in doc["entries"]:
            if e["trusted"] and abs(e["sigma"] ** 2 - e["rho"]) > 1e-12 * e["rho"]:
                raise ValueError(f"sigma^2 c = rho broken at m={e['m']}")
        atomic_write(os.path.join(out, "selftest_svd.json"), data)
        outputs.append("selftest_svd.json")

        rep = bounds_lib.build_report(0.5, m_max=8)
        bad = [r["m"] for r in rep.rows
               if not r["lower_combined"] <= r["rho_computed"] * (1 + 1e-8)]
        if bad:
            raise ValueError(f"lower eigenvalue bound violated at m={bad}")
        rows = [[r[k] for k in bounds_lib.ROW_FIELDS] for r in rep.rows]
        atomic_write(os.path.join(out, "selftest_bounds.csv"),
                     csv_bytes(bounds_lib.ROW_FIELDS, rows))
        outputs.append("selftest_bounds.csv")

        obs, truth, params = builtin_case("a")
        triplets = cached_svd_triplets(params.b, params.c, 8)
        est = cutoff_estimate(obs, triplets, 2)
        err = l2_error(est.grid, est.values, truth)
        if not err < 0.05:
            raise ValueError(f"case (a) N=2 error {err:.3g} out of range")
        rows = zip(est.grid, est.values.real, est.values.imag,
                   truth(est.grid))
        atomic_write(os.path.join(out, "selftest_reconstruction.csv"),
                     csv_bytes(["x", "f_hat_re", "f_hat_im", "f_true"], rows))
        outputs.append("selftest_reconstruction.csv")

        write_manifest(out, "selftest", {}, {}, outputs,
                       time.perf_counter() - t0,
                       results={"case_a_n2_error": err})
        for name in outputs:
            click.echo(f"{sha256_file(os.path.join(out, name))}  {name}")
        click.echo("selftest: ok")

    run_guarded(body)


if __name__ == "__main__":
    main()
