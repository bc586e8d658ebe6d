"""Command-line front end.

Subcommands: svd | bounds | widom | extrapolate | selftest. Everything is
written as CSV ('.' decimal, ',' separator, 17 significant digits) or JSON
(raw doubles), so the files round-trip exactly and identical inputs give
byte-identical outputs at a fixed BLAS thread count. The run manifest is
the only file with a clock in it; its `environment` holds the numpy
version, longdouble eps, the BLAS name and version and the BLAS
thread-count variables. SVD documents are cached on disk under a content
hash of the parameters and read back as an SvdBasis; SECHPROLATE_CACHE
overrides the cache directory.

Exit codes: 0 on success, 2 on usage errors, 3 on numerical failures.
"""

import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import __version__
from . import bounds as bounds_lib
from .extrapolation import (adaptive_N, basis_m_max, builtin_case,
                            cutoff_estimate, l2_error, n_max, rate_sweep,
                            ObservationWindow)
from .sech_operator import OperatorParams, nystrom_grid_size
from .svd_assembly import (compute_svd, svd_to_json_dict,
                           triplets_from_json_dict)

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


_FLOAT_TYPES = frozenset((float, np.float64))


def csv_bytes(header, rows) -> bytes:
    """CSV text with one line per row. A row of floats only is formatted
    by one "%.17g,..." string, which gives the same bytes as fmt_cell on
    each cell; any other row goes through fmt_cell."""
    lines = [",".join(header)]
    row_formats = {}
    for row in rows:
        row = tuple(row)
        if _FLOAT_TYPES.issuperset(map(type, row)):
            fmt = row_formats.get(len(row))
            if fmt is None:
                fmt = row_formats[len(row)] = ",".join(["%.17g"] * len(row))
            lines.append(fmt % row)
        else:
            lines.append(",".join(fmt_cell(x) for x in row))
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


# ---------------------------------------------------------------------------
# SVD document cache

def cache_dir() -> str:
    return os.environ.get("SECHPROLATE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "sechprolate")


def svd_cache_key(b: float, c: float, m_max: int, n) -> str:
    """Hash of the package version and the resolved parameters, so a
    document written by an older algorithm is never served."""
    enc = (f"version={__version__}|b={b:.17g}|c={c:.17g}|m_max={m_max:d}"
           f"|n={nystrom_grid_size(m_max, n):d}")
    return hashlib.sha256(enc.encode("ascii")).hexdigest()


def cached_svd_document(b: float, c: float, m_max: int, n=None):
    """(SvdBasis, JSON bytes) of the SVD document, computed once per
    parameter set. A hit parses the cached file; a miss returns the basis
    it computed with the bytes it wrote to the cache. A cached file that
    the reader rejects, or that holds the document of other parameters,
    counts as a miss and is overwritten."""
    path = os.path.join(cache_dir(), svd_cache_key(b, c, m_max, n) + ".json")
    if os.path.exists(path):
        with open(path, "rb") as f:
            data = f.read()
        try:
            svd = triplets_from_json_dict(json.loads(data))
            if (svd.b, svd.c, len(svd), len(svd.g.grid)) == (
                    b, c, m_max + 1, nystrom_grid_size(m_max, n)):
                return svd, data
        except (ValueError, KeyError, TypeError):
            pass
    svd = compute_svd(OperatorParams(b=b, c=c), m_max=m_max, n=n)
    data = json_bytes(svd_to_json_dict(svd))
    atomic_write(path, data)
    return svd, data


# ---------------------------------------------------------------------------
# run output and failures

@functools.cache
def blas_build() -> tuple:
    """(name, version) of the BLAS numpy was built against, each None where
    the build does not record it; read once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None, None
    return blas.get("name"), blas.get("version")


def run_environment() -> dict:
    """What the data files' last bits depend on besides the inputs: the
    numpy version, longdouble precision, the BLAS build and the BLAS
    thread-count variables (None when unset)."""
    name, version = blas_build()
    return {"numpy": np.__version__,
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "blas_name": name, "blas_version": version,
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def write_run(out: str, command: str, parameters: dict, files: dict,
              t0: float, input_hashes: dict = None, results: dict = None):
    """Write each of files ({name: bytes}, in order) atomically into out,
    then <command>_manifest.json listing them, with the wall time since t0
    and the run environment."""
    for name, data in files.items():
        atomic_write(os.path.join(out, name), data)
    doc = {"command": command, "parameters": parameters,
           "version": __version__, "input_hashes": input_hashes or {},
           "outputs": list(files), "wall_time_s": time.perf_counter() - t0,
           "environment": run_environment()}
    if results is not None:
        doc["results"] = results
    atomic_write(os.path.join(out, f"{command}_manifest.json"), json_bytes(doc))


def guarded(command):
    """Map library failures to exit code 3 with the diagnostic on stderr.
    click's usage errors are none of these and keep their exit code 2."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
    return run


# ---------------------------------------------------------------------------
# commands

class FiniteFloat(click.FloatRange):
    """FloatRange that also rejects nan and +-inf, which pass its bound
    comparisons."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv

    def _describe_range(self):
        # help text; an unbounded FloatRange would read "x<=None"
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


POSITIVE = FiniteFloat(0, min_open=True)


@click.group()
def main():
    """SVD of the truncated Fourier transform on sech-weighted spaces,
    eigenvalue bound tables, and spectral cut-off extrapolation."""


@main.command()
@click.option("--b", type=POSITIVE, required=True, help="weight parameter")
@click.option("--c", type=POSITIVE, required=True, help="window half-width")
@click.option("--m-max", type=click.IntRange(0, None), default=12,
              show_default=True, help="largest singular index")
@click.option("--n", type=int, default=None,
              help="size of the Gauss grid the g_m are sampled on")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True, help="output directory")
@guarded
def svd(b, c, m_max, n, out):
    """Compute singular triplets; write svd.json and a summary CSV."""
    if n is not None and n < 2 * (m_max + 1):
        raise click.UsageError("n is too small for the requested m-max")
    t0 = time.perf_counter()
    basis, data = cached_svd_document(b, c, m_max, n)
    rows = zip(basis.m, basis.sigma, basis.rho, basis.trusted)
    write_run(out, "svd", {"b": b, "c": c, "m_max": m_max, "n": n},
              {"svd.json": data,
               "svd_summary.csv": csv_bytes(["m", "sigma", "rho", "trusted"],
                                            rows)}, t0)
    click.echo(f"svd: {len(basis)} triplets written to {out}")


@main.command()
@click.option("--c", "c_values", type=POSITIVE, multiple=True, required=True,
              help="window half-width; may be given several times")
@click.option("--m-max", type=click.IntRange(0, None), default=12,
              show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
@guarded
def bounds(c_values, m_max, out):
    """Eigenvalue bound table: one row per (c, m), every closed-form bound
    next to the computed spectrum, plus the per-c decay exponents."""
    t0 = time.perf_counter()
    header = ["c"] + bounds_lib.ROW_FIELDS + [
        "lower_exponent", "upper_exponent", "widom_slope", "slope_fit"]
    rows = []
    for c in c_values:
        rep = bounds_lib.build_report(c, m_max=m_max)
        for r in rep.rows:
            rows.append([c] + [r[k] for k in bounds_lib.ROW_FIELDS]
                        + [*bounds_lib.decay_exponents(c), rep.widom_slope,
                           rep.slope_fit])
    write_run(out, "bounds", {"c": list(c_values), "m_max": m_max},
              {"bounds.csv": csv_bytes(header, rows)}, t0)
    click.echo(f"bounds: {len(rows)} rows written to {out}")


@main.command()
@click.option("--c", "c_values", type=POSITIVE, multiple=True,
              help="window half-width; default is a small survey grid")
@click.option("--fit/--no-fit", default=False, show_default=True,
              help="also fit the decay slope from a computed spectrum (slow)")
@click.option("--m-max", type=click.IntRange(0, None), default=12,
              show_default=True,
              help="spectrum size used for the fit")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
@guarded
def widom(c_values, fit, m_max, out):
    """Predicted decay exponent of the eigenvalues per c, with the
    closed-form exponent bounds it should sit between."""
    if fit and m_max < 2:
        raise click.UsageError("--fit needs --m-max of at least 2")
    if not c_values:
        c_values = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    t0 = time.perf_counter()
    rows = [[c, bounds_lib.widom_slope(c), *bounds_lib.decay_exponents(c),
             bounds_lib.build_report(c, m_max=m_max).slope_fit if fit else None]
            for c in c_values]
    header = ["c", "widom_slope", "lower_exponent", "upper_exponent",
              "slope_fit"]
    write_run(out, "widom", {"c": list(c_values), "fit": fit, "m_max": m_max},
              {"widom.csv": csv_bytes(header, rows)}, t0)
    click.echo(f"widom: {len(rows)} rows written to {out}")


def read_window_csv(path: str):
    """Window samples from a two-column ASCII CSV (header 'x,f_delta'); x is
    the window coordinate in [-1, 1], f_delta the observed value at
    c*x + x0. Every value must be a finite number."""
    xs, ys = [], []
    # undecodable bytes become lone surrogates, so the line is named below
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.isascii():
                raise click.UsageError(
                    f"{path}: line {lineno}: not ASCII text")
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
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise click.UsageError(
                    f"{path}: line {lineno}: could not parse a number")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise click.UsageError(
                    f"{path}: line {lineno}: values must be finite")
            xs.append(x)
            ys.append(y)
    if len(xs) < 8:
        raise click.UsageError(f"{path}: need at least 8 sample rows")
    order = np.argsort(xs)
    x, y = np.asarray(xs)[order], np.asarray(ys)[order]
    if np.any(np.diff(x) <= 0):
        raise click.UsageError(f"{path}: x values must be distinct")
    if x[0] > -0.999 or x[-1] < 0.999:
        raise click.UsageError(f"{path}: samples must cover [-1, 1]")
    return x, y


# the options each extrapolate mode reads besides --out, --variant with
# --adaptive and --kappa with the exponential rule; any other is a usage
# error, and the manifest records --variant and --kappa only where read
EXTRAPOLATE_READS = {
    "--sweep": {"--case", "--sweep", "--delta", "--rule", "--variant"},
    "--case": {"--case", "--delta", "--adaptive", "--N", "--report-points"},
    "--input": {"--input", "--b", "--c", "--x0", "--delta", "--adaptive", "--N",
                "--report-points"},
}


@main.command()
@click.option("--case", "case_id", type=click.Choice(["a", "b"]), default=None,
              help="built-in benchmark case")
@click.option("--input", "input_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="window CSV with columns x,f_delta instead of a case")
@click.option("--b", type=POSITIVE, default=None,
              help="weight parameter (required with --input)")
@click.option("--c", type=POSITIVE, default=None,
              help="window half-width (required with --input)")
@click.option("--x0", type=FiniteFloat(), default=0.0, show_default=True,
              help="window center (with --input)")
@click.option("--delta", "deltas", type=FiniteFloat(0), multiple=True,
              help="noise level; may repeat with --sweep")
@click.option("--adaptive", is_flag=True, help="data-driven truncation level")
@click.option("--N", "n_level", type=click.IntRange(0, None), default=None,
              help="fixed truncation level")
@click.option("--variant", type=click.Choice(["plus", "minus"]),
              default="plus", show_default=True,
              help="penalty sign in the comparison rule (--adaptive, --sweep)")
@click.option("--sweep", is_flag=True,
              help="error-vs-delta rate table (built-in cases only)")
@click.option("--rule", type=click.Choice(["polynomial", "exponential"]),
              default="polynomial", show_default=True,
              help="oracle truncation rule for --sweep")
@click.option("--kappa", type=FiniteFloat(0), default=1.0, show_default=True,
              help="smoothness exponent for --rule exponential")
@click.option("--report-points", type=click.IntRange(2, None), default=4096,
              show_default=True, help="reconstruction grid size")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True)
@guarded
def extrapolate(case_id, input_path, b, c, x0, deltas, adaptive, n_level,
                variant, sweep, rule, kappa, report_points, out):
    """Spectral cut-off reconstruction from a noisy window, either adaptive
    or at a fixed level; --sweep runs the error-vs-noise rate table."""
    if (case_id is None) == (input_path is None):
        raise click.UsageError("give exactly one of --case or --input")
    mode = "--sweep" if sweep else "--case" if case_id else "--input"
    reads = EXTRAPOLATE_READS[mode] | {"--out"} | {opt for opt, read in (
        ("--variant", adaptive), ("--kappa", rule == "exponential")) if read}
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.opts[0] not in reads and ctx.get_parameter_source(
                param.name) is not click.core.ParameterSource.DEFAULT:
            raise click.UsageError(f"{param.opts[0]} is not read with {mode}")
    t0 = time.perf_counter()

    if sweep:
        delta_list = list(deltas) if deltas else [1e-1, 1e-2, 1e-3]
        table = rate_sweep(case_id, delta_list, oracle_rule=rule,
                           kappa=kappa, variant=variant)
        header = ["delta", "N_bar", "err_bar", "N_hat", "err_hat"]
        rows = [[r[k] for k in header] for r in table["rows"]]
        write_run(out, "extrapolate",
                  {"case": case_id, "deltas": delta_list, "rule": rule,
                   "variant": variant, "sweep": True,
                   **({"kappa": kappa} if "--kappa" in reads else {})},
                  {"rates.csv": csv_bytes(header, rows)}, t0,
                  results={"slope_bar": table["slope_bar"],
                           "slope_hat": table["slope_hat"]})
        click.echo(f"extrapolate sweep: slopes "
                   f"{table['slope_bar']:.4f} (rule) / "
                   f"{table['slope_hat']:.4f} (adaptive) -> {out}")
        return

    if adaptive == (n_level is not None):
        raise click.UsageError("give exactly one of --adaptive or --N")
    if len(deltas) > 1:
        raise click.UsageError("one --delta only without --sweep")
    delta = deltas[0] if deltas else None

    input_hashes = {}
    if case_id is not None:
        obs, truth, params = builtin_case(case_id, delta=delta)
    else:
        if b is None or c is None or delta is None:
            raise click.UsageError("--input needs --b, --c and --delta")
        xi, yi = read_window_csv(input_path)
        obs = ObservationWindow.sampled(x0, c, delta,
                                        lambda x: np.interp(x, xi, yi))
        truth, params = None, OperatorParams(b=b, c=c)
        with open(input_path, "rb") as f:
            input_hashes[os.path.basename(input_path)] = \
                hashlib.sha256(f.read()).hexdigest()

    if adaptive and not obs.delta > 0:
        raise click.UsageError("adaptive selection needs delta > 0")

    svd, _ = cached_svd_document(params.b, params.c,
                                 basis_m_max(obs.delta, n_level or 0))
    results = {"delta": obs.delta, "N_max": n_max(obs.delta)
               if obs.delta > 0 else None}
    if adaptive:
        n_hat, diag = adaptive_N(obs, svd, variant=variant)
        results.update({"N_hat": n_hat, "variant": variant,
                        "B": diag["B"].tolist(),
                        "Sigma": diag["Sigma"].tolist(),
                        "q": diag["q"].tolist(),
                        "criterion": diag["criterion"].tolist()})
        level, d = n_hat, diag["d"]
    else:
        results["N"] = n_level
        level, d = n_level, None
    est = cutoff_estimate(obs, svd, level, report_points=report_points, d=d)
    if truth is not None:
        results["error_l2"] = l2_error(est.grid, est.values, truth)
    header = ["x", "f_hat_re", "f_hat_im"]
    cols = [est.grid, est.values.real, est.values.imag]
    if truth is not None:
        header.append("f_true")
        cols.append(truth(est.grid))
    write_run(out, "extrapolate",
              {"case": case_id, "input": input_path,
               "b": params.b, "c": params.c, "x0": obs.x0,
               "delta": obs.delta, "adaptive": adaptive,
               "N": n_level, "report_points": report_points,
               **({"variant": variant} if "--variant" in reads else {})},
              {"reconstruction.csv": csv_bytes(header, zip(*cols))}, t0,
              input_hashes=input_hashes, results=results)
    msg = f"N_hat = {level}" if adaptive else f"N = {level}"
    if "error_l2" in results:
        msg += f", error {results['error_l2']:.5g}"
    click.echo(f"extrapolate: {msg} -> {out}")


@main.command()
@click.option("--out", type=click.Path(file_okay=False),
              default="selftest_out", show_default=True)
@guarded
def selftest(out):
    """Deterministic battery over all three pipelines with internal
    consistency checks; the data files are byte-reproducible run to run and
    are written only once every check has passed."""
    t0 = time.perf_counter()
    svd, svd_data = cached_svd_document(1.0, 1.0, 8)
    if not np.all(np.diff(svd.sigma) < 0):
        raise ValueError("singular values are not strictly decreasing")
    broken = svd.trusted & (np.abs(svd.sigma ** 2 - svd.rho) > 1e-12 * svd.rho)
    if np.any(broken):
        raise ValueError(f"sigma^2 c = rho broken at m={svd.m[broken].tolist()}")

    rep = bounds_lib.build_report(0.5, m_max=8)
    bad = [r["m"] for r in rep.rows
           if not r["lower_combined"] <= r["rho_computed"] * (1 + 1e-8)]
    if bad:
        raise ValueError(f"lower eigenvalue bound violated at m={bad}")

    obs, truth, params = builtin_case("a")
    basis, _ = cached_svd_document(params.b, params.c, basis_m_max(obs.delta, 2))
    est = cutoff_estimate(obs, basis, 2)
    err = l2_error(est.grid, est.values, truth)
    if not err < 0.05:
        raise ValueError(f"case (a) N=2 error {err:.3g} out of range")

    files = {
        "selftest_svd.json": svd_data,
        "selftest_bounds.csv": csv_bytes(
            bounds_lib.ROW_FIELDS,
            [[r[k] for k in bounds_lib.ROW_FIELDS] for r in rep.rows]),
        "selftest_reconstruction.csv": csv_bytes(
            ["x", "f_hat_re", "f_hat_im", "f_true"],
            zip(est.grid, est.values.real, est.values.imag, truth(est.grid))),
    }
    write_run(out, "selftest", {}, files, t0, results={"case_a_n2_error": err})
    for name, data in files.items():
        click.echo(f"{hashlib.sha256(data).hexdigest()}  {name}")
    click.echo("selftest: ok")


if __name__ == "__main__":
    main()
