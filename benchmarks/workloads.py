"""The benchmark's workloads: seeded inputs, CLI arguments, output checks
and the untimed accuracy pass.

Inputs are drawn cycle by cycle from a stratified design: each cycle covers
every stratum of the size range once, and the seed sets where in its
stratum each draw falls and which draws go into one op. Where op time
depends steeply on a size, the design pairs sizes so that every cycle has
about the same op times (svd_cold, bounds_table). Runs are whole cycles, so
their mix of op sizes, and with it the median and tail op times, depends
little on the seed.

Imported only after the timed `import sechprolate.cli`, so that numpy's
import is counted in import_s.
"""
import csv
import json
import math
import os

import numpy as np

# an eigenfunction pair is compared across routes where rho exceeds this
# (README contract: dense vs commuting-operator agreement to 1e-6 there)
CROSS_ROUTE_RHO_MIN = 1e-10


class Context:
    """Per-process paths: every cache and output lives under `work`, so a
    run never touches the user's ~/.cache/sechprolate."""

    def __init__(self, work):
        self.work = work
        self.cache = self.path("cache")
        self.inputs = self.path("inputs")
        self._n_inputs = 0
        os.makedirs(self.cache, exist_ok=True)
        os.makedirs(self.inputs, exist_ok=True)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def new_input_path(self):
        self._n_inputs += 1
        return os.path.join(self.inputs, f"window{self._n_inputs}.csv")


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _all_finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


class Workload:
    """One workload. An item is a dict with the CLI arguments ('argv',
    without --out) and whatever its output check needs."""
    name = ""
    fresh_cache = False      # a new, empty SVD cache for every op
    data_files = ()          # outputs that must be byte-identical on a rerun

    def warmup(self, ctx):
        """CLI argument lists run once before timing (and filling caches)."""
        raise NotImplementedError

    def cycle(self, rng, ctx):
        """The items of one cycle, in run order."""
        raise NotImplementedError

    def check(self, item, out):
        """Validate one op's outputs; returns (error or None, extra)."""
        raise NotImplementedError

    def accuracy(self, ctx, kept):
        """acc.* values from the kept (item, out dir, extra) of cycle 0;
        None where the workload produces no such output."""
        raise NotImplementedError


def trace_rel_err_max(cps_m):
    """max |sum(rho) - 2 pi c| / (2 pi c) of the Nystrom spectra at each
    kernel parameter c/b, at the default grid size for its m_max."""
    from sechprolate.sech_operator import nystrom_eigensystem
    worst = 0.0
    for cp, m_max in sorted(cps_m.items()):
        spec = nystrom_eigensystem(cp, m_max=m_max)
        worst = max(worst, spec.trace_error() / (2 * math.pi * cp))
    return worst


def cross_route_l2_max(docs):
    """max L2(-1,1) difference between each document's eigenfunctions and
    the commuting-operator route's, over entries with rho above
    CROSS_ROUTE_RHO_MIN (those come from the dense route)."""
    from sechprolate.commuting_ode import galerkin_eigensystem
    from sechprolate.special_functions import gauss_legendre
    m_top = {}
    for doc in docs:
        cp = doc["c"] / doc["b"]
        m_top[cp] = max(m_top.get(cp, 0), len(doc["entries"]) - 1)
    # basis size as compute_svd chooses it
    odes = {cp: galerkin_eigensystem(cp, n_b=max(140, 2 * (m + 1) + 30),
                                     m_max=m)
            for cp, m in m_top.items()}
    worst = 0.0
    for doc in docs:
        ode = odes[doc["c"] / doc["b"]]
        for e in doc["entries"]:
            if not e["rho"] > CROSS_ROUTE_RHO_MIN:
                continue
            nodes = np.array(e["g"]["nodes"])
            w = gauss_legendre(nodes.size).weights
            dense = np.array(e["g"]["values"])
            other = ode.evaluate_g(e["m"], nodes)
            diff = min(math.sqrt(float(np.sum(w * (dense - s * other) ** 2)))
                       for s in (1.0, -1.0))
            worst = max(worst, diff)
    return worst


class SvdCold(Workload):
    """`svd` with an empty cache on every op: eigensolves, the adjoint onto
    the phi grid and the 1-2 MB document write; never reads the cache."""
    name = "svd_cold"
    fresh_cache = True
    data_files = ("svd.json", "svd_summary.csv")
    CB_VALUES = (0.5, 1.0, 2.0, 4.0)       # c/b = 4 stays on the dense route
    # one m_max stratum per 4 values, so that each c/b takes one value of
    # every stratum and each value of a stratum goes to one c/b per cycle:
    # every cycle then runs the same m_max values, and the seed sets which
    # c/b gets which (m_max 27 is in two strata to fill 12..30)
    M_STRATA = ((12, 15), (16, 19), (20, 23), (24, 27), (27, 30))

    def warmup(self, ctx):
        return [["svd", "--b", "1", "--c", "0.5", "--m-max", "16"]]

    def cycle(self, rng, ctx):
        items = []
        for lo, hi in self.M_STRATA:
            for cb, m in zip(self.CB_VALUES, lo + rng.permutation(hi - lo + 1)):
                # b is a multiple of 1/64 and c/b a power of two, so c/b is
                # exact and all items of one c/b share one kernel parameter
                b = round(64 * 2.0 ** rng.uniform(-1.0, 1.0)) / 64
                items.append({"argv": ["svd", "--b", repr(b), "--c",
                                       repr(cb * b), "--m-max", str(int(m))],
                              "m_max": int(m)})
        return [items[i] for i in rng.permutation(len(items))]

    def check(self, item, out):
        with open(os.path.join(out, "svd.json"), "rb") as f:
            doc = json.loads(f.read())
        entries = doc["entries"]
        if [e["m"] for e in entries] != list(range(item["m_max"] + 1)):
            return "svd.json entries are not m = 0..m_max", None
        sigma = [e["sigma"] for e in entries]
        if not all(s0 > s1 for s0, s1 in zip(sigma, sigma[1:])):
            return "singular values are not strictly decreasing", None
        for e in entries:
            if not _all_finite([e["sigma"], e["rho"]], e["g"]["values"],
                               e["phi"]["re"], e["phi"]["im"]):
                return f"non-finite values at m={e['m']}", None
            if e["trusted"] and abs(e["sigma"] ** 2 * doc["c"] - e["rho"]) \
                    > 1e-12 * e["rho"]:
                return f"sigma^2 c = rho broken at m={e['m']}", None
        _, rows = _read_csv(os.path.join(out, "svd_summary.csv"))
        if len(rows) != len(entries):
            return "svd_summary.csv row count differs from svd.json", None
        return None, None

    def accuracy(self, ctx, kept):
        docs = []
        for _, out, _ in kept:
            with open(os.path.join(out, "svd.json"), "rb") as f:
                docs.append(json.loads(f.read()))
        # the dense route's miss depends on the grid size n, and so on
        # m_max, so every document of the cycle is compared
        return {"trace_rel_err_max": trace_rel_err_max(_smallest_m_max(docs)),
                "cross_route_l2_max": cross_route_l2_max(docs),
                "recon_l2_err_median": None}


def _smallest_m_max(docs):
    """c/b -> the smallest m_max among the documents at that c/b"""
    cps = {}
    for doc in docs:
        cp, m = doc["c"] / doc["b"], len(doc["entries"]) - 1
        cps[cp] = min(cps.get(cp, m), m)
    return cps


class ExtrapolateWarm(Workload):
    """`extrapolate` against a cache filled in setup: cache reads, window
    projection, the transform side and the inverse transform; the eigen
    layers do no work."""
    name = "extrapolate_warm"
    data_files = ("reconstruction.csv",)
    SOURCES = (("case", "a"), ("case", "b"), ("input", "a"), ("input", "b"))
    LEVEL_STRATA = ((0, 1), (2, 3), (4, 5), (6, 8))
    LOG10_DELTA = (-3.0, -1.0)
    WINDOW_SAMPLES = 1025
    C = 0.5                       # the built-in cases' window half-width

    def __init__(self):
        self._cases = None

    def cases(self):
        """truth and b of the built-in cases, shared by the input files"""
        if self._cases is None:
            from sechprolate.extrapolation import builtin_case
            self._cases = {}
            for case in ("a", "b"):
                _, truth, params = builtin_case(case)
                self._cases[case] = (truth, params.b)
        return self._cases

    def warmup(self, ctx):
        # `svd` fills the cache under the key `extrapolate` reads (m_max 8
        # covers every level and delta drawn here); then one warm-up op
        fills = [["svd", "--b", repr(b), "--c", repr(self.C), "--m-max", "8"]
                 for _, b in self.cases().values()]
        return fills + [["extrapolate", "--case", "a", "--adaptive"]]

    def cycle(self, rng, ctx):
        lo, hi = self.LOG10_DELTA
        n = 2 * len(self.SOURCES)
        deltas = 10.0 ** (lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)
        rng.shuffle(deltas)
        levels = [int(rng.integers(a, b + 1)) for a, b in self.LEVEL_STRATA]
        rng.shuffle(levels)
        items = []
        for j, (source, case) in enumerate(self.SOURCES):
            for k, level in enumerate(("adaptive", levels[j])):
                delta = float(deltas[2 * j + k])
                mode = ["--adaptive"] if level == "adaptive" else ["--N", str(level)]
                item = {"case": case, "level": level}
                if source == "case":
                    argv = ["extrapolate", "--case", case]
                else:
                    truth, b = self.cases()[case]
                    x0 = round(float(rng.uniform(-0.5, 0.5)), 3)
                    x = np.linspace(-1.0, 1.0, self.WINDOW_SAMPLES)
                    y = truth(self.C * x + x0) + delta * rng.standard_normal(x.size)
                    path = ctx.new_input_path()
                    with open(path, "w", encoding="ascii") as f:
                        f.write("x,f_delta\n")
                        f.writelines(f"{a:.17g},{v:.17g}\n" for a, v in zip(x, y))
                    argv = ["extrapolate", "--input", path, "--b", repr(b),
                            "--c", repr(self.C), "--x0", repr(x0)]
                item["argv"] = argv + ["--delta", repr(delta)] + mode
                items.append(item)
        return [items[i] for i in rng.permutation(len(items))]

    def check(self, item, out):
        with open(os.path.join(out, "extrapolate_manifest.json"), "rb") as f:
            manifest = json.loads(f.read())
        data = np.loadtxt(os.path.join(out, "reconstruction.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != manifest["parameters"]["report_points"]:
            return "reconstruction is not on the full report grid", None
        if not _all_finite(data):
            return "reconstruction has non-finite values", None
        results = manifest["results"]
        if item["level"] == "adaptive":
            if not 0 <= results["N_hat"] <= results["N_max"]:
                return f"N_hat {results['N_hat']} outside 0..N_max", None
        elif results["N"] != item["level"]:
            return f"level {results['N']} is not the requested {item['level']}", None
        x = data[:, 0]
        truth, _ = self.cases()[item["case"]]
        err2 = np.abs(data[:, 1] + 1j * data[:, 2] - truth(x)) ** 2
        recon = math.sqrt(float(np.sum(0.5 * (err2[1:] + err2[:-1]) * np.diff(x))))
        return None, recon

    def accuracy(self, ctx, kept):
        docs = []
        for name in sorted(os.listdir(ctx.cache)):
            if name.endswith(".json"):
                with open(os.path.join(ctx.cache, name), "rb") as f:
                    docs.append(json.loads(f.read()))
        return {"trace_rel_err_max": trace_rel_err_max(_smallest_m_max(docs)),
                "cross_route_l2_max": cross_route_l2_max(docs),
                "recon_l2_err_median": float(np.median([r for _, _, r in kept]))}


class BoundsTable(Workload):
    """`bounds` over sets of 2-3 c values, no cache: Galerkin solve and the
    per-point Liouville map every time, tiny output."""
    name = "bounds_table"
    data_files = ("bounds.csv",)
    C_RANGE = (0.25, 4.0)
    N_SETS = 8                    # ops per cycle: half with 2 c values, half with 3
    M_MIN = 8                     # m_max of op k is M_MIN + k or M_MIN + k + 1

    def warmup(self, ctx):
        return [["bounds", "--c", "1", "--m-max", "8"]]

    def cycle(self, rng, ctx):
        # op time grows steeply with c (c = 4 costs about four times c <= 1),
        # so every set takes one c from the top strata and one from the
        # middle ones, and each 3-c set one from the bottom; the seed decides
        # which set gets which, so every cycle has about the same op times
        k = self.N_SETS
        n = 2 * k + k // 2
        lo, hi = self.C_RANGE
        cs = lo * (hi / lo) ** ((np.arange(n) + rng.random(n)) / n)
        top, middle, bottom = cs[n - k:], cs[n - 2 * k:n - k], cs[:n - 2 * k]
        sets = [[top[i], middle[j]] for i, j in zip(rng.permutation(k),
                                                     rng.permutation(k))]
        for c_set, i in zip(sets[k // 2:], rng.permutation(k // 2)):
            c_set.append(bottom[i])
        ms = self.M_MIN + np.arange(k) + rng.integers(0, 2, k)
        rng.shuffle(ms)
        items = []
        for c_set, m in zip(sets, ms):
            c_set = [round(float(c), 4) for c in c_set]
            argv = ["bounds"]
            for c in c_set:
                argv += ["--c", repr(c)]
            items.append({"argv": argv + ["--m-max", str(int(m))],
                          "c": c_set, "m_max": int(m)})
        return [items[i] for i in rng.permutation(k)]

    def check(self, item, out):
        header, rows = _read_csv(os.path.join(out, "bounds.csv"))
        if len(rows) != len(item["c"]) * (item["m_max"] + 1):
            return "bounds.csv row count is not len(c) * (m_max + 1)", None
        col = {name: i for i, name in enumerate(header)}
        # supnorm_observed is a sampled diagnostic, not a bound: the
        # commuting-operator eigenfunction evaluates to inf at x = -1 for
        # some c above 3.5, which is counted and reported, not failed
        sup = col["supnorm_observed"]
        nonfinite_sup = 0
        for row in rows:
            if not _all_finite([float(v) for i, v in enumerate(row)
                                if v != "" and i != sup]):
                return "bounds.csv has non-finite values", None
            nonfinite_sup += not math.isfinite(float(row[sup]))
            rho = float(row[col["rho_computed"]])
            if not rho > 0:
                return "computed eigenvalue is not positive", None
            # the lower bounds hold at every c (README), as selftest checks
            if not float(row[col["lower_combined"]]) <= rho * (1 + 1e-8):
                return f"lower bound violated at c={row[0]}, m={row[1]}", None
        return None, nonfinite_sup

    def accuracy(self, ctx, kept):
        cps = {}
        for item, _, _ in kept:
            for c in item["c"]:
                cps[c] = item["m_max"]
        return {"trace_rel_err_max": trace_rel_err_max(cps),
                "cross_route_l2_max": None,
                "recon_l2_err_median": None,
                "supnorm_nonfinite_rows": sum(n for _, _, n in kept)}


WORKLOADS = {w.name: w for w in (SvdCold(), ExtrapolateWarm(), BoundsTable())}
