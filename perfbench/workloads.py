"""The three workloads: fixed lists of calls into shearlyap, and their checks.

A workload is a list of segments; a segment is a few calls timed together
and bracketed by the workload's calibration kernel.  One pass runs every
segment once.  Every call is one operation: ``check`` counts operations
attempted and failed in a pass and lists problems with the ones that did
not fail.  References the checks need are computed in ``prepare``, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from shearlyap import BoundFamily, McConfig, ShearParams, cli, engine, lyapunov_bounds
from shearlyap import montecarlo, series

import checks


class Failed:
    """Outcome of a call that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failed({self.error!r})"


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (Exception, SystemExit) as exc:  # a failing call is an outcome, not a crash
        return Failed(exc)


def _envelope(params: ShearParams) -> tuple[float, float]:
    """Tightest Lyapunov envelope over both families."""
    g = lyapunov_bounds(params).envelope
    i = lyapunov_bounds(params, BoundFamily.IMPROVED).envelope
    return max(g.lower, i.lower), min(g.upper, i.upper)


class Workload:
    name = ""
    kernel = ""
    # what one unit of work_per_s is
    work_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        # the program's entry points as the benchmark looks them up; the
        # traced run wraps names on this object
        self.api = SimpleNamespace(
            lyapunov_mc=montecarlo.lyapunov_mc,
            block_oracle=montecarlo.block_oracle,
            gle_mc=montecarlo.gle_mc,
            standard_bound=montecarlo.standard_bound,
            cli_main=cli.main,
        )

    def mc_seed(self, i: int) -> int:
        return self.seed * 100 + i

    def prepare(self) -> None:
        """Untimed references for the checks."""

    def first_call(self) -> None:
        raise NotImplementedError

    def segments(self) -> list[tuple[str, list]]:
        """[(label, [zero-argument call, ...]), ...] in pass order."""
        raise NotImplementedError

    def work_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, outputs: list[list]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for one pass's outputs."""
        raise NotImplementedError

    def fingerprint(self, outputs: list[list]) -> str:
        """A value equal between passes exactly when their results are."""
        return repr(outputs)


# ---------------------------------------------------------------- figures

FIGURE_SWEEPS = [
    ("lyap-bounds", ["--mode", "lyap-bounds", "--alpha", "1:10:0.25"]),
    ("envelopes", ["--mode", "envelopes", "--alpha", "1:10:0.25"]),
    ("neg-bounds", ["--mode", "neg-bounds", "--alpha", "-2.5:-10:-0.25"]),
    ("gle", ["--mode", "gle", "--alpha", "1", "--beta", "1", "--q", "-3:3:0.1"]),
    ("neg-gle", ["--mode", "neg-gle", "--alpha", "-3", "--beta", "3", "--q", "-3:3:0.1"]),
]
EXACT_QS = range(1, 6)
# envelopes per sweep: 37 alphas, 31 alphas or 61 q values, times 2 families
SWEEP_ENVELOPES = {"lyap-bounds": 74, "envelopes": 74, "neg-bounds": 62,
                   "gle": 122, "neg-gle": 122}
TABLE_ROWS = 3


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["metadata"].pop("timestamp", None)
    return doc


def _envelope_rows(rows: list[dict], key: tuple[str, ...]) -> dict:
    """(key values..., family) -> {side: value} from the norm=envelope rows."""
    out: dict = defaultdict(dict)
    for r in rows:
        if r["norm"] == "envelope":
            out[tuple(float(r[k]) for k in key) + (r["family"],)][r["side"]] = float(r["value"])
    return out


class Figures(Workload):
    """The README's bound-only figure datasets, through the CLI entry point."""

    name = "figures"
    kernel = "python_and_faults"
    work_unit = "two-sided envelopes"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the inputs are fixed grids; the seed only orders the segments
        self.order = list(range(len(FIGURE_SWEEPS) + 1))
        random.Random(seed).shuffle(self.order)

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stderr(io.StringIO()):
            if self.tracer is None:
                self.api.cli_main.main(args=argv, prog_name="shearlyap", standalone_mode=False)
            else:
                with self.tracer.span("cli." + argv[0]):
                    self.api.cli_main.main(args=argv, prog_name="shearlyap",
                                           standalone_mode=False)

    def _path(self, stem: str, ext: str) -> Path:
        return self.workdir / f"{stem}.{ext}"

    def _sweep(self, stem: str, argv: list[str]):
        path = self._path(stem, "csv")
        out = _call(self._cli, ["sweep", *argv, "--format", "csv", "--output", str(path)])
        return out if isinstance(out, Failed) else path

    def _json_cmd(self, stem: str, argv: list[str]):
        path = self._path(stem, "json")
        out = _call(self._cli, [*argv, "--format", "json", "--output", str(path)])
        return out if isinstance(out, Failed) else path

    def first_call(self):
        stem, argv = FIGURE_SWEEPS[0]
        result = self._sweep(stem, argv)
        if isinstance(result, Failed):
            raise RuntimeError(result.error)

    def segments(self):
        segs = [(f"sweep {stem}", [lambda s=stem, a=argv: self._sweep(s, a)])
                for stem, argv in FIGURE_SWEEPS]
        tables = [lambda: self._json_cmd("table1", ["table1"])]
        tables += [lambda q=q: self._json_cmd(f"gle-exact-{q}", ["gle-exact", "--q", str(q)])
                   for q in EXACT_QS]
        segs.append(("table1 + gle-exact", tables))
        return [segs[i] for i in self.order]

    def _parse(self, outputs):
        """Segment outputs (in pass order) -> {stem: parsed rows or Failed}."""
        by_label = {}
        for (label, _), out in zip(self.segments(), outputs):
            by_label[label] = out
        parsed = {}
        for stem, _ in FIGURE_SWEEPS:
            (res,) = by_label[f"sweep {stem}"]
            parsed[stem] = res if isinstance(res, Failed) else _read_csv(res)
        res = by_label["table1 + gle-exact"]
        parsed["table1"] = res[0] if isinstance(res[0], Failed) else _read_json(res[0])
        for q, r in zip(EXACT_QS, res[1:]):
            parsed[f"gle-exact-{q}"] = r if isinstance(r, Failed) else _read_json(r)
        return parsed

    def fingerprint(self, outputs):
        return repr(self._parse(outputs))

    def work_per_pass(self) -> int:
        return sum(SWEEP_ENVELOPES.values()) + TABLE_ROWS + len(EXACT_QS)

    def check(self, outputs):
        parsed = self._parse(outputs)
        attempted = failed = 0
        problems: list[str] = []

        def interval(label, lo, up):
            nonlocal attempted, failed
            attempted += 1
            bad = checks.check_interval(label, lo, up)
            failed += bool(bad)
            return not bad

        lyap = {}
        for stem in ("lyap-bounds", "neg-bounds", "gle", "neg-gle"):
            rows = parsed[stem]
            if isinstance(rows, Failed):
                attempted += SWEEP_ENVELOPES[stem]
                failed += SWEEP_ENVELOPES[stem]
                continue
            key = ("alpha",) if stem.endswith("bounds") else ("q",)
            envs = _envelope_rows(rows, key)
            if len(envs) != SWEEP_ENVELOPES[stem]:
                problems.append(f"{stem}: {len(envs)} envelopes, "
                                f"expected {SWEEP_ENVELOPES[stem]}")
            ok = {k: interval(f"{stem} {k}", e["lower"], e["upper"]) for k, e in envs.items()}
            if stem.endswith("bounds"):
                lyap.update({k: (e["lower"], e["upper"]) for k, e in envs.items() if ok[k]})
                for k in envs:
                    g, i = k[:-1] + ("global",), k[:-1] + ("improved",)
                    if k[-1] == "improved" and ok.get(g) and ok[k]:
                        problems += checks.check_nested(f"{stem} alpha={k[0]:g}",
                                                        lyap[i], lyap[g])
            if stem == "gle":
                for q in (1, 2, 3):
                    vals = {r["side"]: float(r["value"]) for r in rows
                            if r["norm"] == "linf" and r["family"] == "global"
                            and abs(float(r["q"]) - q) < 1e-9}
                    problems += checks.check_log_args(f"gle q={q} global linf",
                                                      vals.get("lower", math.nan),
                                                      vals.get("upper", math.nan), q)

        rows = parsed["envelopes"]
        if isinstance(rows, Failed):
            attempted += SWEEP_ENVELOPES["envelopes"]
            failed += SWEEP_ENVELOPES["envelopes"]
        else:
            gaps = [r for r in rows if r["norm"] == "envelope"]
            if len(gaps) != SWEEP_ENVELOPES["envelopes"]:
                problems.append(f"envelopes: {len(gaps)} gaps, "
                                f"expected {SWEEP_ENVELOPES['envelopes']}")
            for r in gaps:
                k = (float(r["alpha"]), r["family"])
                gap = float(r["gap"])
                attempted += 1
                if not (math.isfinite(gap) and gap >= 0.0):
                    failed += 1
                    continue
                if k in lyap and abs(gap - (lyap[k][1] - lyap[k][0])) > 1e-12:
                    problems.append(f"envelopes {k}: gap {gap} differs from lyap-bounds")

        table = parsed["table1"]
        if isinstance(table, Failed):
            attempted += TABLE_ROWS
            failed += TABLE_ROWS
        else:
            values = {}
            for r in table["payload"]["rows"]:
                if interval(f"table1 {r['norm']}", r["global_lower"], r["global_upper"]):
                    values[(r["norm"], "global_lower")] = r["global_lower"]
                    values[(r["norm"], "global_upper")] = r["global_upper"]
                values[(r["norm"], "improved")] = r["improved"]
            problems += checks.check_table(values)

        for q in EXACT_QS:
            doc = parsed[f"gle-exact-{q}"]
            if isinstance(doc, Failed):
                attempted += 1
                failed += 1
                continue
            p = doc["payload"]
            if interval(f"gle-exact q={q}", p["lower"], p["upper"]):
                problems += checks.check_exact_args(q, p["lower_arg"], p["upper_arg"])
                problems += checks.check_log_args(f"gle-exact q={q}", p["lower"], p["upper"],
                                                  q, tol=1e-12)
        return attempted, failed, problems


# ---------------------------------------------------------------- mc-long

MC_LONG_GRID = [(float(s), float(s)) for s in range(1, 11)] + [
    (-float(s), float(s)) for s in range(3, 11)
]


def _lyapunov_apps(cfg: McConfig) -> int:
    """lyapunov_mc and block_oracle drop the remainder of n_steps / n_ensembles."""
    return cfg.n_ensembles * (cfg.n_steps // cfg.n_ensembles)


class McLong(Workload):
    """Few ensembles, long trajectories: the per-step Python loops."""

    name = "mc-long"
    kernel = "small_arrays"
    work_unit = "matrix applications"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.points = [ShearParams.infer(a, b) for a, b in MC_LONG_GRID]
        self.configs = [McConfig(10**6, 25, self.mc_seed(i)) for i in range(len(self.points))]
        self.p11 = self.points[0]
        self.oracle_cfg = McConfig(10**7, 32, self.mc_seed(len(self.points)))
        self.p50 = ShearParams.infer(50.0, 50.0)
        self.cfg50 = McConfig(10**6, 25, self.mc_seed(len(self.points) + 1), renorm_every=1000)

    def first_call(self):
        self.api.lyapunov_mc(self.points[0], self.configs[0])

    def segments(self):
        segs = [(f"lyapunov_mc alpha={p.alpha:g} beta={p.beta:g}",
                 [lambda p=p, c=c: _call(self.api.lyapunov_mc, p, c)])
                for p, c in zip(self.points, self.configs)]
        segs.append(("block_oracle", [lambda: _call(self.api.block_oracle, self.p11,
                                                    self.oracle_cfg)]))
        segs.append(("lyapunov_mc alpha=beta=50 renorm_every=1000",
                     [lambda: _call(self.api.lyapunov_mc, self.p50, self.cfg50)]))
        return segs

    def work_per_pass(self):
        return (sum(_lyapunov_apps(c) for c in self.configs) + _lyapunov_apps(self.oracle_cfg)
                + _lyapunov_apps(self.cfg50))

    def prepare(self):
        self.envelopes = [_envelope(p) for p in self.points]
        self.envelope50 = _envelope(self.p50)

    def check(self, outputs):
        attempted = failed = 0
        problems: list[str] = []
        estimates = [seg[0] for seg in outputs[: len(self.points)]] + [outputs[-1][0]]
        envelopes = self.envelopes + [self.envelope50]
        params = self.points + [self.p50]
        for est, (lo, hi), p in zip(estimates, envelopes, params):
            attempted += 1
            if isinstance(est, Failed) or not math.isfinite(est.mean):
                failed += 1
                continue
            label = f"lyapunov_mc alpha={p.alpha:g} beta={p.beta:g}"
            problems += checks.check_estimate_in(label, est.mean, est.std_error, lo, hi)
        if not isinstance(estimates[0], Failed):
            problems += checks.check_reference_lambda(estimates[0].mean)

        (stats,) = outputs[len(self.points)]
        attempted += 1
        if isinstance(stats, Failed):
            failed += 1
        else:
            problems += checks.check_block_law(stats.mean_block_len, stats.p_eq, stats.p_gt,
                                               stats.p_lt, stats.n_blocks)
            if not abs(stats.lambda_est - checks.PUBLISHED_LAMBDA) <= checks.LAMBDA_TOL:
                problems.append(f"block oracle lambda {stats.lambda_est:.6f}, "
                                f"published {checks.PUBLISHED_LAMBDA}")
        return attempted, failed, problems

    def reference_estimate(self, outputs):
        """(mean, std_error) at alpha = beta = 1, for time_to_se."""
        est = outputs[0][0]
        return None if isinstance(est, Failed) else (est.mean, est.std_error)


# ---------------------------------------------------------------- mc-wide

GLE_QS = (-1.0, 1.0, 2.0)
GLE_ENSEMBLES = 20_000
GLE_STEPS = 10**7          # 500 per trajectory requested, capped at 200 by gle_mc
GLE_CAP = 200
EXHAUSTIVE_KS = range(12, 21)
EXACT_K = 12
SAMPLED_K = 1024
SAMPLED_N = 4000


class McWide(Workload):
    """Many ensembles or products: stream set-up, wide arrays, peak memory."""

    name = "mc-wide"
    kernel = "wide_arrays"
    work_unit = "matrix applications"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.p11 = ShearParams.infer(1.0, 1.0)
        self.p55 = ShearParams.infer(5.0, 5.0)
        self.gle_cfgs = [McConfig(GLE_STEPS, GLE_ENSEMBLES, self.mc_seed(i))
                         for i in range(len(GLE_QS))]
        self.sampled_seed = self.mc_seed(len(GLE_QS))

    def first_call(self):
        self.api.gle_mc(GLE_QS[0], self.p11, self.gle_cfgs[0])

    def segments(self):
        sb = self.api
        segs = [(f"gle_mc q={q:g}", [lambda q=q, c=c: _call(sb.gle_mc, q, self.p11, c)])
                for q, c in zip(GLE_QS, self.gle_cfgs)]
        small = [k for k in EXHAUSTIVE_KS if k < 20]
        segs.append((f"standard_bound k={small[0]}..{small[-1]}",
                     [lambda k=k: _call(sb.standard_bound, k, self.p11) for k in small]))
        segs.append(("standard_bound k=20", [lambda: _call(sb.standard_bound, 20, self.p11)]))
        segs.append((f"standard_bound sampled k={SAMPLED_K}",
                     [lambda: _call(sb.standard_bound, SAMPLED_K, self.p55, mode="sampled",
                                    n_samples=SAMPLED_N, seed=self.sampled_seed)]))
        return segs

    def work_per_pass(self):
        gle = len(GLE_QS) * GLE_ENSEMBLES * min(GLE_STEPS // GLE_ENSEMBLES, GLE_CAP)
        # all 2^k products share prefixes: 2^(k+1) - 2 matrix applications
        exhaustive = sum(2 ** (k + 1) - 2 for k in EXHAUSTIVE_KS)
        return gle + exhaustive + SAMPLED_K * SAMPLED_N

    def prepare(self):
        self.l1_rate, self.l2sq_rate = checks.exact_moment_rates(GLE_CAP)
        self.env11 = _envelope(self.p11)
        self.env55 = _envelope(self.p55)
        self.exact_e12 = checks.exact_standard_bound(EXACT_K, 1, 1)
        self.exact_e12_55 = checks.exact_standard_bound(EXACT_K, 5, 5)

    def check(self, outputs):
        attempted = failed = 0
        problems: list[str] = []
        for q, (est,) in zip(GLE_QS, outputs[: len(GLE_QS)]):
            attempted += 1
            if isinstance(est, Failed) or not math.isfinite(est.mean):
                failed += 1
                continue
            if q == 1.0:
                problems += checks.check_gle_q1(est.mean, est.std_error, GLE_CAP, self.l1_rate)
            elif q == 2.0:
                problems += checks.check_gle_q2(est.mean, est.std_error, self.l2sq_rate)
            else:
                problems += checks.check_gle_jensen(q, est.mean, est.std_error, self.env11[1])
        exhaustive = outputs[len(GLE_QS)] + outputs[len(GLE_QS) + 1]
        values = {}
        for k, v in zip(EXHAUSTIVE_KS, exhaustive):
            attempted += 1
            if isinstance(v, Failed) or not math.isfinite(v):
                failed += 1
            else:
                values[k] = v
        if len(values) == len(EXHAUSTIVE_KS):
            problems += checks.check_standard_bounds(values, {EXACT_K: self.exact_e12},
                                                     self.env11[0])
        (sampled,) = outputs[-1]
        attempted += 1
        if isinstance(sampled, Failed) or not math.isfinite(sampled):
            failed += 1
        else:
            problems += checks.check_sampled_bound(sampled, self.env55[0], self.exact_e12_55)
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (Figures, McLong, McWide)}


# ---------------------------------------------------------------- tracing

def instrument(wl: Workload, tracer) -> None:
    """Wrap the program's functions where their callers look them up."""

    def calls(name):
        def count(counter, *args, **kwargs):
            counter[name] += 1
        return count

    def terms(counter, f, limit):
        counter["series.truncated_sum.calls"] += 1
        counter["series.terms"] += limit * limit

    def time_integrand(tr, args, kwargs):
        f, limit = args

        def integrand(a, b):
            rec = tr.open_span("growth.integrand")
            try:
                return f(a, b)
            finally:
                tr.close_span(rec)
        return (integrand, limit), kwargs

    def mc(name, apps):
        def count(counter, *args, **kwargs):
            counter[f"mc.{name}.calls"] += 1
            counter[f"mc.{name}.apps"] += apps(*args, **kwargs)
            counter["mc.streams"] += sum(a.n_ensembles for a in args
                                         if isinstance(a, McConfig))
        return count

    def gle_apps(q, params, cfg, traj_len_cap=GLE_CAP, n_bootstrap=200):
        traj = cfg.n_steps // cfg.n_ensembles
        if traj_len_cap is not None:
            traj = min(traj, traj_len_cap)
        return cfg.n_ensembles * traj

    def sb_apps(k, params, mode="exhaustive", n_samples=100_000, seed=0):
        return 2 ** (k + 1) - 2 if mode == "exhaustive" else k * n_samples

    tracer.wrap(cli, "lyapunov_bounds", "engine.lyapunov_bounds",
                calls("engine.lyapunov_bounds.calls"))
    tracer.wrap(cli, "gle_bounds_report", "engine.gle_bounds_report",
                calls("engine.gle_bounds_report.calls"))
    tracer.wrap(engine, "evaluator", None, calls("growth.evaluator.calls"))
    tracer.wrap(engine, "expect_block", "series.expect_block")
    tracer.wrap(series, "truncated_sum", "series.truncated_sum", terms, time_integrand)
    tracer.wrap(montecarlo, "spectral_norm_batch", "linalg.spectral_norm_batch",
                calls("linalg.spectral_norm_batch.calls"))
    tracer.wrap(wl.api, "lyapunov_mc", "mc.lyapunov_mc",
                mc("lyapunov_mc", lambda p, c: _lyapunov_apps(c)))
    tracer.wrap(wl.api, "block_oracle", "mc.block_oracle",
                mc("block_oracle", lambda p, c: _lyapunov_apps(c)))
    tracer.wrap(wl.api, "gle_mc", "mc.gle_mc", mc("gle_mc", gle_apps))
    tracer.wrap(wl.api, "standard_bound", "mc.standard_bound", mc("standard_bound", sb_apps))
