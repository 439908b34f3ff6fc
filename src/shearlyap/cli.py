"""Command-line front end.

Subcommands: bounds, table1, sweep, mc, gle-exact, entropy, standard-bound.
Every subcommand supports --format text|json|csv and an optional --output
path (relative paths are joined to $SHEARLYAP_OUTPUT_DIR when that is set).
Series truncation defaults can come from a key = value config file passed
with --config or named by $SHEARLYAP_CONFIG.

Exit codes: 0 success, 2 invalid parameter domain (or usage), 3 numerical
non-convergence of a series.

All exponent values are reported on the per-application (lambda) scale;
text output also shows the block-scale value (4x), since a block contains
four applications on average.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .engine import (
    BoundFamily,
    BoundReport,
    closed_form_bounds,
    entropy_bounds,
    gle_bounds_report,
    gle_exact_integer,
    lyapunov_bounds,
)
from .linalg import DomainError, NormKind, ShearParams
from .montecarlo import McConfig, gle_mc, lyapunov_mc, standard_bound
from .series import NonConvergenceError, SeriesConfig

# reference estimate of the exponent at alpha = beta = 1, reproducible with
# `shearlyap mc --alpha 1 --beta 1 --steps 10000000 --seed 42`
MC_REFERENCE_LAMBDA = 0.39625

_NORM_ORDER = (NormKind.L1, NormKind.L2, NormKind.LINF)


# --------------------------------------------------------------------------
# plumbing

def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NonConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("SHEARLYAP_CONFIG")
    if not path:
        return {}
    allowed = {"max_index": int, "tail_tol": float}
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = allowed[key](value.strip())
    return out


def _series_config(ctx_cfg: dict, max_index: int | None, tol: float | None) -> SeriesConfig:
    values = dict(ctx_cfg)
    if max_index is not None:
        values["max_index"] = max_index
    if tol is not None:
        values["tail_tol"] = tol
    return SeriesConfig(**values)


def _record(kind: str, payload: dict, series_cfg: SeriesConfig, seed: int | None) -> dict:
    return {
        "kind": kind,
        "payload": payload,
        "metadata": {
            "tool_version": __version__,
            "seed": seed,
            "series_config": {
                "max_index": series_cfg.max_index,
                "tail_tol": series_cfg.tail_tol,
            },
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    path = Path(output)
    base = os.environ.get("SHEARLYAP_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") else text + "\n")
    click.echo(f"wrote {path}", err=True)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in header})
    return buf.getvalue()


def _emit(record: dict, fmt: str, output: str | None, text_fn, csv_fn) -> None:
    if fmt == "json":
        _write_output(json.dumps(record, indent=2), output)
    elif fmt == "csv":
        header, rows = csv_fn(record["payload"])
        _write_output(_csv_text(header, rows), output)
    else:
        _write_output(text_fn(record["payload"]), output)


def _fmt(x, digits=8) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}g}"


def parse_range(spec: str) -> list[float]:
    """Parse 'start:stop:step' (endpoints inclusive within half a step) or a single value."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(spec)]
    if len(parts) != 3:
        raise DomainError(f"range must be a value or start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"bad range {spec!r}: {exc}") from None
    if step == 0.0 or (stop - start) * step < 0.0:
        raise DomainError(f"range {spec!r} cannot reach its endpoint")
    direction = math.copysign(1.0, step)
    out: list[float] = []
    i = 0
    while True:
        v = start + i * step
        if (v - stop) * direction > abs(step) / 2.0:
            break
        out.append(round(v, 12))
        i += 1
    return out


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text",
    show_default=True, help="output format",
)
_output_option = click.option(
    "--output", default=None, metavar="PATH",
    help="write to PATH instead of stdout ($SHEARLYAP_OUTPUT_DIR prefixes relative paths)",
)


# --------------------------------------------------------------------------
# payload builders

def _bound_report_payload(params: ShearParams, report: BoundReport) -> dict:
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "regime": params.regime.value,
        "family": report.family.value,
        "scale": "lambda (per matrix application); block scale is 4x",
        "per_norm": {
            norm.value: {"lower": nb.lower, "upper": nb.upper}
            for norm, nb in report.per_norm.items()
        },
        "envelope": {"lower": report.envelope.lower, "upper": report.envelope.upper},
    }


def _bound_report_text(payload: dict) -> str:
    lines = [
        f"Lyapunov exponent bounds  alpha={payload['alpha']:g} beta={payload['beta']:g}"
        f"  regime={payload['regime']} family={payload['family']}",
        "",
        f"  {'norm':<6} {'lower':>12} {'upper':>12} {'lower*4':>12} {'upper*4':>12}",
    ]
    for norm in _NORM_ORDER:
        nb = payload["per_norm"].get(norm.value)
        if nb is None:
            continue
        lo, up = nb["lower"], nb["upper"]
        lines.append(
            f"  {norm.value:<6} {_fmt(lo):>12} {_fmt(up):>12}"
            f" {_fmt(None if lo is None else 4 * lo):>12}"
            f" {_fmt(None if up is None else 4 * up):>12}"
        )
    env = payload["envelope"]
    lines.append("")
    lines.append(
        f"  envelope  [{_fmt(env['lower'])}, {_fmt(env['upper'])}]"
        f"   *4: [{_fmt(4 * env['lower'])}, {_fmt(4 * env['upper'])}]"
    )
    return "\n".join(lines)


def _bound_report_csv(payload: dict):
    header = ["alpha", "beta", "family", "norm", "side", "value", "value_block_scale"]
    rows = []
    for norm in _NORM_ORDER:
        nb = payload["per_norm"].get(norm.value)
        if nb is None:
            continue
        for side in ("lower", "upper"):
            if nb[side] is None:
                continue
            rows.append(
                {
                    "alpha": payload["alpha"],
                    "beta": payload["beta"],
                    "family": payload["family"],
                    "norm": norm.value,
                    "side": side,
                    "value": nb[side],
                    "value_block_scale": 4 * nb[side],
                }
            )
    for side in ("lower", "upper"):
        rows.append(
            {
                "alpha": payload["alpha"],
                "beta": payload["beta"],
                "family": payload["family"],
                "norm": "envelope",
                "side": side,
                "value": payload["envelope"][side],
                "value_block_scale": 4 * payload["envelope"][side],
            }
        )
    return header, rows


# --------------------------------------------------------------------------
# commands

@click.group()
@click.version_option(version=__version__, prog_name="shearlyap")
@click.option("--config", default=None, metavar="FILE",
              help="key = value file with series defaults (max_index, tail_tol)")
@click.pass_context
@_guarded
def main(ctx, config):
    """Rigorous bounds and Monte Carlo estimates for random shear products."""
    ctx.obj = _load_config_file(config)


@main.command()
@click.option("--alpha", type=float, required=True, help="lower-shear strength")
@click.option("--beta", type=float, required=True, help="upper-shear strength")
@click.option("--family", type=click.Choice(["global", "improved"]), default="global",
              show_default=True)
@click.option("--norms", default=None, metavar="LIST",
              help="comma-separated subset of l1,l2,linf (default: all)")
@click.option("--max-index", type=int, default=None, help="series truncation index")
@click.option("--tol", type=float, default=None, help="series tail tolerance")
@_format_option
@_output_option
@click.pass_context
@_guarded
def bounds(ctx, alpha, beta, family, norms, max_index, tol, fmt, output):
    """Lyapunov-exponent bounds for one parameter pair."""
    params = ShearParams.infer(alpha, beta)
    cfg = _series_config(ctx.obj or {}, max_index, tol)
    report = lyapunov_bounds(params, BoundFamily(family), cfg)
    payload = _bound_report_payload(params, report)
    if norms:
        wanted = {n.strip() for n in norms.split(",") if n.strip()}
        bad = wanted - {n.value for n in _NORM_ORDER}
        if bad:
            raise DomainError(f"unknown norms {sorted(bad)}; choose from l1,l2,linf")
        kept = {k: v for k, v in payload["per_norm"].items() if k in wanted}
        lowers = [v["lower"] for v in kept.values() if v["lower"] is not None]
        uppers = [v["upper"] for v in kept.values() if v["upper"] is not None]
        if not lowers or not uppers:
            raise DomainError(f"norms {sorted(wanted)} provide no two-sided envelope")
        payload["per_norm"] = kept
        payload["envelope"] = {"lower": max(lowers), "upper": min(uppers)}
    record = _record("bound_report", payload, cfg, seed=None)
    _emit(record, fmt, output, _bound_report_text, _bound_report_csv)


@main.command()
@click.option("--mc/--no-mc", "run_mc", default=False,
              help="recompute the reference estimate instead of using the stored value")
@click.option("--steps", type=float, default=1e7, show_default=True)
@click.option("--ensembles", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@_format_option
@_output_option
@click.pass_context
@_guarded
def table1(ctx, run_mc, steps, ensembles, seed, fmt, output):
    """Reference table of bounds at alpha = beta = 1 (5 significant figures)."""
    params = ShearParams.infer(1.0, 1.0)
    cfg = _series_config(ctx.obj or {}, None, None)
    glob = lyapunov_bounds(params, BoundFamily.GLOBAL, cfg)
    impr = lyapunov_bounds(params, BoundFamily.IMPROVED, cfg)
    improved_cell = {
        NormKind.L1: (impr.per_norm[NormKind.L1].lower, "lower"),
        NormKind.L2: (impr.per_norm[NormKind.L2].lower, "lower"),
        NormKind.LINF: (impr.per_norm[NormKind.LINF].upper, "upper"),
    }
    rows = []
    for norm in _NORM_ORDER:
        value, side = improved_cell[norm]
        rows.append(
            {
                "norm": norm.value,
                "global_lower": glob.per_norm[norm].lower,
                "global_upper": glob.per_norm[norm].upper,
                "improved": value,
                "improved_side": side,
            }
        )
    payload: dict = {"alpha": 1.0, "beta": 1.0, "rows": rows,
                     "mc_reference": MC_REFERENCE_LAMBDA}
    used_seed = None
    if run_mc:
        est = lyapunov_mc(params, McConfig(int(steps), ensembles, seed))
        used_seed = seed
        payload["mc_estimate"] = {
            "mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples,
            "n_steps": int(steps), "n_apps": est.n_apps,
        }
    record = _record("table", payload, cfg, seed=used_seed)

    def text_fn(p):
        lines = [
            "Bounds at alpha = beta = 1 (5 significant figures)",
            "",
            f"  {'norm':<6} {'global lower':>14} {'global upper':>14} {'improved':>14}",
        ]
        for r in p["rows"]:
            lines.append(
                f"  {r['norm']:<6} {r['global_lower']:>14.5f} {r['global_upper']:>14.5f}"
                f" {r['improved']:>14.5f} ({r['improved_side']})"
            )
        lines.append("")
        lines.append(f"  reference estimate: {p['mc_reference']}")
        if "mc_estimate" in p:
            m = p["mc_estimate"]
            lines.append(
                f"  recomputed estimate: {m['mean']:.5f} +- {m['std_error']:.1e}"
                f" ({m['n_apps']:.0e} applications)"
            )
        return "\n".join(lines)

    def csv_fn(p):
        header = ["norm", "global_lower", "global_upper", "improved", "improved_side"]
        return header, p["rows"]

    _emit(record, fmt, output, text_fn, csv_fn)


def _sweep_point_rows(alpha, beta, cfg, include_mc, mc_opts, standard_k, standard_samples):
    """Bound rows for one (alpha, beta) pair: both families, plus extras."""
    params = ShearParams.infer(alpha, beta)
    rows = []
    reports = {}
    for family in (BoundFamily.GLOBAL, BoundFamily.IMPROVED):
        report = lyapunov_bounds(params, family, cfg)
        reports[family] = report
        for norm, nb in report.per_norm.items():
            for side, value in (("lower", nb.lower), ("upper", nb.upper)):
                if value is not None:
                    rows.append(
                        {"alpha": alpha, "beta": beta, "norm": norm.value,
                         "family": family.value, "side": side, "value": value}
                    )
        for side, value in (("lower", report.envelope.lower), ("upper", report.envelope.upper)):
            rows.append(
                {"alpha": alpha, "beta": beta, "norm": "envelope",
                 "family": family.value, "side": side, "value": value}
            )
    if params.regime.value == "positive":
        cor = closed_form_bounds(params)
        for side, value in (("lower", cor.lower), ("upper", cor.upper)):
            rows.append(
                {"alpha": alpha, "beta": beta, "norm": "linf",
                 "family": "closed_form", "side": side, "value": value}
            )
    mc_mean = mc_se = None
    if include_mc:
        est = lyapunov_mc(params, McConfig(**mc_opts))
        mc_mean, mc_se = est.mean, est.std_error
        rows.append(
            {"alpha": alpha, "beta": beta, "norm": "", "family": "mc",
             "side": "estimate", "value": est.mean, "std_error": est.std_error}
        )
    if standard_k:
        ek = standard_bound(
            standard_k, params,
            mode="exhaustive" if standard_k <= 12 else "sampled",
            n_samples=standard_samples, seed=mc_opts["seed"],
        )
        rows.append(
            {"alpha": alpha, "beta": beta, "norm": "", "family": "standard",
             "side": "upper", "value": ek}
        )
    return rows, reports, mc_mean, mc_se


@main.command()
@click.option("--mode", type=click.Choice(
    ["lyap-bounds", "errors", "envelopes", "gle", "neg-bounds", "neg-gle"]),
    required=True)
@click.option("--alpha", default=None, metavar="RANGE",
              help="value or start:stop:step (endpoints inclusive)")
@click.option("--beta", type=float, default=None,
              help="fixed beta (defaults to alpha, or -alpha in the opposed modes)")
@click.option("--q", "q_range", default="-3:3:0.25", metavar="RANGE", show_default=True,
              help="moment-order grid for the gle modes")
@click.option("--family", type=click.Choice(["global", "improved", "both"]),
              default="both", show_default=True)
@click.option("--mc", "include_mc", is_flag=True, help="add Monte Carlo estimate rows")
@click.option("--steps", type=float, default=1e6, show_default=True)
@click.option("--ensembles", type=int, default=25, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--standard-k", type=int, default=None,
              help="add the classical length-k upper bound (exhaustive for k <= 12)")
@click.option("--standard-samples", type=int, default=20000, show_default=True)
@click.option("--max-index", type=int, default=None)
@click.option("--tol", type=float, default=None)
@_format_option
@_output_option
@click.pass_context
@_guarded
def sweep(ctx, mode, alpha, beta, q_range, family, include_mc, steps, ensembles, seed,
          standard_k, standard_samples, max_index, tol, fmt, output):
    """Curve datasets: bounds, errors and envelopes vs alpha, or bounds vs q."""
    cfg = _series_config(ctx.obj or {}, max_index, tol)
    families = {
        "global": [BoundFamily.GLOBAL],
        "improved": [BoundFamily.IMPROVED],
        "both": [BoundFamily.GLOBAL, BoundFamily.IMPROVED],
    }[family]
    mc_opts = {"n_steps": int(steps), "n_ensembles": ensembles, "seed": seed}
    uses_rng = include_mc or mode == "errors" or standard_k is not None
    rows: list[dict] = []

    if mode in ("gle", "neg-gle"):
        if alpha is None:
            alpha = "1" if mode == "gle" else "-3"
        alphas = parse_range(alpha)
        if len(alphas) != 1:
            raise DomainError(f"mode {mode} sweeps q at a single alpha, got range {alpha!r}")
        a = alphas[0]
        b = beta if beta is not None else (a if mode == "gle" else -a)
        params = ShearParams.infer(a, b)
        for q in parse_range(q_range):
            for fam in families:
                report = gle_bounds_report(q, params, fam, cfg)
                for norm, nb in report.per_norm.items():
                    for side, value in (("lower", nb.lower), ("upper", nb.upper)):
                        if value is not None:
                            rows.append({"alpha": a, "beta": b, "q": q, "norm": norm.value,
                                         "family": fam.value, "side": side, "value": value})
                for side, value in (("lower", report.envelope.lower),
                                    ("upper", report.envelope.upper)):
                    rows.append({"alpha": a, "beta": b, "q": q, "norm": "envelope",
                                 "family": fam.value, "side": side, "value": value})
        header = ["alpha", "beta", "q", "norm", "family", "side", "value"]
    else:
        if alpha is None:
            raise DomainError(f"mode {mode} requires --alpha")
        alphas = parse_range(alpha)
        header = ["alpha", "beta", "norm", "family", "side", "value", "std_error"]
        if mode == "errors":
            include_mc = True
            header = ["alpha", "beta", "norm", "family", "side", "bound", "mc", "error"]
        if mode == "envelopes":
            header = ["alpha", "beta", "norm", "family", "gap"]
        for a in alphas:
            b = beta if beta is not None else (-a if mode == "neg-bounds" else a)
            point_rows, reports, mc_mean, _mc_se = _sweep_point_rows(
                a, b, cfg, include_mc, mc_opts, standard_k, standard_samples
            )
            if mode == "envelopes":
                for fam in families:
                    report = reports[fam]
                    for norm, nb in report.per_norm.items():
                        if nb.lower is not None and nb.upper is not None:
                            rows.append({"alpha": a, "beta": b, "norm": norm.value,
                                         "family": fam.value, "gap": nb.upper - nb.lower})
                    rows.append({"alpha": a, "beta": b, "norm": "envelope",
                                 "family": fam.value,
                                 "gap": report.envelope.upper - report.envelope.lower})
            elif mode == "errors":
                for r in point_rows:
                    if r["family"] in ("mc",):
                        continue
                    if r["family"] not in [f.value for f in families] + ["closed_form", "standard"]:
                        continue
                    rows.append({"alpha": a, "beta": b, "norm": r["norm"],
                                 "family": r["family"], "side": r["side"],
                                 "bound": r["value"], "mc": mc_mean,
                                 "error": r["value"] - mc_mean})
            else:
                wanted = [f.value for f in families] + ["closed_form", "mc", "standard"]
                rows.extend(r for r in point_rows if r["family"] in wanted)

    payload = {"mode": mode, "columns": header, "rows": rows}
    record = _record("sweep", payload, cfg, seed=seed if uses_rng else None)

    def text_fn(p):
        lines = ["  ".join(p["columns"])]
        for r in p["rows"]:
            lines.append("  ".join(_fmt(r.get(c), 6) if not isinstance(r.get(c), str)
                                    else r.get(c) for c in p["columns"]))
        return "\n".join(lines)

    def csv_fn(p):
        return p["columns"], p["rows"]

    _emit(record, fmt, output, text_fn, csv_fn)


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--q", type=float, default=None,
              help="estimate the q-th moment exponent instead of the Lyapunov exponent")
@click.option("--steps", type=float, default=1e6, show_default=True,
              help="total matrix applications requested across the ensemble "
                   "(n_apps reports those run)")
@click.option("--ensembles", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--renorm-every", type=int, default=1, show_default=True,
              help="accepted for compatibility; no numerical effect (products are "
                   "rescaled by magnitude)")
@_format_option
@_output_option
@click.pass_context
@_guarded
def mc(ctx, alpha, beta, q, steps, ensembles, seed, renorm_every, fmt, output):
    """Monte Carlo estimate of the Lyapunov or moment exponent."""
    params = ShearParams.infer(alpha, beta)
    cfg = _series_config(ctx.obj or {}, None, None)
    mc_cfg = McConfig(int(steps), ensembles, seed, renorm_every)
    if q is None:
        est = lyapunov_mc(params, mc_cfg)
    else:
        est = gle_mc(q, params, mc_cfg)
    payload = {
        "alpha": alpha, "beta": beta, "q": q,
        "estimator": "lyapunov" if q is None else "gle",
        "mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples,
        "n_steps": int(steps), "n_apps": est.n_apps, "n_ensembles": ensembles,
        "renorm_every": renorm_every,
        "rng": "philox4x64 keyed by (seed, ensemble index)",
    }
    record = _record("mc_estimate", payload, cfg, seed=seed)

    def text_fn(p):
        what = "lambda" if p["q"] is None else f"l(q={p['q']:g})"
        return (
            f"{what} estimate  alpha={p['alpha']:g} beta={p['beta']:g}\n"
            f"  mean      {p['mean']:.6f}\n"
            f"  std error {p['std_error']:.2e}\n"
            f"  ensembles {p['n_samples']}, applications run {p['n_apps']:.3g} "
            f"of {p['n_steps']:.3g} requested, seed {seed}"
        )

    def csv_fn(p):
        header = ["alpha", "beta", "q", "estimator", "mean", "std_error",
                  "n_samples", "n_steps", "n_apps"]
        return header, [{k: p.get(k) for k in header}]

    _emit(record, fmt, output, text_fn, csv_fn)


@main.command(name="gle-exact")
@click.option("--q", type=int, required=True, help="integer moment order in [1, 6]")
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@_format_option
@_output_option
@click.pass_context
@_guarded
def gle_exact(ctx, q, alpha, beta, fmt, output):
    """Exact integer-q moment bounds (log arguments are exact at alpha=beta=1)."""
    params = ShearParams.infer(alpha, beta)
    cfg = _series_config(ctx.obj or {}, None, None)
    res = gle_exact_integer(q, params)
    payload = {
        "alpha": alpha, "beta": beta, "q": q,
        "lower_arg": res.lower_arg, "upper_arg": res.upper_arg,
        "lower": res.lower, "upper": res.upper,
    }
    record = _record("exact_gle", payload, cfg, seed=None)

    def text_fn(p):
        return (
            f"moment exponent l(q={p['q']})  alpha={p['alpha']:g} beta={p['beta']:g}\n"
            f"  (1/4) log {p['lower_arg']} <= l <= (1/4) log {p['upper_arg']}\n"
            f"  [{p['lower']:.8f}, {p['upper']:.8f}]"
        )

    def csv_fn(p):
        header = ["alpha", "beta", "q", "lower_arg", "upper_arg", "lower", "upper"]
        return header, [{k: p[k] for k in header}]

    _emit(record, fmt, output, text_fn, csv_fn)


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@_format_option
@_output_option
@click.pass_context
@_guarded
def entropy(ctx, alpha, beta, fmt, output):
    """Topological-entropy bounds (1/4) log(1+4ab) <= h <= (1/4) log(3+4ab)."""
    params = ShearParams.infer(alpha, beta)
    cfg = _series_config(ctx.obj or {}, None, None)
    env = entropy_bounds(params)
    payload = {"alpha": alpha, "beta": beta, "lower": env.lower, "upper": env.upper}
    record = _record("entropy", payload, cfg, seed=None)

    def text_fn(p):
        return (
            f"topological entropy  alpha={p['alpha']:g} beta={p['beta']:g}\n"
            f"  [{p['lower']:.8f}, {p['upper']:.8f}]"
        )

    def csv_fn(p):
        header = ["alpha", "beta", "lower", "upper"]
        return header, [{k: p[k] for k in header}]

    _emit(record, fmt, output, text_fn, csv_fn)


@main.command(name="standard-bound")
@click.option("--k", type=int, required=True, help="product length")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="exhaustive",
              show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True,
              help="sample count for sampled mode")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
@_output_option
@click.pass_context
@_guarded
def standard_bound_cmd(ctx, k, alpha, beta, mode, samples, seed, fmt, output):
    """Classical submultiplicative upper bound E_k = (1/k) E log |C|."""
    params = ShearParams.infer(alpha, beta)
    cfg = _series_config(ctx.obj or {}, None, None)
    value = standard_bound(k, params, mode=mode, n_samples=samples, seed=seed)
    payload = {"alpha": alpha, "beta": beta, "k": k, "mode": mode,
               "n_samples": samples if mode == "sampled" else 2**k, "value": value}
    record = _record("standard_bound", payload, cfg,
                     seed=seed if mode == "sampled" else None)

    def text_fn(p):
        return (
            f"standard bound E_{p['k']}  alpha={p['alpha']:g} beta={p['beta']:g}"
            f" ({p['mode']}, {p['n_samples']} products)\n"
            f"  E_k = {p['value']:.8f}"
        )

    def csv_fn(p):
        header = ["alpha", "beta", "k", "mode", "n_samples", "value"]
        return header, [{key: p[key] for key in header}]

    _emit(record, fmt, output, text_fn, csv_fn)


if __name__ == "__main__":  # pragma: no cover
    main()
