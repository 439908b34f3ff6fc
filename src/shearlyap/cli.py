"""Command-line front end.

Subcommands: bounds, table1, sweep, mc, gle-exact, entropy, standard-bound.
Each returns one Result, which one renderer writes as --format text|json|csv
to stdout or to --output PATH (relative paths are joined to
$SHEARLYAP_OUTPUT_DIR when that is set), so all three formats show the same
values.  Series truncation defaults can come from a key = value config file
passed with --config or named by $SHEARLYAP_CONFIG.

Exit codes: 0 success, 2 invalid parameter domain (or usage), 3 numerical
non-convergence of a series (or a series sum that is not finite).

All exponent values are reported on the per-application (lambda) scale;
text output also shows the block-scale value (4x), since a block contains
four applications on average.
"""

from __future__ import annotations

import csv
import dataclasses
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
    Bounds,
    closed_form_bounds,
    entropy_bounds,
    gle_bounds_report,
    gle_exact_integer,
    lyapunov_bounds,
)
from .linalg import DomainError, NormKind, Regime, ShearParams
from .montecarlo import RNG_ALGORITHM, McConfig, gle_mc, lyapunov_mc, standard_bound
from .series import NonConvergenceError, SeriesConfig

# reference estimate of the exponent at alpha = beta = 1, reproducible with
# `shearlyap mc --alpha 1 --beta 1 --steps 10000000 --seed 42`
MC_REFERENCE_LAMBDA = 0.39625
# a sweep computes every value of a range, some ms each: a million take over an hour
_MAX_RANGE_VALUES = 10**6


# --------------------------------------------------------------------------
# plumbing

@dataclasses.dataclass(frozen=True)
class Result:
    """One command's output.  rows=None: the payload is the one CSV row;
    text=None: the text output is a column table of the rows."""

    kind: str
    payload: dict
    columns: list[str]
    series_cfg: SeriesConfig
    rows: list[dict] | None = None
    text: str | None = None
    seed: int | None = None


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, NonConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, NonConvergenceError) else 2)

    return wrapper


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("SHEARLYAP_CONFIG")
    if not path:
        return {}
    allowed = {"max_index": int, "tail_tol": float}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = allowed[key](value.strip())
        except ValueError:
            raise DomainError(
                f"{path}:{lineno}: {key} must be {allowed[key].__name__}, got {value.strip()!r}"
            ) from None
    return out


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    path = Path(output)
    base = os.environ.get("SHEARLYAP_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write output {path}: {exc}") from None
    click.echo(f"wrote {path}", err=True)


def _fmt(x, digits=8) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}g}"


def _strict_json(value):
    """value with every float that is not finite as None: JSON (RFC 8259) has no
    nan or inf, so strict parsers read null where CSV and text print nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _emit(result: Result, fmt: str, output: str | None) -> None:
    rows = [result.payload] if result.rows is None else result.rows
    if fmt == "json":
        metadata = {
            "tool_version": __version__,
            "seed": result.seed,
            "series_config": dataclasses.asdict(result.series_cfg),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        record = {"kind": result.kind, "payload": result.payload, "metadata": metadata}
        text = json.dumps(_strict_json(record), indent=2, allow_nan=False)
    elif fmt == "csv":
        buf = io.StringIO()
        # missing keys and None values both become empty fields
        writer = csv.DictWriter(buf, fieldnames=result.columns, lineterminator="\r\n",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif result.text is not None:
        text = result.text
    else:
        lines = ["  ".join(result.columns)]
        for r in rows:
            values = (r.get(c) for c in result.columns)
            lines.append("  ".join(v if isinstance(v, str) else _fmt(v, 6) for v in values))
        text = "\n".join(lines)
    _write_output(text, output)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
    return value


def parse_range(spec: str) -> list[float]:
    """Parse 'start:stop:step' (endpoints inclusive within half a step) or a single value.

    Grid values are rounded to 12 decimals; a step too small to survive that
    rounding raises DomainError rather than repeating a value, and so does a
    range of more than _MAX_RANGE_VALUES values, before any is built."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise DomainError(f"range must be a value or start:stop:step, got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"bad range {spec!r}: {exc}") from None
    values = [_finite(v, f"range {spec!r}") for v in values]
    if len(values) == 1:
        return values
    start, stop, step = values
    if step == 0.0 or (stop - start) * step < 0.0:
        raise DomainError(f"range {spec!r} cannot reach its endpoint")
    # the loop below takes value i while i <= (stop - start) / step + 1/2
    if not (stop - start) / step + 0.5 < _MAX_RANGE_VALUES:
        raise DomainError(f"range {spec!r} has more than {_MAX_RANGE_VALUES} values")
    direction = math.copysign(1.0, step)
    out: list[float] = []
    while ((v := start + len(out) * step) - stop) * direction <= abs(step) / 2.0:
        out.append(round(v, 12))
    if any(x == y for x, y in zip(out, out[1:])):
        raise DomainError(f"range {spec!r} has steps below the 1e-12 resolution of its values")
    return out


def _named_bounds(report: BoundReport) -> list[tuple[str, Bounds]]:
    """(norm name, bounds) for each norm of a report, then ("envelope", envelope)."""
    return [(n.value, nb) for n, nb in report.per_norm.items()] + [("envelope", report.envelope)]


def _report_rows(report: BoundReport, **keys):
    """Rows of a BoundReport: each norm's available sides, then the envelope."""
    for norm, bounds in _named_bounds(report):
        for side in ("lower", "upper"):
            value = getattr(bounds, side)
            if value is not None:
                yield {**keys, "norm": norm, "family": report.family.value,
                       "side": side, "value": value}


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


def _command(name: str | None = None):
    """Register a command on `main` that takes the series config (config file,
    then its own --max-index/--tol) and returns a Result to emit; adds
    --format and --output, and exit codes 2 and 3 for domain and series errors."""

    def register(fn):
        @functools.wraps(fn)
        def run(ctx, fmt, output, max_index=None, tol=None, **options):
            values = dict(ctx.obj or {})
            if max_index is not None:
                values["max_index"] = max_index
            if tol is not None:
                values["tail_tol"] = tol
            _emit(fn(SeriesConfig(**values), **options), fmt, output)

        cmd = main.command(name)(click.pass_context(_guarded(run)))
        cmd.params += [
            click.Option(["--format", "fmt"], type=click.Choice(["text", "json", "csv"]),
                         default="text", show_default=True, help="output format"),
            click.Option(["--output"], default=None, metavar="PATH",
                         help="write to PATH instead of stdout "
                              "($SHEARLYAP_OUTPUT_DIR prefixes relative paths)"),
        ]
        return cmd

    return register


@_command()
@click.option("--alpha", type=float, required=True, help="lower-shear strength")
@click.option("--beta", type=float, required=True, help="upper-shear strength")
@click.option("--family", type=click.Choice(["global", "improved"]), default="global",
              show_default=True)
@click.option("--norms", default=None, metavar="LIST",
              help="comma-separated subset of l1,l2,linf (default: all)")
@click.option("--max-index", type=int, default=None, help="series truncation index")
@click.option("--tol", type=float, default=None, help="series tail tolerance")
def bounds(cfg, alpha, beta, family, norms):
    """Lyapunov-exponent bounds for one parameter pair."""
    params = ShearParams.infer(alpha, beta)
    report = lyapunov_bounds(params, BoundFamily(family), cfg)
    if norms:
        wanted = {n.strip() for n in norms.split(",") if n.strip()}
        bad = wanted - {n.value for n in NormKind}
        if bad:
            raise DomainError(f"unknown norms {sorted(bad)}; choose from l1,l2,linf")
        report = dataclasses.replace(report, per_norm={
            k: v for k, v in report.per_norm.items() if k.value in wanted})
    env = report.envelope
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "regime": params.regime.value,
        "family": report.family.value,
        "scale": "lambda (per matrix application); block scale is 4x",
        "per_norm": {
            norm.value: {"lower": nb.lower, "upper": nb.upper}
            for norm, nb in report.per_norm.items()
        },
        "envelope": {"lower": env.lower, "upper": env.upper},
    }
    lines = [
        f"Lyapunov exponent bounds  alpha={params.alpha:g} beta={params.beta:g}"
        f"  regime={params.regime.value} family={report.family.value}",
        "",
        f"  {'norm':<6} {'lower':>12} {'upper':>12} {'lower*4':>12} {'upper*4':>12}",
    ]
    for norm, nb in report.per_norm.items():
        lo, up = nb.lower, nb.upper
        lines.append(
            f"  {norm.value:<6} {_fmt(lo):>12} {_fmt(up):>12}"
            f" {_fmt(None if lo is None else 4 * lo):>12}"
            f" {_fmt(None if up is None else 4 * up):>12}"
        )
    lines.append("")
    lines.append(
        f"  envelope  [{_fmt(env.lower)}, {_fmt(env.upper)}]"
        f"   *4: [{_fmt(4 * env.lower)}, {_fmt(4 * env.upper)}]"
    )
    rows = [{**r, "value_block_scale": 4 * r["value"]}
            for r in _report_rows(report, alpha=params.alpha, beta=params.beta)]
    return Result(
        "bound_report", payload,
        ["alpha", "beta", "family", "norm", "side", "value", "value_block_scale"],
        cfg, rows=rows, text="\n".join(lines),
    )


@_command()
@click.option("--mc/--no-mc", "run_mc", default=False,
              help="recompute the reference estimate instead of using the stored value")
@click.option("--steps", type=float, default=1e7, show_default=True)
@click.option("--ensembles", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
def table1(cfg, run_mc, steps, ensembles, seed):
    """Reference table of bounds at alpha = beta = 1 (5 significant figures)."""
    params = ShearParams.infer(1.0, 1.0)
    glob = lyapunov_bounds(params, BoundFamily.GLOBAL, cfg)
    impr = lyapunov_bounds(params, BoundFamily.IMPROVED, cfg)
    lines = [
        "Bounds at alpha = beta = 1 (5 significant figures)",
        "",
        f"  {'norm':<6} {'global lower':>14} {'global upper':>14} {'improved':>14}",
    ]
    rows = []
    # the improved family sharpens the l1 and l2 lower bounds and the linf upper bound
    for norm, side in ((NormKind.L1, "lower"), (NormKind.L2, "lower"), (NormKind.LINF, "upper")):
        g = glob.per_norm[norm]
        improved = getattr(impr.per_norm[norm], side)
        rows.append({"norm": norm.value, "global_lower": g.lower, "global_upper": g.upper,
                     "improved": improved, "improved_side": side})
        lines.append(f"  {norm.value:<6} {g.lower:>14.5f} {g.upper:>14.5f}"
                     f" {improved:>14.5f} ({side})")
    payload: dict = {"alpha": 1.0, "beta": 1.0, "rows": rows,
                     "mc_reference": MC_REFERENCE_LAMBDA}
    lines += ["", f"  reference estimate: {MC_REFERENCE_LAMBDA}"]
    if run_mc:
        steps = int(_finite(steps, "--steps"))
        est = lyapunov_mc(params, McConfig(steps, ensembles, seed))
        payload["mc_estimate"] = {
            "mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples,
            "n_steps": steps, "n_apps": est.n_apps,
        }
        lines.append(f"  recomputed estimate: {est.mean:.5f} +- {est.std_error:.1e}"
                     f" ({est.n_apps:.0e} applications)")
    return Result("table", payload, list(rows[0]), cfg, rows=rows, text="\n".join(lines),
                  seed=seed if run_mc else None)


# sweep's modes, in --mode's order, and their CSV columns
_SWEEP_COLUMNS = {
    "lyap-bounds": ["alpha", "beta", "norm", "family", "side", "value", "std_error"],
    "errors": ["alpha", "beta", "norm", "family", "side", "bound", "mc", "error"],
    "envelopes": ["alpha", "beta", "norm", "family", "gap"],
    "gle": ["alpha", "beta", "q", "norm", "family", "side", "value"],
    "neg-bounds": ["alpha", "beta", "norm", "family", "side", "value", "std_error"],
    "neg-gle": ["alpha", "beta", "q", "norm", "family", "side", "value"],
}


@_command()
@click.option("--mode", type=click.Choice(list(_SWEEP_COLUMNS)), required=True)
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
def sweep(cfg, mode, alpha, beta, q_range, family, include_mc, steps, ensembles, seed,
          standard_k, standard_samples):
    """Curve datasets: bounds, errors and envelopes vs alpha, or bounds vs q."""
    families = list(BoundFamily) if family == "both" else [BoundFamily(family)]
    steps = int(_finite(steps, "--steps"))
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
                rows.extend(_report_rows(gle_bounds_report(q, params, fam, cfg),
                                         alpha=a, beta=b, q=q))
    else:
        if alpha is None:
            raise DomainError(f"mode {mode} requires --alpha")
        if mode == "errors":
            include_mc = True  # errors are measured against the estimate
        for a in parse_range(alpha):
            b = beta if beta is not None else (-a if mode == "neg-bounds" else a)
            # each point computes only what the mode prints
            params = ShearParams.infer(a, b)
            keys = {"alpha": a, "beta": b}
            reports = [lyapunov_bounds(params, fam, cfg) for fam in families]
            if mode == "envelopes":
                rows.extend({**keys, "norm": norm, "family": report.family.value,
                             "gap": nb.upper - nb.lower}
                            for report in reports for norm, nb in _named_bounds(report)
                            if nb.lower is not None and nb.upper is not None)
                continue
            point = [row for report in reports for row in _report_rows(report, **keys)]
            if params.regime is Regime.POSITIVE_PAIR:
                cor = closed_form_bounds(params)
                for side, value in (("lower", cor.lower), ("upper", cor.upper)):
                    point.append({**keys, "norm": "linf", "family": "closed_form",
                                  "side": side, "value": value})
            if include_mc:
                est = lyapunov_mc(params, McConfig(steps, ensembles, seed))
                if mode != "errors":
                    point.append({**keys, "norm": "", "family": "mc", "side": "estimate",
                                  "value": est.mean, "std_error": est.std_error})
            if standard_k is not None:
                ek = standard_bound(standard_k, params,
                                    mode="exhaustive" if standard_k <= 12 else "sampled",
                                    n_samples=standard_samples, seed=seed)
                point.append({**keys, "norm": "", "family": "standard", "side": "upper",
                              "value": ek})
            if mode == "errors":
                rows.extend({**keys, "norm": r["norm"], "family": r["family"],
                             "side": r["side"], "bound": r["value"], "mc": est.mean,
                             "error": r["value"] - est.mean} for r in point)
            else:
                rows.extend(point)

    columns = _SWEEP_COLUMNS[mode]
    return Result("sweep", {"mode": mode, "columns": columns, "rows": rows}, columns, cfg,
                  rows=rows, seed=seed if uses_rng else None)


@_command()
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
def mc(cfg, alpha, beta, q, steps, ensembles, seed, renorm_every):
    """Monte Carlo estimate of the Lyapunov or moment exponent."""
    params = ShearParams.infer(alpha, beta)
    steps = int(_finite(steps, "--steps"))
    mc_cfg = McConfig(steps, ensembles, seed, renorm_every)
    if q is None:
        est = lyapunov_mc(params, mc_cfg)
    else:
        est = gle_mc(q, params, mc_cfg)
    payload = {
        "alpha": alpha, "beta": beta, "q": q,
        "estimator": "lyapunov" if q is None else "gle",
        "mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples,
        "n_steps": steps, "n_apps": est.n_apps, "n_ensembles": ensembles,
        "renorm_every": renorm_every,
        "rng": RNG_ALGORITHM,
    }
    what = "lambda" if q is None else f"l(q={q:g})"
    text = (
        f"{what} estimate  alpha={alpha:g} beta={beta:g}\n"
        f"  mean      {est.mean:.6f}\n"
        f"  std error {est.std_error:.2e}\n"
        f"  ensembles {est.n_samples}, applications run {est.n_apps:.3g} "
        f"of {steps:.3g} requested, seed {seed}"
    )
    columns = ["alpha", "beta", "q", "estimator", "mean", "std_error",
               "n_samples", "n_steps", "n_apps"]
    return Result("mc_estimate", payload, columns, cfg, text=text, seed=seed)


@_command("gle-exact")
@click.option("--q", type=int, required=True, help="integer moment order in [1, 6]")
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
def gle_exact(cfg, q, alpha, beta):
    """Exact integer-q moment bounds (log arguments are exact at alpha=beta=1)."""
    res = gle_exact_integer(q, ShearParams.infer(alpha, beta))
    payload = {
        "alpha": alpha, "beta": beta, "q": q,
        "lower_arg": res.lower_arg, "upper_arg": res.upper_arg,
        "lower": res.lower, "upper": res.upper,
    }
    text = (
        f"moment exponent l(q={q})  alpha={alpha:g} beta={beta:g}\n"
        f"  (1/4) log {res.lower_arg} <= l <= (1/4) log {res.upper_arg}\n"
        f"  [{res.lower:.8f}, {res.upper:.8f}]"
    )
    return Result("exact_gle", payload, list(payload), cfg, text=text)


@_command()
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
def entropy(cfg, alpha, beta):
    """Topological-entropy bounds (1/4) log(1+4ab) <= h <= (1/4) log(3+4ab)."""
    env = entropy_bounds(ShearParams.infer(alpha, beta))
    payload = {"alpha": alpha, "beta": beta, "lower": env.lower, "upper": env.upper}
    text = (
        f"topological entropy  alpha={alpha:g} beta={beta:g}\n"
        f"  [{env.lower:.8f}, {env.upper:.8f}]"
    )
    return Result("entropy", payload, list(payload), cfg, text=text)


@_command("standard-bound")
@click.option("--k", type=int, required=True, help="product length")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="exhaustive",
              show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True,
              help="sample count for sampled mode")
@click.option("--seed", type=int, default=0, show_default=True)
def standard_bound_cmd(cfg, k, alpha, beta, mode, samples, seed):
    """Classical submultiplicative upper bound E_k = (1/k) E log |C|."""
    value = standard_bound(k, ShearParams.infer(alpha, beta), mode=mode, n_samples=samples,
                           seed=seed)
    n_samples = samples if mode == "sampled" else 2**k
    # exhaustive builds the 2^j products of each length j = 1..k, one application each
    n_apps = k * samples if mode == "sampled" else 2 ** (k + 1) - 2
    payload = {"alpha": alpha, "beta": beta, "k": k, "mode": mode,
               "n_samples": n_samples, "n_apps": n_apps, "value": value}
    text = (
        f"standard bound E_{k}  alpha={alpha:g} beta={beta:g}"
        f" ({mode}, {n_samples} products, {n_apps} applications run)\n"
        f"  E_k = {value:.8f}"
    )
    return Result("standard_bound", payload, list(payload), cfg, text=text,
                  seed=seed if mode == "sampled" else None)


if __name__ == "__main__":  # pragma: no cover
    main()
