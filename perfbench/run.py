#!/usr/bin/env python3
"""Benchmark for shearlyap: set-up, pass time, memory and throughput.

    python3 perfbench/run.py --workload figures|mc-long|mc-wide|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in its own process on one thread.  A run first takes
set-up samples (fresh interpreters), then repeats whole passes over the
workload's fixed list of calls for S seconds, checking every pass's
outputs.  Timings are normalised to a reference host speed by the
workload's calibration kernel (see calib.py); raw seconds are printed
beside them.  With --trace 1 half of the passes run with spans around the
program's public functions and the run reports per-layer figures instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details (every timing, and the spans of a traced run) are written to
.bench_out/ in the checkout.
"""

import os

if __name__ == "__main__":
    # one thread, and no configuration or output directory from the
    # environment; set before numpy is imported, and inherited by children
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    for _var in ("SHEARLYAP_CONFIG", "SHEARLYAP_OUTPUT_DIR"):
        os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("figures", "mc-long", "mc-wide")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
PER_LAYER = [
    ("cli.s", "s"), ("cli.self_s", "s"),
    ("engine.lyapunov_bounds.calls", "count"), ("engine.lyapunov_bounds.s", "s"),
    ("engine.gle_bounds_report.calls", "count"), ("engine.gle_bounds_report.s", "s"),
    ("engine.self_s", "s"),
    ("growth.evaluator.calls", "count"), ("growth.integrand_s", "s"),
    ("series.truncated_sum.calls", "count"), ("series.truncated_sum.s", "s"),
    ("series.terms", "count"), ("series.sum_s", "s"),
    *[(f"mc.{fn}.{what}", unit)
      for fn in ("lyapunov_mc", "block_oracle", "gle_mc", "standard_bound")
      for what, unit in (("calls", "count"), ("s", "s"), ("apps", "count"))],
    ("mc.streams", "count"), ("mc.lyapunov_mc.time_to_se_1e-4_s", "s"),
    ("linalg.spectral_norm_batch.calls", "count"), ("linalg.spectral_norm_batch.s", "s"),
    ("setup.import_s", "s"), ("setup.first_call_s", "s"),
    ("trace.overhead_s", "s"),
]
# per-layer times: metric -> (span-name prefix, total or self)
SPAN_METRICS = {
    "cli.s": ("cli.", "total"), "cli.self_s": ("cli.", "self"),
    "engine.lyapunov_bounds.s": ("engine.lyapunov_bounds", "total"),
    "engine.gle_bounds_report.s": ("engine.gle_bounds_report", "total"),
    "engine.self_s": ("engine.", "self"),
    "growth.integrand_s": ("growth.integrand", "total"),
    "series.truncated_sum.s": ("series.truncated_sum", "total"),
    "series.sum_s": ("series.truncated_sum", "self"),
    "mc.lyapunov_mc.s": ("mc.lyapunov_mc", "total"),
    "mc.block_oracle.s": ("mc.block_oracle", "total"),
    "mc.gle_mc.s": ("mc.gle_mc", "total"),
    "mc.standard_bound.s": ("mc.standard_bound", "total"),
    "linalg.spectral_norm_batch.s": ("linalg.spectral_norm_batch", "total"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------- set-up

def setup_sample(name: str, seed: int, workdir: Path) -> dict:
    """Raw seconds of one fresh-interpreter set-up: spawn to end of import,
    and the workload's first call."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    s = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"import": s["imported"] - t_spawn,
            "first_call": s["first_call_done"] - s["bench_imported"]}


def setup_samples(wl, seed: int, workdir: Path, ref: float) -> list[dict]:
    """SETUP_SAMPLES set-ups, each normalised by the kernels run in this
    process just before and after it."""
    kern = [calib.measure(wl.kernel)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        s = setup_sample(wl.name, seed, workdir)
        kern.append(calib.measure(wl.kernel))
        scale = ref / (0.5 * (kern[-2] + kern[-1]))
        s["raw"] = s["import"] + s["first_call"]
        s["norm"] = s["raw"] * scale
        s["import_norm"] = s["import"] * scale
        s["first_call_norm"] = s["first_call"] * scale
        samples.append(s)
    return samples


# ---------------------------------------------------------------- passes

def run_pass(segs, kernel: str) -> dict:
    raw, kern, outputs = [], [calib.measure(kernel)], []
    for _label, calls in segs:
        t0 = time.perf_counter()
        outs = [c() for c in calls]
        raw.append(time.perf_counter() - t0)
        outputs.append(outs)
        kern.append(calib.measure(kernel))
    return {"raw": raw, "kernel": kern, "outputs": outputs}


def normalise(p: dict, ref: float) -> list[float]:
    """Each segment's time at reference speed, from the kernels either side."""
    k = p["kernel"]
    return [r * ref / (0.5 * (k[i] + k[i + 1])) for i, r in enumerate(p["raw"])]


def pass_time(passes: list[dict], key: str) -> float:
    """One pass as the sum of its segments, each at its median over the
    passes: steadier than the median pass when a phase change hits one
    segment."""
    n = len(passes[0][key])
    return sum(statistics.median(p[key][i] for p in passes) for i in range(n))


def per_layer(p: dict, tracer, factor: float) -> dict:
    total, selft = tracing.span_times(tracer.spans[p["span_lo"]:p["span_hi"]], p["span_lo"])
    out = {}
    for metric, (prefix, kind) in SPAN_METRICS.items():
        src = total if kind == "total" else selft
        out[metric] = factor * sum(v for n, v in src.items() if n.startswith(prefix))
    return out


def run_workload(args) -> int:
    import workloads  # imports shearlyap from ./src

    wl_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-")
    workdir = Path(tmp.name)
    wl = wl_cls(args.seed, workdir)
    ref = calib.reference(wl.kernel)
    wl.prepare()

    setups = setup_samples(wl, args.seed, workdir, ref)

    segs = wl.segments()
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            workloads.instrument(wl, tracer)
            wl.tracer = tracer
            lo, counts0 = len(tracer.spans), Counter(tracer.counts)
        p = run_pass(segs, wl.kernel)
        if traced:
            tracer.unwrap_all()
            wl.tracer = None
            p["span_lo"], p["span_hi"] = lo, len(tracer.spans)
            p["counts"] = tracer.counts - counts0
        p["traced"] = traced
        p["norm"] = normalise(p, ref)
        passes.append(p)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - t_start >= args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness: every pass checked, and every pass gives the same results
    attempted = failed = 0
    problems: list[str] = []
    first_print = None
    for i, p in enumerate(passes):
        a, f, probs = wl.check(p["outputs"])
        attempted += a
        failed += f
        problems += [f"pass {i}: {m}" for m in probs]
        fp = wl.fingerprint(p["outputs"])
        if first_print is None:
            first_print = fp
        elif fp != first_print:
            problems.append(f"pass {i}: results differ from pass 0")
    traced_passes = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if any(p["counts"] != traced_passes[0]["counts"] for p in traced_passes):
        problems.append("per-layer counts differ between traced passes")

    med = statistics.median
    pass_s = pass_time(plain, "norm")
    raw = {"setup_s": med(s["raw"] for s in setups), "pass_s": pass_time(plain, "raw")}
    e2e = {
        "setup_s": med(s["norm"] for s in setups),
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": wl.work_per_pass() / pass_s,
    }
    raw["work_per_s"] = wl.work_per_pass() / raw["pass_s"]

    layer: dict = {}
    if isinstance(wl, workloads.McLong):
        ref_est = wl.reference_estimate(plain[0]["outputs"])
        if ref_est is not None:
            t = med(p["norm"][0] for p in plain)
            layer["mc.lyapunov_mc.time_to_se_1e-4_s"] = t * (ref_est[1] / 1e-4) ** 2
    if args.trace:
        per_pass = [per_layer(p, tracer, sum(p["norm"]) / sum(p["raw"]))
                    for p in traced_passes]
        for metric in SPAN_METRICS:
            layer[metric] = med(d[metric] for d in per_pass)
        layer.update(traced_passes[0]["counts"])
        layer["setup.import_s"] = med(s["import_norm"] for s in setups)
        layer["setup.first_call_s"] = med(s["first_call_norm"] for s in setups)
        layer["trace.overhead_s"] = pass_time(traced_passes, "norm") - pass_s

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "kernel": wl.kernel, "kernel_reference_s": ref,
        "segments": [label for label, _ in segs],
        "setup": setups,
        "passes": [{k: p[k] for k in ("traced", "raw", "kernel", "norm")} for p in passes],
        "end_to_end": e2e, "raw": raw, "per_layer": layer, "problems": problems,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json", {"workload": wl.name, "seed": args.seed})
    tmp.cleanup()

    status = "correct" if not problems else f"{len(problems)} problems"
    print(f"{wl.name} seed {args.seed}: {len(passes)} passes in {measured_s:.1f} s, "
          f"{attempted} operations, {failed} failed, {status}; "
          f"work is {wl.work_unit}, {wl.work_per_pass()} per pass")
    for m in problems[:20]:
        print(f"  problem: {m}", file=sys.stderr)
    for name, unit in END_TO_END.items():
        print(f"  {name:<34} {e2e[name]:>14.6g} {unit:<6} raw {raw.get(name, e2e[name]):.6g}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<34} {layer.get(name, 0):>14.6g} {unit}")
    else:
        for name, value in layer.items():
            print(f"  {name:<34} {value:>14.6g} s      (ungated)")

    if args.trace:
        metrics = {n: {"value": layer.get(n, 0), "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "shearlyap" / "__init__.py").is_file():
        print(f"error: no shearlyap package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the workloads' known numerical warnings (overflow at alpha = 50, small
    # effective sample sizes) are checked through the results instead
    warnings.simplefilter("ignore", RuntimeWarning)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
