"""The benchmark's traced run still finds the functions it wraps.

perfbench/workloads.instrument replaces functions where their callers look
them up (cli.gle_bounds_report, engine.evaluator, series.truncated_sum,
montecarlo.spectral_norm_batch, the estimators on Workload.api, ...).
A rename in the program would leave those wrappers counting nothing, so a
traced run would report zero calls without failing.
"""

from pathlib import Path

import pytest

from shearlyap import McConfig, ShearParams, engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    return tracing, workloads


def test_traced_cli_run_counts_every_layer(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.Figures(1, tmp_path)
    tracer = tracing.Tracer()
    engine._bound_grid.cache_clear()  # a cached grid would skip the evaluator
    workloads.instrument(wl, tracer)
    wl.tracer = tracer
    try:
        wl._cli(["sweep", "--mode", "gle", "--alpha", "1", "--beta", "1", "--q", "-1:1:1",
                 "--output", str(tmp_path / "gle.csv")])
        wl._cli(["sweep", "--mode", "lyap-bounds", "--alpha", "2",
                 "--output", str(tmp_path / "lyap.csv")])
    finally:
        tracer.unwrap_all()
    for name in ("series.truncated_sum.calls", "growth.evaluator.calls",
                 "engine.gle_bounds_report.calls"):
        assert tracer.counts[name] > 0, name
    names = {span[0] for span in tracer.spans}
    assert {"series.expect_block", "cli.sweep"} <= names
    assert (tmp_path / "gle.csv").exists() and (tmp_path / "lyap.csv").exists()


def test_traced_mc_run_counts_every_estimator(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.McWide(1, tmp_path)
    tracer = tracing.Tracer()
    workloads.instrument(wl, tracer)
    p = ShearParams.infer(1.0, 1.0)
    cfg = McConfig(800, 4, seed=2)
    try:
        wl.api.lyapunov_mc(p, cfg)
        wl.api.block_oracle(p, cfg)
        wl.api.gle_mc(1.0, p, McConfig(400, 20, seed=3))
        wl.api.standard_bound(6, p)
        wl.api.standard_bound(32, p, mode="sampled", n_samples=10, seed=4)
    finally:
        tracer.unwrap_all()
    names = [f"mc.{name}.{what}" for name in ("lyapunov_mc", "block_oracle", "gle_mc",
                                              "standard_bound") for what in ("calls", "apps")]
    for name in names + ["mc.streams", "linalg.spectral_norm_batch.calls"]:
        assert tracer.counts[name] > 0, name
