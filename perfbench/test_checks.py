"""Each benchmark check accepts the program's real output and rejects a
perturbed one.  Run with:  python3 -m pytest perfbench
"""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from shearlyap import (  # noqa: E402
    BlockStats, BoundFamily, McEstimate, NormKind, ShearParams, gle_bounds_report,
    gle_exact_integer, lyapunov_bounds, standard_bound,
)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

P11 = ShearParams.infer(1.0, 1.0)


def _table_values():
    glob = lyapunov_bounds(P11)
    impr = lyapunov_bounds(P11, BoundFamily.IMPROVED)
    values = {}
    for norm in (NormKind.L1, NormKind.L2, NormKind.LINF):
        values[(norm.value, "global_lower")] = glob.per_norm[norm].lower
        values[(norm.value, "global_upper")] = glob.per_norm[norm].upper
        nb = impr.per_norm[norm]
        values[(norm.value, "improved")] = nb.upper if norm is NormKind.LINF else nb.lower
    return values


def test_table():
    values = _table_values()
    assert checks.check_table(values) == []
    values[("l2", "global_upper")] += 2e-5
    assert checks.check_table(values)


def test_geometric_moments():
    assert checks.geometric_moments(5) == [1, 2, 6, 26, 150, 1082]


@pytest.mark.parametrize("q", range(1, 6))
def test_exact_args(q):
    res = gle_exact_integer(q, P11)
    assert checks.check_exact_args(q, res.lower_arg, res.upper_arg) == []
    assert checks.check_exact_args(q, res.lower_arg, res.upper_arg + 1)
    assert checks.check_log_args("x", res.lower, res.upper, q, tol=1e-12) == []


@pytest.mark.parametrize("q", [1, 2, 3])
def test_log_args_against_series(q):
    linf = gle_bounds_report(float(q), P11).per_norm[NormKind.LINF]
    assert checks.check_log_args("x", linf.lower, linf.upper, q) == []
    assert checks.check_log_args("x", linf.lower, linf.upper + 1e-8, q)


def test_interval_and_nesting():
    assert checks.check_interval("x", 0.1, 0.2) == []
    assert checks.check_interval("x", 0.2, 0.1)
    assert checks.check_interval("x", math.nan, 0.1)
    assert checks.check_nested("x", (0.15, 0.18), (0.1, 0.2)) == []
    assert checks.check_nested("x", (0.05, 0.18), (0.1, 0.2))
    assert checks.check_nested("x", (0.15, 0.21), (0.1, 0.2))


def test_estimate_and_reference():
    assert checks.check_estimate_in("x", 0.396, 1e-4, 0.3856, 0.4028) == []
    assert checks.check_estimate_in("x", 0.4028 + 7e-4, 1e-4, 0.3856, 0.4028)
    assert checks.check_estimate_in("x", math.nan, 1e-4, 0.3856, 0.4028)
    assert checks.check_reference_lambda(0.3962) == []
    assert checks.check_reference_lambda(0.3990)


def test_block_law():
    n = 2_500_000
    assert checks.check_block_law(4.0005, 1 / 3, 1 / 3, 1 / 3, n) == []
    assert checks.check_block_law(4.01, 1 / 3, 1 / 3, 1 / 3, n)
    assert checks.check_block_law(4.0, 0.34, 0.33, 0.33, n)


def _brute_moments(n):
    """E|X_n|_1 and E|X_n|_2^2 over all 2^n words, from X_0 = (0, 1)."""
    m1 = m2 = 0
    for word in itertools.product((0, 1), repeat=n):
        u, v = 0, 1
        for c in word:
            if c:
                v += u
            else:
                u += v
        m1 += u + v
        m2 += u * u + v * v
    return math.log(m1 / 2**n) / n, math.log(m2 / 2**n) / n


def test_exact_moment_rates():
    l1, l2sq = checks.exact_moment_rates(10)
    b1, b2 = _brute_moments(10)
    assert l1 == pytest.approx(b1, rel=1e-14)
    assert l2sq == pytest.approx(b2, rel=1e-14)
    assert checks.exact_moment_rates(400)[0] == pytest.approx(math.log(1.5), abs=1e-6)


def test_gle_checks():
    n = 200
    l1, l2sq = checks.exact_moment_rates(n)
    assert checks.check_gle_q1(l1 - 0.3 * math.log(2) / n, 1e-4, n, l1) == []
    assert checks.check_gle_q1(l1 + 1e-3, 1e-4, n, l1)
    assert checks.check_gle_q1(l1 - math.log(2) / n, 1e-4, n, l1)
    assert checks.check_gle_q2(l2sq - 0.003, 7e-4, l2sq) == []
    assert checks.check_gle_q2(l2sq + 0.01, 7e-4, l2sq)
    assert checks.check_gle_jensen(-1.0, -0.38, 4e-4, 0.40277) == []
    assert checks.check_gle_jensen(-1.0, -0.41, 4e-4, 0.40277)


def test_standard_bounds():
    assert checks.exact_standard_bound(6, 1, 1) == pytest.approx(standard_bound(6, P11),
                                                                  abs=1e-13)
    values = {k: standard_bound(k, P11) for k in range(10, 14)}
    exact = {12: checks.exact_standard_bound(12, 1, 1)}
    assert checks.check_standard_bounds(values, exact, 0.3856) == []
    assert checks.check_standard_bounds({**values, 12: values[12] + 1e-9}, exact, 0.3856)
    assert checks.check_standard_bounds({**values, 13: values[11]}, {}, 0.3856)
    assert checks.check_standard_bounds(values, {}, 0.41)
    assert checks.check_sampled_bound(1.0683, 1.06574, 1.08) == []
    assert checks.check_sampled_bound(1.0650, 1.06574, 1.08)


# ---------------------------------------------------------------- workloads

def test_mc_long_wiring(tmp_path):
    wl = workloads.McLong(1, tmp_path)
    wl.prepare()
    ests = [McEstimate(0.5 * (lo + hi), 1e-4, 25) for lo, hi in wl.envelopes]
    ests[0] = McEstimate(0.3962, 1e-4, 25)
    stats = BlockStats(4.0, 1 / 3, 1 / 3, 1 / 3, 0.3962, 2_500_000)
    outputs = [[e] for e in ests] + [[stats], [McEstimate(math.nan, math.nan, 25)]]
    assert wl.check(outputs) == (20, 1, [])
    outputs[3] = [McEstimate(wl.envelopes[3][1] + 0.01, 1e-4, 25)]
    assert wl.check(outputs)[2]
    outputs[3] = [ests[3]]
    outputs[-2] = [BlockStats(4.1, 1 / 3, 1 / 3, 1 / 3, 0.3962, 2_500_000)]
    assert wl.check(outputs)[2]


def test_mc_wide_wiring(tmp_path):
    wl = workloads.McWide(1, tmp_path)
    wl.prepare()
    sb = [[standard_bound(k, P11) for k in range(12, 20)], [standard_bound(20, P11)]]
    outputs = [[McEstimate(-0.38, 4e-4, 20000)], [McEstimate(wl.l1_rate - 0.0015, 1e-4, 20000)],
               [McEstimate(wl.l2sq_rate - 0.003, 7e-4, 20000)], *sb, [1.0683]]
    assert wl.check(outputs) == (13, 0, [])
    outputs[2] = [McEstimate(wl.l2sq_rate + 0.01, 7e-4, 20000)]
    assert wl.check(outputs)[2]


def test_figures_pass_and_perturbation(tmp_path):
    wl = workloads.Figures(1, tmp_path)
    outputs = [[c() for c in calls] for _label, calls in wl.segments()]
    attempted, failed, problems = wl.check(outputs)
    assert (attempted, failed, problems) == (wl.work_per_pass(), 18, [])
    table = tmp_path / "table1.json"
    doc = json.loads(table.read_text())
    doc["payload"]["rows"][0]["improved"] += 1e-4
    table.write_text(json.dumps(doc))
    assert wl.check(outputs)[2]


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
