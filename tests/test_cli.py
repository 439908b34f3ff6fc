import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import shearlyap
from shearlyap import RNG_ALGORITHM, cli, montecarlo
from shearlyap.cli import main, parse_range


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args, **kwargs):
    result = runner.invoke(main, args + ["--format", "json"], **kwargs)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParseRange:
    def test_single_value(self):
        assert parse_range("2.5") == [2.5]

    def test_inclusive_endpoints(self):
        assert parse_range("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_negative_step(self):
        assert parse_range("-3:-5:-1") == [-3.0, -4.0, -5.0]

    def test_rejects_inconsistent(self):
        from shearlyap import DomainError

        with pytest.raises(DomainError):
            parse_range("1:2:-0.5")
        with pytest.raises(DomainError):
            parse_range("1:2")

    @pytest.mark.parametrize("spec", ["nan", "inf", "0:1:nan", "nan:1:1", "1:nan:1",
                                      "1:inf:1", "-inf:0:1"])
    def test_rejects_non_finite(self, deadline, spec):
        from shearlyap import DomainError

        with pytest.raises(DomainError, match="must be finite"):
            parse_range(spec)

    @pytest.mark.parametrize("spec", ["1e-300:1e-299:1e-301", "0:1e-11:1e-13",
                                      "5:5.000000000001:1e-13"])
    def test_rejects_steps_lost_to_rounding(self, spec):
        from shearlyap import DomainError

        with pytest.raises(DomainError, match="below the 1e-12 resolution"):
            parse_range(spec)

    def test_finest_representable_step(self):
        assert parse_range("0:3e-12:1e-12") == [0.0, 1e-12, 2e-12, 3e-12]

    @pytest.mark.parametrize("spec", ["0:1000000:1", "0:-1000000:-1", "0:1:1e-6"])
    def test_rejects_one_value_over_the_cap(self, deadline, spec):
        # cap + 1 values: small enough that a missing guard would build them harmlessly
        from shearlyap import DomainError

        assert cli._MAX_RANGE_VALUES == 10**6
        with pytest.raises(DomainError, match="has more than 1000000 values"):
            parse_range(spec)

    def test_cap_counts_values_as_built(self, monkeypatch):
        from shearlyap import DomainError

        monkeypatch.setattr(cli, "_MAX_RANGE_VALUES", 5)
        assert parse_range("1:5:1") == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert parse_range("1:3.2:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
        for spec in ["1:6:1", "1:3.25:0.5", "5:-0.9:-1"]:
            with pytest.raises(DomainError, match="has more than 5 values"):
                parse_range(spec)


class TestBoundsCommand:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["bounds", "--alpha", "1", "--beta", "1"])
        assert result.exit_code == 0
        assert "envelope" in result.output
        assert "0.36886823" in result.output

    def test_json_schema(self, runner):
        rec = run_json(runner, ["bounds", "--alpha", "2", "--beta", "3"])
        assert rec["kind"] == "bound_report"
        assert rec["metadata"]["seed"] is None
        assert rec["metadata"]["tool_version"]
        assert rec["metadata"]["series_config"] == {"max_index": 64, "tail_tol": 1e-12}
        payload = rec["payload"]
        assert set(payload["per_norm"]) == {"l1", "l2", "linf"}
        assert payload["envelope"]["lower"] <= payload["envelope"]["upper"]

    def test_domain_error_exit_2(self, runner):
        result = runner.invoke(main, ["bounds", "--alpha", "0.5", "--beta", "1"])
        assert result.exit_code == 2
        assert "alpha must be >= 1" in result.output

    def test_nonconvergence_exit_3(self, runner):
        result = runner.invoke(
            main, ["bounds", "--alpha", "1", "--beta", "1", "--max-index", "8"]
        )
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "error: series tail bound 1.208e-04 exceeds tolerance 1.475e-12 at truncation 8 "
            "(sum ~ 1.47537); increase max_index"]

    def test_norm_filter(self, runner):
        rec = run_json(runner, ["bounds", "--alpha", "1", "--beta", "1", "--norms", "l2"])
        payload = rec["payload"]
        assert set(payload["per_norm"]) == {"l2"}
        assert payload["envelope"]["lower"] == payload["per_norm"]["l2"]["lower"]

    def test_bad_norm_filter(self, runner):
        result = runner.invoke(
            main, ["bounds", "--alpha", "1", "--beta", "1", "--norms", "l3"]
        )
        assert result.exit_code == 2

    def test_csv_output(self, runner):
        result = runner.invoke(
            main, ["bounds", "--alpha", "1", "--beta", "1", "--format", "csv"]
        )
        assert result.exit_code == 0
        # RFC-4180 line endings (Result.output normalizes them away)
        assert b"\r\n" in result.stdout_bytes
        rows = parse_csv(result.output)
        assert {r["norm"] for r in rows} == {"l1", "l2", "linf", "envelope"}
        l2_lower = [r for r in rows if r["norm"] == "l2" and r["side"] == "lower"][0]
        assert float(l2_lower["value"]) == pytest.approx(0.36347, abs=1e-5)
        assert float(l2_lower["value_block_scale"]) == pytest.approx(
            4 * float(l2_lower["value"]), rel=1e-12
        )

    def test_norm_filter_without_two_sided_envelope(self, runner):
        result = runner.invoke(main, ["bounds", "--alpha", "-3", "--beta", "3",
                                      "--family", "improved", "--norms", "l2,l1"])
        assert result.exit_code == 2
        assert "error: norms ['l1', 'l2'] provide no two-sided envelope" in result.output

    def test_opposed_improved_has_single_upper(self, runner):
        rec = run_json(
            runner,
            ["bounds", "--alpha", "-3", "--beta", "3", "--family", "improved"],
        )
        per_norm = rec["payload"]["per_norm"]
        assert per_norm["l1"]["upper"] is None
        assert per_norm["linf"]["upper"] is not None


TABLE_EXPECT = {
    "l1": ("0.36886", "0.43835", "0.38561"),
    "l2": ("0.36347", "0.40277", "0.36864"),
    "linf": ("0.34613", "0.43835", "0.41350"),
}


class TestTable1Command:
    def test_values_five_significant_figures(self, runner):
        rec = run_json(runner, ["table1"])
        assert rec["payload"]["mc_reference"] == 0.39625
        for row in rec["payload"]["rows"]:
            lo, hi, imp = TABLE_EXPECT[row["norm"]]
            assert abs(row["global_lower"] - float(lo)) <= 1.01e-5
            assert abs(row["global_upper"] - float(hi)) <= 1.01e-5
            assert abs(row["improved"] - float(imp)) <= 1.01e-5

    def test_text_golden(self, runner):
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 0
        for token in ("0.43835", "0.40277", "0.38561", "0.36864", "0.41350", "0.39625"):
            assert token in result.output

    def test_stable_across_runs(self, runner):
        a = runner.invoke(main, ["table1", "--format", "csv"]).output
        b = runner.invoke(main, ["table1", "--format", "csv"]).output
        assert a == b


class TestSweepCommand:
    def test_envelopes_columns_and_shrinkage(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--mode", "envelopes", "--alpha", "1:10:1", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert list(rows[0]) == ["alpha", "beta", "norm", "family", "gap"]
        combined = {
            (float(r["alpha"]), r["family"]): float(r["gap"])
            for r in rows
            if r["norm"] == "envelope"
        }
        assert combined[(10.0, "global")] < combined[(1.0, "global")]
        for a in (1.0, 5.0, 10.0):
            assert combined[(a, "improved")] <= combined[(a, "global")] + 1e-12

    def test_gle_curve_through_origin(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--mode", "gle", "--alpha", "1", "--beta", "1",
             "--q", "-1:1:0.5", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        at_zero = [r for r in rows if float(r["q"]) == 0.0 and r["norm"] == "envelope"]
        assert at_zero and all(float(r["value"]) == 0.0 for r in at_zero)

    def test_neg_bounds_default_beta(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--mode", "neg-bounds", "--alpha", "-3:-4:-1", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert {float(r["beta"]) for r in rows} == {3.0, 4.0}
        improved_linf_upper = [
            r for r in rows
            if r["family"] == "improved" and r["norm"] == "linf" and r["side"] == "upper"
        ]
        assert improved_linf_upper

    def test_errors_mode_includes_mc(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--mode", "errors", "--alpha", "1", "--steps", "200000",
             "--ensembles", "8", "--seed", "5", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert list(rows[0]) == [
            "alpha", "beta", "norm", "family", "side", "bound", "mc", "error"
        ]
        for r in rows:
            assert float(r["error"]) == pytest.approx(
                float(r["bound"]) - float(r["mc"]), abs=1e-12
            )
        assert {r["family"] for r in rows} >= {"global", "improved", "closed_form"}

    def test_lyap_bounds_with_standard(self, runner):
        rec = run_json(
            runner,
            ["sweep", "--mode", "lyap-bounds", "--alpha", "1:2:1",
             "--standard-k", "6", "--seed", "3"],
        )
        rows = rec["payload"]["rows"]
        standard = [r for r in rows if r["family"] == "standard"]
        assert len(standard) == 2
        assert rec["metadata"]["seed"] == 3

    def test_gle_requires_single_alpha(self, runner):
        result = runner.invoke(
            main, ["sweep", "--mode", "gle", "--alpha", "1:2:1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--mode", "gle", "--q", "0:1:nan"],
        ["--mode", "gle", "--q", "nan"],
        ["--mode", "lyap-bounds", "--alpha", "1:nan:1"],
    ])
    def test_non_finite_range_exit_2(self, runner, deadline, args):
        result = runner.invoke(main, ["sweep", *args])
        assert result.exit_code == 2, result.output
        assert "must be finite" in result.output

    def test_over_long_range_exit_2(self, runner, deadline):
        result = runner.invoke(main, ["sweep", "--mode", "gle", "--alpha", "2",
                                      "--q", "0:1000000:1"])
        assert result.exit_code == 2, result.output
        assert "error: range '0:1000000:1' has more than 1000000 values" in result.output

    def test_q_steps_lost_to_rounding_exit_2(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "gle", "--q", "1e-300:1e-299:1e-301"])
        assert result.exit_code == 2, result.output
        assert "error: range '1e-300:1e-299:1e-301' has steps below" in result.output

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_standard_k_must_be_positive(self, runner, k):
        result = runner.invoke(
            main, ["sweep", "--mode", "lyap-bounds", "--alpha", "1", "--standard-k", k]
        )
        assert result.exit_code == 2
        assert "k must be positive" in result.output

    @pytest.mark.filterwarnings("error")
    def test_non_finite_moment_sum_exit_3(self, runner):
        # at q = 200 the moment terms overflow, and the sum is refused by name;
        # numpy's overflow warning must not leak from the integrand
        result = runner.invoke(main, ["sweep", "--mode", "gle", "--alpha", "1", "--q", "200",
                                      "--family", "global", "--format", "csv"])
        assert result.exit_code == 3
        assert ("error: series terms are not finite: the lower l1 moment sum at q = 200.0 "
                "overflows double precision") in result.output
        assert "a larger max_index cannot help" in result.output
        assert "increase max_index" not in result.output

    @pytest.mark.parametrize("args,bounds_families,mc_calls,standard_calls", [
        (["--mode", "envelopes", "--mc", "--standard-k", "4"], ["global", "improved"] * 2, 0, 0),
        (["--mode", "lyap-bounds", "--family", "global"], ["global"] * 2, 0, 0),
        (["--mode", "lyap-bounds", "--family", "global", "--mc", "--standard-k", "4"],
         ["global"] * 2, 2, 2),
        (["--mode", "errors", "--family", "improved"], ["improved"] * 2, 2, 0),
        (["--mode", "envelopes", "--family", "global"], ["global"] * 2, 0, 0),
    ])
    def test_sweep_computes_only_what_it_prints(self, runner, monkeypatch, args,
                                                bounds_families, mc_calls, standard_calls):
        from shearlyap import cli

        calls = {}
        for name in ("lyapunov_bounds", "lyapunov_mc", "standard_bound", "closed_form_bounds"):
            def counted(*a, fn=getattr(cli, name), name=name, **kw):
                calls.setdefault(name, []).append(a)
                return fn(*a, **kw)
            monkeypatch.setattr(cli, name, counted)
        rec = run_json(runner, ["sweep", "--alpha", "1:2:1", "--steps", "20000",
                                "--ensembles", "4", *args])
        assert [a[1].value for a in calls["lyapunov_bounds"]] == bounds_families
        assert len(calls.get("lyapunov_mc", [])) == mc_calls
        assert len(calls.get("standard_bound", [])) == standard_calls
        assert len(calls.get("closed_form_bounds", [])) == (0 if "envelopes" in args else 2)
        printed = {r.get("family") for r in rec["payload"]["rows"]}
        assert printed >= set(bounds_families)
        assert ("mc" in printed) == (mc_calls > 0 and "errors" not in args)
        assert ("standard" in printed) == (standard_calls > 0)

    def test_sampled_standard_needs_samples(self, runner):
        result = runner.invoke(
            main, ["sweep", "--mode", "lyap-bounds", "--alpha", "1", "--standard-k", "14",
                   "--standard-samples", "0"]
        )
        assert result.exit_code == 2
        assert "n_samples" in result.output


class TestMcCommand:
    def test_metadata_seed_present_when_defaulted(self, runner):
        rec = run_json(
            runner,
            ["mc", "--alpha", "1", "--beta", "1", "--steps", "1e5", "--ensembles", "8"],
        )
        assert rec["metadata"]["seed"] == 0
        assert rec["payload"]["estimator"] == "lyapunov"
        assert rec["payload"]["rng"] == RNG_ALGORITHM
        assert rec["payload"]["mean"] == pytest.approx(0.396, abs=0.02)

    def test_deterministic(self, runner):
        args = ["mc", "--alpha", "1", "--beta", "1", "--steps", "1e5",
                "--ensembles", "8", "--seed", "77"]
        a = run_json(runner, args)
        b = run_json(runner, args)
        assert a["payload"]["mean"] == b["payload"]["mean"]

    def test_gle_estimator_q0(self, runner):
        rec = run_json(
            runner,
            ["mc", "--alpha", "1", "--beta", "1", "--q", "0", "--steps", "1e5",
             "--ensembles", "100"],
        )
        assert rec["payload"]["estimator"] == "gle"
        assert rec["payload"]["mean"] == 0.0

    def test_domain_guard(self, runner):
        result = runner.invoke(main, ["mc", "--alpha", "-1", "--beta", "1"])
        assert result.exit_code == 2

    def test_moment_estimate_below_minus_log_2_exits_3(self, runner):
        # its estimate, -1.839180, lies below -log 2, which no moment rate does
        result = runner.invoke(main, ["mc", "--alpha", "5", "--beta", "5", "--q", "-2"])
        assert result.exit_code == 3
        assert "below -log 2 = -0.693147" in result.output
        assert "effective sample size 1.0 of 32 trajectories" in result.output

    @pytest.mark.filterwarnings("ignore:effective sample size")
    def test_reports_applications_run(self, runner):
        # the moment estimator caps trajectories at 200: 32 x 200 of 10^6 run
        args = ["mc", "--alpha", "1", "--beta", "1", "--q", "2", "--steps", "1e6"]
        rec = run_json(runner, args)
        assert rec["payload"]["n_steps"] == 1_000_000
        assert rec["payload"]["n_apps"] == 6400
        row, = parse_csv(runner.invoke(main, args + ["--format", "csv"]).output)
        assert (row["n_steps"], row["n_apps"]) == ("1000000", "6400")
        text = runner.invoke(main, args).output
        assert "applications run 6.4e+03 of 1e+06 requested" in text

    @pytest.mark.filterwarnings("ignore:effective sample size")
    @pytest.mark.parametrize("args", [
        "mc --alpha 1 --beta 1 --steps 1000 --ensembles 1",
        "mc --alpha 1 --beta 1 --q 1 --steps 1000 --ensembles 1",
        "sweep --mode lyap-bounds --alpha 1 --mc --steps 1000 --ensembles 1",
    ], ids=["mc", "mc-q", "sweep-mc"])
    def test_json_is_strict_where_csv_prints_nan(self, runner, args):
        # one ensemble has no standard error: RFC 8259 parsers reject NaN
        def refuse(constant):
            raise AssertionError(f"JSON holds {constant}")

        rec = json.loads(runner.invoke(main, args.split() + ["--format", "json"]).output,
                         parse_constant=refuse)
        payload = rec["payload"]
        assert (payload["rows"][-1] if "rows" in payload else payload)["std_error"] is None
        assert parse_csv(runner.invoke(main, args.split() + ["--format", "csv"]).output
                         )[-1]["std_error"] == "nan"

    def test_strong_shear_with_renorm_every_is_finite(self, runner):
        rec = run_json(runner, ["mc", "--alpha", "50", "--beta", "50", "--steps", "1e5",
                                "--ensembles", "8", "--renorm-every", "1000"])
        assert math.isfinite(rec["payload"]["mean"])
        assert rec["payload"]["n_apps"] == 100_000

    def test_cost_guard_exit_2(self, runner, deadline):
        result = runner.invoke(main, ["mc", "--alpha", "1", "--beta", "1", "--steps", "1e30",
                                      "--ensembles", "2"])
        assert result.exit_code == 2
        assert "exceed the cost guard" in result.output

    @pytest.mark.parametrize("args,message", [
        ("standard-bound --k 100000000000 --alpha 1 --beta 1 --mode sampled --samples 1",
         "1e+11 matrix applications exceed the cost guard"),
        ("sweep --mode lyap-bounds --alpha 1 --standard-k 100000000000 --standard-samples 1",
         "1e+11 matrix applications exceed the cost guard"),
        ("mc --alpha 1 --beta 1 --steps 1e9 --ensembles 100000000",
         "1e+08 ensembles or samples exceed the memory guard"),
        ("mc --alpha 1 --beta 1 --q 2 --steps 1e9 --ensembles 100000000",
         "1e+08 ensembles or samples exceed the memory guard"),
        ("standard-bound --k 20 --alpha 1 --beta 1 --mode sampled --samples 100000000",
         "1e+08 ensembles or samples exceed the memory guard"),
    ])
    def test_guards_refuse_before_any_coin(self, runner, monkeypatch, deadline, args, message):
        # a missing guard fails on the patched functions, before drawing coins
        # or allocating arrays of the refused width
        def refused(*args):
            raise AssertionError("coins drawn")

        for name in ("_philox_keys", "_coin_bytes", "_iterate_log_growth"):
            monkeypatch.setattr(montecarlo, name, refused)
        result = runner.invoke(main, args.split())
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.filterwarnings("ignore:effective sample size")
    def test_capped_moment_estimate_accepts_any_steps(self, runner, deadline):
        rec = run_json(runner, ["mc", "--alpha", "1", "--beta", "1", "--q", "2",
                                "--steps", "1e30", "--ensembles", "2"])
        assert rec["payload"]["n_apps"] == 400

    @pytest.mark.parametrize("q", [None, "2"])
    def test_shear_beyond_kernel_accuracy_exit_2(self, runner, deadline, q):
        args = ["mc", "--alpha", "1e120", "--beta", "1e120"] + (["--q", q] if q else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "error: shears above 1e+79 lose accuracy" in result.output

    def test_non_finite_parameter_exit_2(self, runner):
        result = runner.invoke(main, ["mc", "--alpha", "inf", "--beta", "2"])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_moment_order_exit_2(self, runner, monkeypatch, q):
        # refused, with one error line, before any coin is drawn
        def refused(*args):
            raise AssertionError("coins drawn")

        monkeypatch.setattr(montecarlo, "_coin_bytes", refused)
        result = runner.invoke(main, ["mc", "--alpha", "1", "--beta", "1", "--q", q,
                                      "--steps", "1e4", "--format", "json"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [f"error: q must be finite, got {q}"]

    @pytest.mark.parametrize("args", [
        ["mc", "--alpha", "1", "--beta", "1", "--steps", "1e3"],
        ["mc", "--alpha", "1", "--beta", "1", "--steps", "1e3", "--q", "1"],
        ["sweep", "--mode", "lyap-bounds", "--alpha", "1", "--mc", "--steps", "1e3"],
        ["sweep", "--mode", "errors", "--alpha", "1", "--steps", "1e3"],
        ["standard-bound", "--k", "8", "--alpha", "1", "--beta", "1", "--mode", "sampled"],
        ["sweep", "--mode", "lyap-bounds", "--alpha", "1", "--standard-k", "16"],
    ])
    def test_negative_seed_exit_2(self, runner, args):
        result = runner.invoke(main, args + ["--seed", "-1"])
        assert result.exit_code == 2
        assert "error: seed must be non-negative, got -1" in result.output


    @pytest.mark.parametrize("steps", ["nan", "inf"])
    @pytest.mark.parametrize("args", [
        ["mc", "--alpha", "1", "--beta", "1"],
        ["table1", "--mc"],
        ["sweep", "--mode", "lyap-bounds", "--alpha", "1", "--mc"],
        ["sweep", "--mode", "errors", "--alpha", "1"],
    ])
    def test_non_finite_steps_exit_2(self, runner, args, steps):
        result = runner.invoke(main, args + ["--steps", steps])
        assert result.exit_code == 2
        assert f"error: --steps must be finite, got {steps}" in result.output


class TestSmallCommands:
    def test_gle_exact(self, runner):
        rec = run_json(runner, ["gle-exact", "--q", "2"])
        assert rec["payload"]["lower_arg"] == 45
        assert rec["payload"]["upper_arg"] == 79

    def test_gle_exact_text_names_the_moment_sums(self, runner):
        # (1/4) log 45 and (1/4) log 79 bound no exponent: the exact l(2) at
        # (1, 1) is 0.82452, below both
        result = runner.invoke(main, ["gle-exact", "--q", "2"])
        assert result.exit_code == 0
        assert result.output == (
            "(1/4) log of the block-scale q-moment sum, q=2  alpha=1 beta=1\n"
            "  from the L-infinity lower and upper functions: (1/4) log 45, (1/4) log 79\n"
            "  [0.95166562, 1.09236196], not bounds on the moment exponent l(q)\n")

    def test_gle_exact_out_of_range(self, runner):
        result = runner.invoke(main, ["gle-exact", "--q", "7"])
        assert result.exit_code == 2

    def test_entropy_roundtrip(self, runner):
        rec = run_json(runner, ["entropy", "--alpha", "2", "--beta", "3"])
        assert rec["payload"]["lower"] == pytest.approx(math.log(25) / 4, abs=1e-12)
        assert rec["payload"]["upper"] == pytest.approx(math.log(27) / 4, abs=1e-12)

    def test_standard_bound_exhaustive(self, runner):
        args = ["standard-bound", "--k", "4", "--alpha", "1", "--beta", "1"]
        rec = run_json(runner, args)
        assert rec["payload"]["n_samples"] == 16
        assert rec["metadata"]["seed"] is None
        assert rec["payload"]["value"] > 0.39625
        # 2 + 4 + 8 + 16 products of lengths 1..4, one application each
        assert rec["payload"]["n_apps"] == 30
        row, = parse_csv(runner.invoke(main, args + ["--format", "csv"]).output)
        assert (row["n_samples"], row["n_apps"]) == ("16", "30")
        assert "(exhaustive, 16 products, 30 applications run)" in runner.invoke(main, args).output

    def test_standard_bound_sampled_counts_applications(self, runner):
        args = ["standard-bound", "--k", "8", "--alpha", "1", "--beta", "1",
                "--mode", "sampled", "--samples", "300", "--seed", "4"]
        rec = run_json(runner, args)
        assert (rec["payload"]["n_samples"], rec["payload"]["n_apps"]) == (300, 2400)
        assert rec["metadata"]["seed"] == 4
        row, = parse_csv(runner.invoke(main, args + ["--format", "csv"]).output)
        assert (row["n_samples"], row["n_apps"]) == ("300", "2400")
        assert "(sampled, 300 products, 2400 applications run)" in runner.invoke(main, args).output

    def test_standard_bound_guard(self, runner):
        result = runner.invoke(
            main, ["standard-bound", "--k", "30", "--alpha", "1", "--beta", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_standard_bound_sampled_needs_samples(self, runner, samples):
        result = runner.invoke(
            main, ["standard-bound", "--k", "8", "--alpha", "1", "--beta", "1",
                   "--mode", "sampled", "--samples", samples]
        )
        assert result.exit_code == 2
        assert "n_samples" in result.output


class TestExtremeShears:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args,code,message", [
        ("entropy --alpha 1e300 --beta 1e300", 2, "entropy bounds overflow double precision"),
        ("gle-exact --q 3 --alpha 1e300 --beta 1e300", 2,
         "exact q = 3 moment bounds overflow double precision"),
        ("standard-bound --k 5 --alpha 1e300 --beta 1e300", 2,
         "exhaustive E_5 overflows double precision"),
        ("bounds --alpha -2e16 --beta 3", 2, "Gamma is lost to rounding"),
        ("bounds --alpha 1e200 --beta 1", 3,
         "the global positive lower l2 bound function overflows double precision"),
        ("sweep --mode lyap-bounds --alpha 1e200 --beta 1", 3,
         "the global positive lower l2 bound function overflows double precision"),
        # a Lyapunov sum has no q: the bound function that overflows is named
        ("bounds --alpha 1 --beta 1e200", 3,
         "the global positive lower l2 bound function overflows double precision at "
         "alpha=1.0, beta=1e+200"),
        ("bounds --alpha 1e75 --beta 1e75 --family improved", 3,
         "series terms are not finite: the improved positive lower l1 bound function "
         "overflows double precision at alpha=1e+75, beta=1e+75"),
        ("sweep --mode neg-gle --alpha -3 --q -400 --family global", 3,
         "moment sum at q = -400.0 underflows double precision"),
        ("sweep --mode gle --alpha 1 --q -700 --family global", 3,
         "moment sum at q = -700.0 underflows double precision"),
        ("sweep --mode gle --alpha 1 --q -670 --family global", 3,
         "series sum is 5.33e-321: the upper l1 moment sum at q = -670.0 underflows"),
    ])
    def test_one_error_line_and_exit_code(self, runner, args, code, message):
        result = runner.invoke(main, args.split())
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        [line] = result.output.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("args,line", [
        ("sweep --mode gle --alpha 1 --q 60 --family global",
         "error: series tail bound 7.923e+180 exceeds tolerance 6.352e+153 at truncation 64 "
         "(sum ~ 6.35199e+165); increase max_index"),
        ("sweep --mode gle --alpha 1 --q -670 --family global",
         "error: series sum is 5.33e-321: the upper l1 moment sum at q = -670.0 underflows "
         "double precision, as terms f^q do at large negative q; a larger max_index cannot help"),
        # the lower l1 bound function stays finite (up to 1.6e204), its square does not
        ("sweep --mode gle --alpha 1e100 --q 2",
         "error: series terms are not finite: the lower l1 moment sum at q = 2.0 overflows "
         "double precision; a larger max_index cannot help"),
        # the lower l1 bound function itself overflows, and so does any power q > 0 of it
        ("sweep --mode gle --alpha 1e160 --q 2",
         "error: series terms are not finite: the global positive lower l1 bound function "
         "overflows double precision at alpha=1e+160, beta=1e+160"),
    ], ids=["q60", "q-670", "q2-overflow", "q2-bound-overflow"])
    def test_moment_sums_beyond_doubles_keep_their_refusal(self, runner, args, line):
        # the sum is the same double however much of the grid is read, and the
        # tail bound depends on the point alone, so the message prints the same digits
        result = runner.invoke(main, args.split())
        assert result.exit_code == 3
        assert result.output.splitlines() == [line]


class TestConfigAndOutput:
    def test_config_file_defaults(self, runner, tmp_path):
        cfg = tmp_path / "series.cfg"
        cfg.write_text("# series defaults\nmax_index = 96\ntail_tol = 1e-10\n")
        rec = run_json(
            runner,
            ["--config", str(cfg), "bounds", "--alpha", "1", "--beta", "1"],
        )
        assert rec["metadata"]["series_config"] == {"max_index": 96, "tail_tol": 1e-10}

    @pytest.mark.parametrize("source", ["option", "config"])
    def test_max_index_cap_exit_2(self, runner, tmp_path, source):
        # refused before any grid is built: (2 * 1025)^2 terms per grid
        cfg = tmp_path / "series.cfg"
        cfg.write_text("max_index = 1025\n")
        args = ["bounds", "--alpha", "1", "--beta", "1"]
        args = (args + ["--max-index", "1025"] if source == "option"
                else ["--config", str(cfg)] + args)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "error: max_index must be in 8..1024, got 1025" in result.output

    def test_config_unknown_key(self, runner, tmp_path):
        cfg = tmp_path / "series.cfg"
        cfg.write_text("truncation = 10\n")
        result = runner.invoke(
            main, ["--config", str(cfg), "bounds", "--alpha", "1", "--beta", "1"]
        )
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    @pytest.mark.parametrize("content", [None, b"\xff\xfe max_index = 64"])
    def test_config_unreadable_file(self, runner, tmp_path, content):
        cfg = tmp_path / "series.cfg"
        if content is not None:
            cfg.write_bytes(content)
        result = runner.invoke(
            main, ["--config", str(cfg), "bounds", "--alpha", "1", "--beta", "1"]
        )
        assert result.exit_code == 2
        assert f"cannot read config file {cfg}" in result.output

    @pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
    def test_unwritable_output_exit_2(self, runner, tmp_path, target):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "x.txt" if target == "under-a-file" else tmp_path
        result = runner.invoke(main, ["entropy", "--alpha", "1", "--beta", "1",
                                      "--output", str(path)])
        assert result.exit_code == 2, result.output
        # output holds stdout and stderr both: only the error line is printed
        [line] = result.output.splitlines()
        assert line.startswith(f"error: cannot write output {path}: ")

    def test_config_bad_value(self, runner, tmp_path):
        cfg = tmp_path / "series.cfg"
        cfg.write_text("tail_tol = 1e-10\nmax_index = abc\n")
        result = runner.invoke(
            main, ["--config", str(cfg), "bounds", "--alpha", "1", "--beta", "1"]
        )
        assert result.exit_code == 2
        assert f"{cfg}:2:" in result.output
        assert "'abc'" in result.output

    def test_output_dir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SHEARLYAP_OUTPUT_DIR", str(tmp_path))
        result = runner.invoke(
            main,
            ["entropy", "--alpha", "1", "--beta", "1", "--format", "csv",
             "--output", "sub/entropy.csv"],
        )
        assert result.exit_code == 0
        written = tmp_path / "sub" / "entropy.csv"
        assert written.exists()
        rows = parse_csv(written.read_text())
        assert rows[0]["alpha"] == "1.0"

    def test_json_roundtrips(self, runner):
        rec = run_json(runner, ["gle-exact", "--q", "1"])
        again = json.loads(json.dumps(rec))
        assert again == rec


def _bounds_rows(payload):
    """Expected bounds CSV rows: each norm's available sides, then the envelope."""
    named = list(payload["per_norm"].items()) + [("envelope", payload["envelope"])]
    return [
        {"alpha": payload["alpha"], "beta": payload["beta"], "family": payload["family"],
         "norm": norm, "side": side, "value": nb[side], "value_block_scale": 4 * nb[side]}
        for norm, nb in named for side in ("lower", "upper") if nb[side] is not None
    ]


# command line, CSV columns, and the rows the JSON payload says the CSV holds
ONE_MODEL_CASES = [
    (["bounds", "--alpha", "-3", "--beta", "3", "--family", "improved"],
     ["alpha", "beta", "family", "norm", "side", "value", "value_block_scale"], _bounds_rows),
    (["table1"], ["norm", "global_lower", "global_upper", "improved", "improved_side"],
     lambda p: p["rows"]),
    (["sweep", "--mode", "lyap-bounds", "--alpha", "1:2:1", "--mc", "--steps", "1e4",
      "--standard-k", "4"],
     ["alpha", "beta", "norm", "family", "side", "value", "std_error"], lambda p: p["rows"]),
    (["mc", "--alpha", "1", "--beta", "1", "--steps", "1e4", "--ensembles", "8"],
     ["alpha", "beta", "q", "estimator", "mean", "std_error", "n_samples", "n_steps",
      "n_apps"], lambda p: [p]),
    (["gle-exact", "--q", "2"],
     ["alpha", "beta", "q", "lower_arg", "upper_arg", "lower", "upper"], lambda p: [p]),
    (["entropy", "--alpha", "2", "--beta", "3"], ["alpha", "beta", "lower", "upper"],
     lambda p: [p]),
    (["standard-bound", "--k", "6", "--alpha", "1", "--beta", "1"],
     ["alpha", "beta", "k", "mode", "n_samples", "n_apps", "value"], lambda p: [p]),
]


@pytest.mark.parametrize("args, columns, expected_rows", ONE_MODEL_CASES,
                         ids=[case[0][0] for case in ONE_MODEL_CASES])
def test_csv_and_json_render_one_result(runner, args, columns, expected_rows):
    payload = run_json(runner, args)["payload"]
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.output)
    assert result.output.splitlines()[0].split(",") == columns
    want = [{c: "" if r.get(c) is None else str(r[c]) for c in columns}
            for r in expected_rows(payload)]
    assert rows == want


def test_command_options_unchanged():
    surface = {name: sorted(p.name for p in cmd.params) for name, cmd in main.commands.items()}
    surface["(main)"] = sorted(p.name for p in main.params)
    assert surface == {
        "(main)": ["config", "version"],
        "bounds": ["alpha", "beta", "family", "fmt", "max_index", "norms", "output", "tol"],
        "entropy": ["alpha", "beta", "fmt", "output"],
        "gle-exact": ["alpha", "beta", "fmt", "output", "q"],
        "mc": ["alpha", "beta", "ensembles", "fmt", "output", "q", "renorm_every", "seed",
               "steps"],
        "standard-bound": ["alpha", "beta", "fmt", "k", "mode", "output", "samples", "seed"],
        "sweep": ["alpha", "beta", "ensembles", "family", "fmt", "include_mc", "max_index",
                  "mode", "output", "q_range", "seed", "standard_k", "standard_samples",
                  "steps", "tol"],
        "table1": ["ensembles", "fmt", "output", "run_mc", "seed", "steps"],
    }


def test_no_undeclared_imports():
    # scipy and mpmath are installed but not declared: library code must not load them
    code = ("import sys, shearlyap, shearlyap.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    src = str(Path(shearlyap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", ["linalg", "cones", "growth", "series", "engine", "montecarlo"])
def test_module_exports_are_reexported(module):
    mod = importlib.import_module(f"shearlyap.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    not_reexported = [name for name in mod.__all__
                      if getattr(shearlyap, name, None) is not getattr(mod, name, None)]
    assert (missing, not_reexported) == ([], [])
