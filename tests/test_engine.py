import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shearlyap
from shearlyap import engine, growth, series
from shearlyap import (
    BoundFamily,
    DomainError,
    NonConvergenceError,
    NormKind,
    SeriesConfig,
    ShearParams,
    closed_form_bounds,
    entropy_bounds,
    expect_block,
    gle_bounds,
    gle_bounds_report,
    gle_curve,
    gle_exact_integer,
    kappa,
    lyapunov_bounds,
)

POS11 = ShearParams.infer(1.0, 1.0)
OPP33 = ShearParams.infer(-3.0, 3.0)

# reference table at alpha = beta = 1, agreed within one unit in the fifth
# significant figure (the printed source rounds inconsistently in the last
# digit: the exact L1 lower sum is 0.3688682...)
TABLE_GLOBAL = {
    NormKind.L1: (0.36886, 0.43835),
    NormKind.L2: (0.36347, 0.40277),
    NormKind.LINF: (0.34613, 0.43835),
}
TABLE_IMPROVED = {
    NormKind.L1: ("lower", 0.38561),
    NormKind.L2: ("lower", 0.36864),
    NormKind.LINF: ("upper", 0.41350),
}
ULP5 = 1.000001e-5


class TestTableValues:
    def test_global(self):
        rep = lyapunov_bounds(POS11)
        for norm, (lo, hi) in TABLE_GLOBAL.items():
            assert abs(rep.per_norm[norm].lower - lo) <= ULP5
            assert abs(rep.per_norm[norm].upper - hi) <= ULP5
        assert rep.envelope.lower == pytest.approx(rep.per_norm[NormKind.L1].lower)
        assert rep.envelope.upper == pytest.approx(rep.per_norm[NormKind.L2].upper)

    def test_improved(self):
        rep = lyapunov_bounds(POS11, BoundFamily.IMPROVED)
        for norm, (side, value) in TABLE_IMPROVED.items():
            got = getattr(rep.per_norm[norm], side)
            assert abs(got - value) <= ULP5

    def test_improved_upper_l1_l2_unchanged(self):
        glob = lyapunov_bounds(POS11)
        impr = lyapunov_bounds(POS11, BoundFamily.IMPROVED)
        for norm in (NormKind.L1, NormKind.L2):
            assert impr.per_norm[norm].upper == pytest.approx(
                glob.per_norm[norm].upper, abs=1e-14
            )


class TestClosedFormBounds:
    def test_unit_values(self):
        env = closed_form_bounds(POS11)
        assert env.lower == pytest.approx(kappa() / 4.0, abs=1e-14)
        want_upper = (kappa() + math.log(2.0) + 0.5 * math.log(2.0)) / 4.0
        assert env.upper == pytest.approx(want_upper, abs=1e-14)
        assert env.upper == pytest.approx(0.51385, abs=1e-5)

    def test_lower_substitution(self):
        env = closed_form_bounds(ShearParams.infer(2.0, 2.0))
        assert env.lower == pytest.approx((kappa() + math.log(4.0)) / 4.0, abs=1e-14)

    def test_gap_closes_for_large_product(self):
        env = closed_form_bounds(ShearParams.infer(1000.0, 1000.0))
        assert env.upper - env.lower < 3e-6

    def test_relaxes_linf_lower(self):
        for s in (1.0, 2.0, 5.0, 10.0):
            p = ShearParams.infer(s, s)
            cor = closed_form_bounds(p)
            rep = lyapunov_bounds(p)
            assert cor.lower <= rep.per_norm[NormKind.LINF].lower + 1e-12

    def test_contains_reference_exponent(self):
        env = closed_form_bounds(POS11)
        assert env.lower <= 0.39625 <= env.upper

    def test_rejects_opposed(self):
        with pytest.raises(DomainError):
            closed_form_bounds(OPP33)


class TestEnvelopeSanity:
    @pytest.mark.parametrize("family", [BoundFamily.GLOBAL, BoundFamily.IMPROVED])
    def test_positive_grid(self, family):
        for s in range(1, 11):
            rep = lyapunov_bounds(ShearParams.infer(float(s), float(s)), family)
            assert rep.envelope.lower <= rep.envelope.upper

    @pytest.mark.parametrize("family", [BoundFamily.GLOBAL, BoundFamily.IMPROVED])
    def test_opposed_grid(self, family):
        for s in (2.5, 3.0, 4.0, 5.0, 7.0, 10.0):
            rep = lyapunov_bounds(ShearParams.infer(-s, s), family)
            assert rep.envelope.lower <= rep.envelope.upper

    def test_improved_never_looser(self):
        points = [ShearParams.infer(float(s), float(s)) for s in range(1, 11)]
        points += [ShearParams.infer(-s, s) for s in (2.5, 3.0, 5.0, 8.0, 10.0)]
        for p in points:
            glob = lyapunov_bounds(p)
            impr = lyapunov_bounds(p, BoundFamily.IMPROVED)
            assert impr.envelope.lower >= glob.envelope.lower - 1e-12
            assert impr.envelope.upper <= glob.envelope.upper + 1e-12

    def test_opposed_improved_upper_only_linf(self):
        rep = lyapunov_bounds(OPP33, BoundFamily.IMPROVED)
        assert rep.per_norm[NormKind.L1].upper is None
        assert rep.per_norm[NormKind.L2].upper is None
        assert rep.per_norm[NormKind.LINF].upper is not None


class TestAsymptotics:
    def test_large_shear_limit(self):
        p = ShearParams.infer(100.0, 100.0)
        rep = lyapunov_bounds(p)
        target = (kappa() + math.log(1e4)) / 4.0
        assert abs(rep.envelope.lower - target) < 5e-3
        assert abs(rep.envelope.upper - target) < 5e-3


EXACT_ARGS = {
    1: (5, 7),
    2: (45, 79),
    3: (797, 1543),
    4: (25437, 50575),
    5: (1290365, 2578567),
}


class TestExactIntegerMoments:
    @pytest.mark.parametrize("q", sorted(EXACT_ARGS))
    def test_log_arguments(self, q):
        res = gle_exact_integer(q, POS11)
        lo, hi = EXACT_ARGS[q]
        assert res.lower_arg == lo
        assert res.upper_arg == hi
        assert res.lower == pytest.approx(math.log(lo) / 4.0, abs=1e-15)
        assert res.upper == pytest.approx(math.log(hi) / 4.0, abs=1e-15)

    @pytest.mark.parametrize("q", sorted(EXACT_ARGS))
    def test_direct_series_oracle(self, q):
        # independent check: raw truncated double sums of the two integrands, both
        # at most ((1 + a)(1 + b))^q, whose tail the engine bounds at (1, 1)
        cfg = SeriesConfig()
        tail = engine._tail_bound(POS11, q, 128)
        lower = expect_block(lambda a, b: (1.0 + a * b) ** q, cfg, tail)
        upper = expect_block(lambda a, b: (1.0 + a + a * b) ** q, cfg, tail)
        assert lower == pytest.approx(EXACT_ARGS[q][0], rel=1e-11)
        assert upper == pytest.approx(EXACT_ARGS[q][1], rel=1e-11)

    def test_general_alpha_beta_q1(self):
        for ab in (2.0, 6.0, 12.0):
            res = gle_exact_integer(1, ShearParams.infer(ab / 2.0, 2.0))
            assert res.lower_arg == pytest.approx(1.0 + 4.0 * ab, abs=1e-12)
            assert res.upper_arg == pytest.approx(3.0 + 4.0 * ab, abs=1e-12)

    def test_matches_series_path(self):
        for q in range(1, 6):
            res = gle_exact_integer(q, POS11)
            rep = gle_bounds_report(float(q), POS11)
            assert rep.per_norm[NormKind.LINF].lower == pytest.approx(res.lower, abs=1e-9)
            assert rep.per_norm[NormKind.LINF].upper == pytest.approx(res.upper, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            gle_exact_integer(0, POS11)
        with pytest.raises(DomainError):
            gle_exact_integer(7, POS11)
        with pytest.raises(DomainError):
            gle_exact_integer(2.0, POS11)  # type: ignore[arg-type]
        with pytest.raises(DomainError):
            gle_exact_integer(2, OPP33)


class TestEntropy:
    def test_unit(self):
        env = entropy_bounds(POS11)
        assert env.lower == pytest.approx(math.log(5.0) / 4.0, abs=1e-15)
        assert env.upper == pytest.approx(math.log(7.0) / 4.0, abs=1e-15)

    def test_substitution(self):
        env = entropy_bounds(ShearParams.infer(2.0, 3.0))
        assert env.lower == pytest.approx(math.log(25.0) / 4.0, abs=1e-15)
        assert env.upper == pytest.approx(math.log(27.0) / 4.0, abs=1e-15)

    def test_grid_matches_gle_linf(self):
        for alpha in (1.0, 2.0, 4.0):
            for beta in (1.0, 3.0, 10.0):
                p = ShearParams.infer(alpha, beta)
                env = entropy_bounds(p)
                rep = gle_bounds_report(1.0, p)
                assert rep.per_norm[NormKind.LINF].lower == pytest.approx(env.lower, abs=1e-9)
                assert rep.per_norm[NormKind.LINF].upper == pytest.approx(env.upper, abs=1e-9)

    def test_rejects_opposed(self):
        with pytest.raises(DomainError):
            entropy_bounds(OPP33)


class TestExtremeShears:
    @pytest.mark.parametrize("fn", [entropy_bounds, closed_form_bounds,
                                    lambda p: gle_exact_integer(3, p)],
                             ids=["entropy", "closed_form", "gle_exact"])
    def test_closed_forms_refuse_overflow(self, fn):
        with pytest.raises(DomainError, match=r"overflow double precision at alpha=1e\+300"):
            fn(ShearParams(1e300, 1e300))

    def test_closed_forms_keep_finite_values(self):
        p = ShearParams(1e154, 1e154)
        with pytest.raises(DomainError, match="entropy bounds overflow"):
            entropy_bounds(p)  # 4 * alpha * beta overflows
        assert closed_form_bounds(p).lower == 177.55296912197574
        assert gle_exact_integer(3, p).upper == 533.5262047506353
        assert entropy_bounds(ShearParams(1e100, 1e100)).lower == 115.47582823998226

    @pytest.mark.parametrize("params,where", [
        (ShearParams(1e200, 1.0), "global positive lower l2"),
        (ShearParams(-3.0, 1e200), "global opposed lower l1"),
    ])
    def test_overflowing_bound_function_is_non_convergence(self, params, where):
        with pytest.raises(NonConvergenceError,
                           match=f"the {where} bound function overflows double precision"):
            lyapunov_bounds(params)

    def test_lost_gamma_is_a_domain_error(self):
        with pytest.raises(DomainError, match="Gamma is lost to rounding"):
            gle_bounds_report(1.0, ShearParams(-2e16, 3.0))


def test_bound_family_is_one_object():
    from shearlyap import growth

    assert shearlyap.BoundFamily is engine.BoundFamily is growth.BoundFamily


class TestGleBounds:
    def test_zero_is_exact(self):
        for p in (POS11, OPP33):
            for family in BoundFamily:
                env = gle_bounds(0.0, p, family)
                assert env.lower == 0.0
                assert env.upper == 0.0

    def test_interval_log_args_q1_q2(self):
        rep1 = gle_bounds_report(1.0, POS11)
        assert rep1.per_norm[NormKind.LINF].lower == pytest.approx(math.log(5) / 4, abs=1e-9)
        assert rep1.per_norm[NormKind.LINF].upper == pytest.approx(math.log(7) / 4, abs=1e-9)
        rep2 = gle_bounds_report(2.0, POS11)
        assert rep2.per_norm[NormKind.LINF].lower == pytest.approx(math.log(45) / 4, abs=1e-9)
        assert rep2.per_norm[NormKind.LINF].upper == pytest.approx(math.log(79) / 4, abs=1e-9)

    @pytest.mark.parametrize("p", [POS11, OPP33], ids=["positive", "opposed"])
    def test_global_ordered_everywhere(self, p):
        for q in (-6.0, -3.0, -1.0, -0.25, 0.5, 1.0, 2.5, 5.0):
            env = gle_bounds(q, p, BoundFamily.GLOBAL)
            assert env.lower <= env.upper + 1e-12

    def test_improved_ordered_where_claimed(self):
        # unit shears: ordered across the whole tested range
        for q in (-3.0, -1.0, -0.25, 0.5, 1.0, 2.5):
            env = gle_bounds(q, POS11, BoundFamily.IMPROVED)
            assert env.lower <= env.upper + 1e-12
        # opposed: ordered for q >= 0 and mildly negative q
        for q in (-1.0, -0.25, 0.5, 1.0, 2.5):
            env = gle_bounds(q, OPP33, BoundFamily.IMPROVED)
            assert env.lower <= env.upper + 1e-12

    def test_improved_moment_bounds_cross_for_strongly_negative_q(self):
        # the case average conditions on the previous block, whose run
        # lengths also enter the neighbouring factor; for moments that
        # dependence makes the refinement heuristic, and the two improved
        # bounds demonstrably cross here while the global pair stays ordered
        impr = gle_bounds(-3.0, OPP33, BoundFamily.IMPROVED)
        glob = gle_bounds(-3.0, OPP33, BoundFamily.GLOBAL)
        assert impr.lower > impr.upper
        assert glob.lower <= glob.upper
        assert glob.lower <= impr.lower and impr.upper <= glob.upper

    def test_improved_tighter(self):
        for q in (-2.0, -0.5, 0.5, 1.0, 3.0):
            for p in (POS11, OPP33):
                glob = gle_bounds(q, p)
                impr = gle_bounds(q, p, BoundFamily.IMPROVED)
                assert impr.lower >= glob.lower - 1e-12
                assert impr.upper <= glob.upper + 1e-12

    def test_opposed_improved_missing_sides(self):
        rep_pos_q = gle_bounds_report(1.0, OPP33, BoundFamily.IMPROVED)
        assert rep_pos_q.per_norm[NormKind.L1].upper is None
        rep_neg_q = gle_bounds_report(-1.0, OPP33, BoundFamily.IMPROVED)
        assert rep_neg_q.per_norm[NormKind.L1].lower is None
        assert rep_neg_q.per_norm[NormKind.L1].upper is not None

    @pytest.mark.filterwarnings("error")
    def test_overflowing_moment_sums_raise(self):
        # f^200 overflows, and the sum is refused by name: no inf bound comes back,
        # and numpy's overflow warning stays inside the integrand
        with pytest.raises(NonConvergenceError, match=r"series terms are not finite: the lower "
                           r"l1 moment sum at q = 200.0 overflows double precision"):
            gle_bounds_report(200.0, POS11)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q,params", [(-700.0, POS11), (-400.0, OPP33), (-670.0, POS11)],
                             ids=["pos", "opp", "pos-subnormal"])
    def test_underflowing_moment_sums_raise(self, q, params):
        # f^q underflows to 0 at every term: no log of zero, and no -inf bound;
        # at q = -670 the sum is subnormal (5.33e-321) and has lost bits
        with pytest.raises(NonConvergenceError, match="underflows double precision"):
            gle_bounds_report(q, params)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_a_moment_order_that_is_not_finite_is_refused(self, monkeypatch, q):
        # refused by name before any grid is built, not blamed on the arithmetic
        def no_grids(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(engine, "_case_mean", no_grids)
        for call in (gle_bounds_report, gle_bounds):
            with pytest.raises(DomainError, match=rf"^q must be finite, got {q}$"):
                call(q, POS11)


class TestGleCurve:
    def test_through_origin_and_monotone(self):
        curve = gle_curve(-3.0, 3.0, 25, POS11)
        i0 = int(np.argmin(np.abs(curve.q_grid)))
        assert curve.q_grid[i0] == 0.0
        assert curve.lower[i0] == 0.0 and curve.upper[i0] == 0.0
        assert np.all(np.diff(curve.lower) >= -1e-12)
        assert np.all(np.diff(curve.upper) >= -1e-12)
        assert np.all(curve.lower <= curve.upper + 1e-12)

    def test_no_zero_at_minus_two(self):
        env = gle_bounds(-2.0, POS11)
        assert env.lower < 0.0
        assert env.upper < 0.0

    def test_opposed_curve(self):
        curve = gle_curve(-3.0, 3.0, 13, OPP33, BoundFamily.IMPROVED)
        assert np.all(np.isfinite(curve.lower)) and np.all(np.isfinite(curve.upper))
        assert np.all(np.diff(curve.lower) >= -1e-12)
        assert np.all(np.diff(curve.upper) >= -1e-12)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            gle_curve(1.0, -1.0, 5, POS11)
        with pytest.raises(DomainError):
            gle_curve(-1.0, 1.0, 1, POS11)

    @pytest.mark.filterwarnings("error")  # refused before np.linspace warns of -inf
    def test_an_infinite_end_is_refused(self):
        with pytest.raises(DomainError, match=r"^need finite q_min < q_max, got \[-inf, 1.0\]$"):
            gle_curve(-math.inf, 1.0, 3, POS11)


class TestSeriesConfigPlumbing:
    def test_coarse_truncation_still_accurate(self):
        rep = lyapunov_bounds(POS11, cfg=SeriesConfig(max_index=32, tail_tol=1e-8))
        assert abs(rep.per_norm[NormKind.L1].lower - 0.3688682) < 1e-6


class TestCertifiedTail:
    """engine._tail_bound bounds the terms outside grid(2 N) of every integrand
    at a point: what a grid twice as wide adds to the sum stays below it."""

    @pytest.mark.parametrize("params", [POS11, OPP33, ShearParams(7.5, 1.0),
                                        ShearParams(-2.5, 40.0)], ids=str)
    @pytest.mark.parametrize("q", [None, 2.5, -1.5], ids=["log", "q>0", "q<0"])
    def test_the_4n_sum_less_the_2n_sum_is_within_the_bound(self, params, q):
        n = 8
        tail = engine._tail_bound(params, q, 2 * n)
        assert 0.0 < tail < math.inf
        for family in BoundFamily:
            for side in engine.Side:
                for norm in engine.norms_for(family, params.regime, side):
                    f = engine._case_mean(family, norm, side, params, q)
                    wide, narrow = (series.truncated_sum(f, limit) for limit in (4 * n, 2 * n))
                    assert abs(wide - narrow) <= tail

    def test_the_bound_at_the_default_truncation(self):
        # at (1, 1) and 2 N = 128: the log, q = 60 (refused by the CLI) and q <= 0
        assert engine._tail_bound(POS11, None, 128) == pytest.approx(3.46e-38, rel=1e-2)
        assert engine._tail_bound(POS11, 60.0, 128) == pytest.approx(7.92e180, rel=1e-2)
        assert engine._tail_bound(POS11, -3.0, 128) == engine._tail_bound(OPP33, 0.0, 128) \
            == series._padded(2.0**-127)

    @pytest.mark.parametrize("limit", [2, 16, 128])
    def test_the_weights_outside_the_grid_sum_below_the_q_le_0_bound(self, limit):
        # outside grid(L) the weights 2^-(a+b) sum to exactly 1 - (1 - 2^-L)^2
        outside = 1 - (1 - Fraction(1, 2**limit)) ** 2
        assert outside < Fraction(engine._tail_bound(OPP33, -0.5, limit))

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 40.0])
    @pytest.mark.parametrize("q", [None, 2.5, 8.0], ids=["log", "q=2.5", "q=8"])
    def test_log_sums_bound_the_series_and_its_tail_closely(self, x, q):
        # S and T against their terms summed directly out to a = 2000, where
        # every further term is below 2^-1900 of the sum
        limit = 16
        a = np.arange(1.0, 2001.0)
        g = np.log1p(a * x) if q is None else (1.0 + a * x) ** q
        terms = np.exp2(-a) * g
        exact = (math.fsum(terms.tolist()), math.fsum(terms[limit:].tolist()))
        for log_sum, direct in zip(engine._log_sums(x, q, limit), exact):
            assert direct <= math.exp(log_sum) * (1.0 + 1e-12)
            assert math.exp(log_sum) <= direct * (1.0 + 1e-9)

    def test_a_failed_ratio_test_bounds_nothing(self):
        # at a = 81 the terms of 2^-a (1 + a)^200 still grow: the sums are inf
        assert engine._log_sums(1.0, 200.0, 16) == (math.inf, math.inf)
        assert engine._tail_bound(POS11, 200.0, 16) == math.inf


def _pointwise_case_mean(ff, norm, side, params, q=None):
    """The integrand as built before the grid cache: every case's bound
    function evaluated afresh on each block, raised to q, averaged."""
    fns = [engine.evaluator(ff, norm, side, c, params)
           for c in engine.cases_for(ff, params.regime)]
    n = len(fns)
    if q is None:
        def f(a, b):
            total = fns[0](a, b)
            for fn in fns[1:]:
                total = total + fn(a, b)
            return np.log(total / n)
    else:
        def f(a, b):
            total = fns[0](a, b) ** q
            for fn in fns[1:]:
                total = total + fn(a, b) ** q
            return total / n
    return f


def _outcomes(params, family, cfg):
    """repr of each report (exact floats) or the error raised, for the
    Lyapunov bounds and the moment bounds at a few q."""
    out = []
    for call in [lambda: lyapunov_bounds(params, family, cfg)] + [
            lambda q=q: gle_bounds_report(q, params, family, cfg) for q in (-2.5, -1.0, 0.5, 3.0)]:
        try:
            out.append(repr(call()))
        except NonConvergenceError as exc:
            out.append(f"NonConvergenceError: {exc}")
    return out


class TestGridCache:
    @pytest.mark.parametrize("max_index", [8, 40, 64, 96])
    @pytest.mark.parametrize("params", [
        ShearParams.infer(2.0, 3.0), OPP33, ShearParams(1e30, 1e30), ShearParams(1e75, 1e75),
        ShearParams(1e150, 1.0), ShearParams(-1e15, 3.0),
    ], ids=["pos", "opp", "pos-1e30", "pos-1e75", "pos-1e150", "opp-1e15"])
    @pytest.mark.parametrize("family", list(BoundFamily))
    @pytest.mark.filterwarnings("error")
    def test_bit_identical_to_pointwise_integrand(self, monkeypatch, max_index, params, family):
        # at huge shears bound functions overflow past the corner the bounds read
        cfg = SeriesConfig(max_index=max_index)
        cached = _outcomes(params, family, cfg)
        monkeypatch.setattr(engine, "_case_mean", _pointwise_case_mean)
        with np.errstate(over="ignore", invalid="ignore"):
            pointwise = _outcomes(params, family, cfg)
        for mine, theirs in zip(cached, pointwise):
            if mine != theirs:
                # both refuse a Lyapunov or q > 0 sum whose bound function, or
                # whose q-th power, overflows; only the grids know which
                # function or sum that is
                assert re.fullmatch(r"NonConvergenceError: series terms are not finite: the "
                                    r"(\w+ \w+ \w+ \w+ bound function overflows double "
                                    r"precision at alpha=\S+, beta=\S+|\w+ \w+ moment sum at "
                                    r"q = \S+ overflows double precision; a larger max_index "
                                    r"cannot help)", mine)
                assert theirs.startswith("NonConvergenceError: series sum is not finite")
        # the moment sums of _outcomes: q = -2.5, -1.0, 0.5, 3.0
        assert cached[1:3] == pointwise[1:3]

    @pytest.mark.parametrize("max_index", [8, 64])
    @pytest.mark.parametrize("params", [ShearParams.infer(2.0, 3.0), OPP33], ids=["pos", "opp"])
    @pytest.mark.parametrize("family", list(BoundFamily))
    def test_integrand_terms_bit_identical(self, max_index, params, family):
        # the values on the whole grid, at both truncations
        for side in engine.Side:
            for norm in engine.norms_for(family, params.regime, side):
                for q in (None, -2.5, -1.0, 0.5, 3.0):
                    cached = engine._case_mean(family, norm, side, params, q)
                    pointwise = _pointwise_case_mean(family, norm, side, params, q)
                    for limit in (max_index, 2 * max_index):
                        aa, bb, _ = series.grid(limit)
                        table, want = cached(aa, bb), pointwise(aa, bb)
                        # every leading run the series layer may ask for
                        for m in series.antidiagonal_starts(limit)[::7]:
                            assert np.array_equal(table.head(m), want[:m])
                        assert np.array_equal(table.head(aa.size), want)

    @pytest.mark.parametrize("params,misses", [(POS11, 12), (OPP33, 20)], ids=["pos", "opp"])
    def test_one_miss_per_grid_of_a_point(self, params, misses):
        # a both-family q-sweep tabulates each distinct bound function once
        engine._bound_grid.cache_clear()
        for q in (-1.0, 0.5, 2.0):
            for family in BoundFamily:
                gle_bounds_report(q, params, family)
        for family in BoundFamily:
            lyapunov_bounds(params, family)
        info = engine._bound_grid.cache_info()
        assert (info.misses, info.currsize) == (misses, misses)
        assert info.maxsize == engine._GRID_CACHE_SIZE == 20

    def test_holds_at_most_its_size(self):
        engine._bound_grid.cache_clear()
        for a in (1.0, 2.0):
            lyapunov_bounds(ShearParams.infer(a, a), BoundFamily.IMPROVED)
            lyapunov_bounds(ShearParams.infer(-a - 2.0, a + 2.0), BoundFamily.IMPROVED)
            assert engine._bound_grid.cache_info().currsize <= engine._GRID_CACHE_SIZE
        assert engine._bound_grid.cache_info().misses == 2 * (12 + 15)

    @pytest.mark.parametrize("params", [POS11, OPP33], ids=["pos", "opp"])
    def test_grids_are_read_only_evaluator_output(self, params):
        engine._bound_grid.cache_clear()
        lyapunov_bounds(params, BoundFamily.IMPROVED, SeriesConfig(max_index=64))
        aa, bb, _ = series.grid(128)
        ff = BoundFamily.IMPROVED
        runs = {}
        for side in engine.Side:
            for norm in engine.norms_for(ff, params.regime, side):
                for case in engine.cases_for(ff, params.regime):
                    fc = engine.function_case(params.regime, norm, side, case)
                    grid = engine._bound_grid(norm, side, fc, params, 128)
                    # the leading run the sums read, before any grid is extended
                    runs.setdefault(grid, (grid._values.size, norm, side, case))
        for grid, (run, norm, side, case) in runs.items():
            assert 0 < run < aa.size
            fresh = engine.evaluator(ff, norm, side, case, params)(aa, bb)
            for m in (run, aa.size):  # the filled run, then the grid extended past it
                values = grid.head(m)
                assert not values.flags.writeable
                assert np.array_equal(values, fresh[:m])
        # every grid was already cached by the bound computation
        assert engine._bound_grid.cache_info().misses == engine._bound_grid.cache_info().currsize

    def test_each_point_is_evaluated_once(self):
        sizes = []

        def f(a, b):
            sizes.append(a.size)
            return a + 2.0 * b

        grid = engine._BoundGrid(f, 8, "overflow")
        aa, bb, _ = series.grid(8)
        for m in (10, 4, 30, 30, 64):
            assert np.array_equal(grid.head(m), (aa + 2.0 * bb)[:m])
        # the bounds' 2 * 15 + 8 points, then each run past the longest so far
        assert sizes == [38, 10, 20, 34]
        # lo = f(c, l) with c = ceil(n / 2) >= l = max(1, n - 8), hi = f(m, m)
        n = np.arange(2, 17)
        assert np.array_equal(grid.lo, -(-n // 2) + 2 * np.maximum(1, n - 8))
        assert np.array_equal(grid.hi, 3 * np.minimum(n - 1, 8))

    def test_integrand_is_a_function_of_its_grid(self):
        args = (BoundFamily.GLOBAL, NormKind.L1, engine.Side.LOWER, POS11)
        f = engine._case_mean(*args)
        for limit in (16, 17):
            assert series.truncated_sum(f, limit) == series.truncated_sum(
                _pointwise_case_mean(*args), limit)


@st.composite
def bound_cases(draw):
    """A parameter point in either regime, one bound function of it (or a
    family's case mean), a truncation and a moment order (None: the log)."""
    if draw(st.booleans()):
        params = ShearParams.infer(draw(st.floats(1.0, 30.0)), draw(st.floats(1.0, 30.0)))
    else:
        params = ShearParams.infer(draw(st.floats(-30.0, -2.0, exclude_max=True)),
                                   draw(st.floats(2.0, 30.0, exclude_min=True)))
    family = draw(st.sampled_from(list(BoundFamily)))
    side = draw(st.sampled_from(list(engine.Side)))
    norm = draw(st.sampled_from(engine.norms_for(family, params.regime, side)))
    q = draw(st.one_of(st.none(), st.floats(-8.0, 8.0), st.sampled_from([-8.0, 0.0, 8.0])))
    return params, family, side, norm, q, draw(st.sampled_from([8, 16, 64]))


def _antidiagonal_max(values, limit):
    """max |value| on each antidiagonal of series.grid(limit)."""
    return np.maximum.reduceat(np.abs(values), series.antidiagonal_starts(limit)[:-1])


class TestAntidiagonalBounds:
    """The series layer leaves out the antidiagonals whose bound says they cannot
    move the double, so a bound below a computed value would change a result."""

    @settings(deadline=None, max_examples=60)
    @given(bound_cases())
    def test_bound_holds_for_every_case_and_the_case_mean(self, drawn):
        params, family, side, norm, q, n = drawn
        limit = 2 * n
        aa, bb, _ = series.grid(limit)
        with np.errstate(over="ignore", divide="ignore"):
            table = engine._case_mean(family, norm, side, params, q)(aa, bb)
            assert np.all(_antidiagonal_max(table.head(aa.size), limit) <= table.bound)
            for case in engine.cases_for(family, params.regime):
                fc = engine.function_case(params.regime, norm, side, case)
                grid = engine._bound_grid(norm, side, fc, params, limit)
                values = grid.head(aa.size)
                values = np.log(values) if q is None else values ** q
                assert np.all(_antidiagonal_max(values, limit) <= engine._mean_bound([grid], q))

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(
            lambda e: ShearParams(10.0 ** e[0], 10.0 ** e[1])),
        st.tuples(st.floats(math.log10(2.01), 4.0), st.floats(math.log10(2.01), 4.0)).map(
            lambda e: ShearParams(-(10.0 ** e[0]), 10.0 ** e[1]))))
    def test_bound_functions_are_nondecreasing_and_bracketed(self, params):
        # the premise of the three-point bounds, for every function of the table;
        # 2^-40 lies far inside the bounds' 2^-20 slack
        k = np.arange(1.0, 65.0)
        a, b = np.meshgrid(k, k, indexing="ij")
        aa, bb, _ = series.grid(64)
        starts = series.antidiagonal_starts(64)[:-1]
        for (regime, norm, side), (_, own) in growth._TABLE.items():
            if regime is not params.regime:
                continue
            for case in [()] + list(own or ()):
                family = BoundFamily.IMPROVED if case else BoundFamily.GLOBAL
                fn = engine.evaluator(family, norm, side, case, params)
                values = fn(a, b)
                assert np.all(values > 0.0)
                assert np.all(values[1:, :] >= values[:-1, :] * (1.0 - 2.0**-40))
                assert np.all(values[:, 1:] >= values[:, :-1] * (1.0 - 2.0**-40))
                # the whole-grid reductions the three points replace
                grid, values = engine._BoundGrid(fn, 64, "overflow"), fn(aa, bb)
                assert grid.overflow is None
                assert np.all(grid.lo <= np.minimum.reduceat(values, starts) * (1.0 + 2.0**-40))
                assert np.all(grid.hi * (1.0 + 2.0**-40) >= np.maximum.reduceat(values, starts))

    @pytest.mark.parametrize("bad", [-0.5, 0.0, math.inf, math.nan])
    # points the bounds read: (c, l) and (l, c) of antidiagonals 5 and 6, (m, m) of 7 and of 9..16
    @pytest.mark.parametrize("point", [(3.0, 1.0), (1.0, 3.0), (6.0, 6.0), (8.0, 8.0)])
    @pytest.mark.parametrize("q", [None, -3.0, 2.5])  # q = 0 gives ones, bounded by 1
    def test_a_value_that_is_not_positive_leaves_no_bound(self, q, point, bad):
        def f(a, b):
            return np.where((a == point[0]) & (b == point[1]), bad, 1.0)

        grid = engine._BoundGrid(f, 8, "overflow")
        with np.errstate(invalid="ignore"):
            bound = engine._mean_bound([grid], q)
        assert bound.shape == (15,) and np.all(bound == math.inf)
        assert grid.overflow == (None if bad <= 0.0 else "overflow")

    def test_log_bound_covers_the_rounding_of_a_three_case_mean(self, monkeypatch):
        # (x + x + x) / 3 is one double below x = 1 - 2^-52, so the log of the
        # mean is half as large again as log x: only the absolute slack covers it
        x = 1.0 - 2.0**-52
        assert (x + x + x) / 3 < x
        aa, bb, _ = series.grid(8)
        monkeypatch.setattr(engine, "_bound_grid", lambda *args: engine._BoundGrid(
            lambda a, b: np.full(a.shape, x), 8, "overflow"))
        table = engine._case_mean(BoundFamily.IMPROVED, NormKind.LINF, engine.Side.LOWER,
                                  POS11)(aa, bb)
        assert np.all(_antidiagonal_max(table.head(aa.size), 8) <= table.bound)
