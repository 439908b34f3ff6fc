import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from shearlyap import series
from shearlyap import (
    DomainError,
    NonConvergenceError,
    SeriesConfig,
    ShearParams,
    expect_block,
    expect_block_exact_poly,
    expect_block_report,
    kappa,
    lyapunov_bounds,
    polylog_half,
    truncated_sum,
)
from shearlyap.cli import main

KNOWN_POLYLOG = [1, 2, 6, 26, 150, 1082, 9366]


class TestPolylog:
    def test_table(self):
        for n, want in enumerate(KNOWN_POLYLOG):
            assert polylog_half(n) == want

    @pytest.mark.parametrize("n", range(7))
    def test_matches_direct_summation(self, n):
        direct = math.fsum(2.0**-a * a**n for a in range(1, 10_001))
        assert abs(polylog_half(n) - direct) <= 1e-9 * polylog_half(n)

    def test_high_order_matches_direct(self):
        direct = math.fsum(2.0**-a * a**12 for a in range(1, 2000))
        assert abs(polylog_half(12) - direct) <= 1e-9 * polylog_half(12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            polylog_half(13)
        with pytest.raises(DomainError):
            polylog_half(-1)


class TestKappa:
    def test_four_decimals(self):
        assert round(kappa(), 4) == 1.0157

    def test_single_axis_consistency(self):
        direct = 2.0 * math.fsum(2.0**-a * math.log(a) for a in range(1, 200))
        assert kappa() == pytest.approx(direct, abs=1e-12)

    def test_double_sum_consistency(self):
        # log(a b) = log a + log b, each summed against the other's weights
        tail = _outside(np.log, np.ones_like, 128) + _outside(np.ones_like, np.log, 128)
        via_blocks = expect_block(lambda a, b: np.log(a * b), SeriesConfig(tail_tol=1e-10), tail)
        assert abs(kappa() - via_blocks) < 1e-9


def _outside(g, h, limit):
    """sum 2^-(a+b) g(a) h(b) over the points outside grid(limit), for g, h >= 0
    of at most polynomial growth: T_g S_h + S_g T_h, with S the sum over a >= 1
    and T its part over a > limit; terms past a = limit + 200 cannot move it."""
    a = np.arange(1.0, limit + 200)
    wg, wh = np.exp2(-a) * g(a), np.exp2(-a) * h(a)
    return wg[limit:].sum() * wh.sum() + wg.sum() * wh[limit:].sum()


DEFAULT = SeriesConfig()
ONES_TAIL = _outside(np.ones_like, np.ones_like, 128)


class TestExpectBlock:
    def test_constant(self):
        assert expect_block(lambda a, b: np.ones_like(a), DEFAULT, ONES_TAIL) == \
            pytest.approx(1.0, abs=1e-15)

    def test_product(self):
        tail = _outside(lambda a: a, lambda b: b, 128)
        assert expect_block(lambda a, b: a * b, DEFAULT, tail) == pytest.approx(4.0, abs=1e-12)

    def test_report_fields(self):
        tail = _outside(lambda a: a, lambda b: b, 128)
        rep = expect_block_report(lambda a, b: a * b, DEFAULT, tail)
        assert rep.truncation == 128
        assert rep.tail_bound == tail < 1e-12
        assert rep.value == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("value", [lambda a, b: a * b, lambda a, b: 1.0],
                             ids=["grid", "scalar"])
    def test_integrand_is_called_once_on_the_doubled_grid(self, value, monkeypatch):
        shapes, sums = [], []

        def f(a, b):
            shapes.append(a.shape)
            return value(a, b)

        summed = series.truncated_sum
        monkeypatch.setattr(series, "truncated_sum", lambda f, limit: sums.append(limit)
                            or summed(f, limit))
        rep = expect_block_report(f, SeriesConfig(max_index=8, tail_tol=1.0), 0.5)
        assert shapes == [(256,)] and sums == [16]
        assert rep.value == summed(value, 16)
        assert rep.tail_bound == 0.5

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_a_tail_bound_above_the_allowance_is_refused(self, tol):
        # the allowance is tail_tol, or tail_tol times |sum| where that is larger
        cfg = SeriesConfig(max_index=8, tail_tol=tol)
        f = lambda a, b: -3.0 * a * b
        s = truncated_sum(f, 16)
        allowance = max(tol, tol * abs(s))
        assert expect_block_report(f, cfg, allowance).tail_bound == allowance
        for tail in (math.nextafter(allowance, math.inf), math.inf, math.nan):
            message = (f"series tail bound {tail:.3e} exceeds tolerance {allowance:.3e} "
                       f"at truncation 8 (sum ~ {s:.6g}); increase max_index")
            with pytest.raises(NonConvergenceError, match=f"^{re.escape(message)}$"):
                expect_block(f, cfg, tail)

    def test_matches_exact_poly(self):
        for i in range(5):
            for j in range(5):
                tail = _outside(lambda a, i=i: a**i, lambda b, j=j: b**j, 128)
                series = expect_block(lambda a, b, i=i, j=j: a**i * b**j, DEFAULT, tail)
                exact = expect_block_exact_poly({(i, j): 1})
                assert abs(series - exact) <= 1e-10 * max(1.0, exact)

    def test_truncation_monotone(self):
        f = lambda a, b: np.log1p(a * b)
        sums = [truncated_sum(f, limit) for limit in (8, 12, 16, 24, 32, 64)]
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))

    @pytest.mark.parametrize("limit", [8, 12, 16, 24, 40, 64, 128])
    def test_truncated_sum_matches_whole_grid_reference(self, limit):
        # the whole grid summed in diagonal order, as one vectorized call
        def reference(f):
            idx = np.arange(1, limit + 1, dtype=np.float64)
            aa, bb = np.meshgrid(idx, idx, indexing="ij")
            terms = np.exp2(-(aa + bb)) * f(aa, bb)
            order = np.argsort((aa + bb).ravel(), kind="stable")
            return math.fsum(terms.ravel()[order].tolist())

        for f in (lambda a, b: np.log1p(a * b),
                  lambda a, b: np.sqrt((1.0 + a * b) ** 2 + b * b) ** -1.7,
                  lambda a, b: (1.0 + a + 2.5 * a * b) ** 3.2):
            assert truncated_sum(f, limit) == reference(f)

    def test_truncated_sum_matches_whole_grid_reference_at_limit_1024(self):
        # 2^20 terms, some below 2^-900 and many that underflow to zero
        limit = 1024
        idx = np.arange(1, limit + 1, dtype=np.float64)
        aa, bb = np.meshgrid(idx, idx, indexing="ij")
        f = lambda a, b: np.sqrt((1.0 + a * b) ** 2 + b * b) ** -1.7
        terms = np.exp2(-(aa + bb)) * f(aa, bb)
        order = np.argsort((aa + bb).ravel(), kind="stable")
        assert truncated_sum(f, limit) == math.fsum(terms.ravel()[order].tolist())

    def test_nonconvergence_flag(self):
        # log(1 + a b) <= log(1 + a) + log(1 + b): outside grid(16) about 1.2e-4
        cfg = SeriesConfig(max_index=8, tail_tol=1e-12)
        tail = _outside(np.log1p, np.ones_like, 16) + _outside(np.ones_like, np.log1p, 16)
        with pytest.raises(NonConvergenceError, match="increase max_index"):
            expect_block(lambda a, b: np.log1p(a * b), cfg, tail)

    @pytest.mark.parametrize("f", [lambda a, b: np.full_like(a, np.inf),
                                   lambda a, b: np.exp(a * b),
                                   lambda a, b: np.where(a > 100, np.inf, 1.0),
                                   lambda a, b: np.full_like(a, np.nan)])
    def test_non_finite_sum_does_not_converge(self, f):
        with np.errstate(over="ignore"):
            with pytest.raises(NonConvergenceError, match=r"series sum is not finite \((inf|nan)\): "
                               r"its terms overflow .* a larger max_index cannot help$"):
                expect_block(f, DEFAULT, ONES_TAIL)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SeriesConfig(max_index=4)
        assert SeriesConfig(max_index=1024).max_index == 1024
        with pytest.raises(DomainError, match="max_index must be in 8..1024, got 1025"):
            SeriesConfig(max_index=1025)  # refused before any grid is built
        with pytest.raises(DomainError):
            SeriesConfig(tail_tol=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("max_index", 64.0, "max_index must be an integer, got 64.0"),
        ("max_index", "64", "max_index must be an integer, got '64'"),
        ("tail_tol", math.inf, "tail_tol must be finite and positive, got inf"),
        ("tail_tol", math.nan, "tail_tol must be finite and positive, got nan"),
        ("tail_tol", -1e-12, "tail_tol must be finite and positive, got -1e-12"),
    ], ids=["float-index", "str-index", "inf-tol", "nan-tol", "negative-tol"])
    def test_config_fields_are_checked(self, field, value, message):
        p = ShearParams(1.0, 1.0)
        with pytest.raises(DomainError, match=f"^{message}$"):
            lyapunov_bounds(p, cfg=SeriesConfig(**{field: value}))
        # nothing refused reaches the grid caches, and a numpy integer is
        # stored as the int it equals, so it gives the same doubles
        cfg = SeriesConfig(max_index=np.int64(64))
        assert type(cfg.max_index) is int and cfg == SeriesConfig(max_index=64)
        got, want = (lyapunov_bounds(p, cfg=c) for c in (cfg, SeriesConfig(max_index=64)))
        assert [(b.lower.hex(), b.upper.hex()) for b in got.per_norm.values()] == \
            [(b.lower.hex(), b.upper.hex()) for b in want.per_norm.values()]


class TestExactPoly:
    def test_mean_product(self):
        assert expect_block_exact_poly({(1, 1): 1}) == 4

    def test_square_of_one_plus_ab(self):
        # (1 + ab)^2 = 1 + 2ab + a^2 b^2
        got = expect_block_exact_poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
        assert got == 45

    def test_square_of_one_plus_a_plus_ab(self):
        # (1 + a + ab)^2 = 1 + 2a + 2ab + a^2 + 2 a^2 b + a^2 b^2
        got = expect_block_exact_poly(
            {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1, (2, 1): 2, (2, 2): 1}
        )
        assert got == 79

    def test_exact_integer_type(self):
        assert isinstance(expect_block_exact_poly({(3, 2): 5}), int)

    def test_float_coefficients(self):
        got = expect_block_exact_poly({(1, 1): 0.5})
        assert got == pytest.approx(2.0, abs=1e-15)

    def test_exponent_guard(self):
        with pytest.raises(DomainError):
            expect_block_exact_poly({(13, 0): 1})


def _outcome(fn):
    """The exact bits of fn()'s value (float.hex tells -0.0 from 0.0), or its exception type."""
    try:
        return fn().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _matches_fsum(x):
    return _outcome(lambda: series._exact_sum(x)) == _outcome(lambda: math.fsum(x.ravel().tolist()))


@st.composite
def float_arrays(draw):
    """Finite float64 arrays of mixed sign: random significands with exponents
    in a drawn window of about -1130..900 (so zeros and subnormals too), with
    a few hand-picked values and optionally an exactly cancelling tail."""
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1130, 900))
    hi = draw(st.integers(lo, 900))
    mant = rng.integers(-(2**53) + 1, 2**53, n).astype(np.float64)
    x = np.ldexp(mant, rng.integers(lo, hi + 1, n) - 53)
    x[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    extra = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -2.0**-1022, 2.0**-901,
                                           -(2.0**900), 1.0, -1.0]), max_size=8))
    x = np.concatenate([x, extra])
    if draw(st.booleans()):
        x = np.concatenate([x, -x[:draw(st.integers(0, x.size))]])
    return x


class TestExactSum:
    @settings(deadline=None)
    @given(float_arrays())
    def test_equals_fsum_of_the_list(self, x):
        assert _matches_fsum(x)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_equals_fsum_on_any_finite_floats(self, values):
        assert _matches_fsum(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("size,extracted", [(999, True), (1000, True), (1001, False)])
    def test_term_cap(self, monkeypatch, seed, size, extracted):
        # a cap of 1000 terms gives M = 10; a term more goes to math.fsum
        monkeypatch.setattr(series, "_SUM_MAX_TERMS", 1000)
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal(size) * np.exp2(rng.integers(-950, 890, size))
        full = np.where(rng.random(size) < 0.3, -1.0, 1.0) * (1.0 - 2.0**-53)
        for x in (wide, full):
            assert (series._extracted_sum(x) is not None) == extracted
            assert _matches_fsum(x)

    def test_grid_shapes_and_exact_bins(self):
        # 16 384 equal terms at limit 128, then mixed signs
        x = np.full((128, 128), 1.0 - 2.0**-53)
        assert _matches_fsum(x)
        x[::2, ::3] *= -3.0
        assert _matches_fsum(x)

    @pytest.mark.parametrize("values", [
        [1.0, math.inf, 2.0],
        [-math.inf, 1.0],
        [1.0, math.nan],
        [math.inf, math.nan],
    ])
    @pytest.mark.filterwarnings("error")  # no numpy warning on the way to math.fsum
    def test_non_finite_terms_give_fsums_value(self, values):
        assert _matches_fsum(np.array(values))

    @pytest.mark.filterwarnings("error")
    def test_inf_minus_inf_raises_value_error(self):
        with pytest.raises(ValueError):
            series._exact_sum(np.array([math.inf, 1.0, -math.inf]))

    def test_intermediate_overflow_raises_overflow_error(self):
        with pytest.raises(OverflowError):
            series._exact_sum(np.array([1e308, 1e308, -1e308]))

    @pytest.mark.parametrize("values", [[-0.0] * 5, [], [0.0, -0.0], [2.0**-1074, -(2.0**-1074)],
                                        [3.5, -3.5]])
    def test_zero_sums_keep_fsums_sign(self, values):
        assert _matches_fsum(np.array(values, dtype=np.float64))


@st.composite
def series_terms(draw):
    """Integrand grids as the engine sums them: series.grid weights times f^q or
    log f for a growth-like f >= 1, with signs that are mixed in a drawn way."""
    limit = draw(st.sampled_from([8, 16, 40, 64, 128]))
    aa, bb, weights = series.grid(limit)
    c = draw(st.floats(1.0, 50.0))
    f = (np.sqrt((1.0 + c * c * aa * bb) ** 2 + (c * bb) ** 2) if draw(st.booleans())
         else 1.0 + c * aa + c * c * aa * bb)
    g = f ** draw(st.floats(-3.0, 3.0)) if draw(st.booleans()) else np.log(f)
    signs = draw(st.sampled_from(["none", "checker", "random", "shift"]))
    if signs == "checker":
        g = np.where((aa + bb) % 2 == 0, g, -g)
    elif signs == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = np.where(rng.random(g.shape) < 0.5, g, -g)
    elif signs == "shift":  # a constant inside the range of g: the sum may nearly cancel
        g = g - np.quantile(g, draw(st.floats(0.0, 1.0)))
    return weights * g


def _tie_after_two_passes(sign, unit):
    """14 terms: 1, 2^-53, -10 unit and 11 terms just under unit.  The sum
    lies about unit above the midpoint 1 + 2^-53, so fsum rounds it up to
    1 + 2^-52.  14 terms give M = 4, and with mu = 1 the remainder bound
    after two passes is b = 2^-93: two passes decide the sum only for a
    unit above b, and a third pass, whose bound is 2^-49 b, the rest."""
    x = [1.0, 2.0**-53, -10 * unit] + [unit * (1.0 - 2.0**-53)] * 11
    return sign * np.array(x)


def _count_certificates(monkeypatch):
    """A list that gets one entry per series._certified call from now on:
    one for a sum decided in two passes, two for one that took three."""
    certificates = []
    certified = series._certified

    def counting_certified(*args):
        certificates.append(args)
        return certified(*args)

    monkeypatch.setattr(series, "_certified", counting_certified)
    return certificates


class TestExtractedSum:
    @settings(deadline=None)
    @given(series_terms())
    def test_equals_fsum_on_series_terms(self, terms):
        got = series._extracted_sum(terms.ravel())
        assert got is None or got.hex() == math.fsum(terms.ravel().tolist()).hex()
        assert _matches_fsum(terms)

    @pytest.mark.parametrize("tiny", [2.0**-200, -(2.0**-200)])
    def test_midpoint_is_declined(self, tiny):
        # 1 + 2^-53 is a midpoint between doubles, and tiny decides the rounding
        # below every remainder bound of three passes
        for x in ([1.0, 2.0**-53, tiny], [tiny, 2.0**-53, 1.0] + [0.0] * 20):
            x = np.array(x)
            assert series._extracted_sum(x) is None
            assert _matches_fsum(x)
            assert series._exact_sum(x) == (1.0 + 2.0**-52 if tiny > 0 else 1.0)

    @pytest.mark.parametrize("order", ["built", "reversed"])  # the 1 first or last
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("e", range(90, 101))
    def test_tie_within_b_is_decided_on_the_third_pass(self, sign, e, order, monkeypatch):
        certificates = _count_certificates(monkeypatch)
        x = _tie_after_two_passes(sign, 2.0**-e)
        if order == "reversed":
            x = np.ascontiguousarray(x[::-1])
        assert math.fsum(x.tolist()) == sign * (1.0 + 2.0**-52)
        assert series._extracted_sum(x) == sign * (1.0 + 2.0**-52)
        assert len(certificates) == (1 if 2.0**-e > 2.0**-93 else 2)

    def test_third_pass_on_a_256_grid(self, monkeypatch):
        # 65 536 terms: two passes leave this sum within b of a midpoint
        certificates = _count_certificates(monkeypatch)
        idx = np.arange(1, 257, dtype=np.float64)
        aa, bb = np.meshgrid(idx, idx, indexing="ij")
        x = np.exp2(-(aa + bb)) * np.sqrt((1.0 + aa * bb) ** 2 + bb * bb) ** -1.7
        assert series._extracted_sum(x.ravel()) == math.fsum(x.ravel().tolist())
        assert len(certificates) == 2

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0] * 3, [3.5, -3.5], [2.0**-880, -(2.0**-882)]])
    def test_zero_or_tiny_sums_are_declined(self, values):
        # a zero sum's sign is fsum's; below 2^-900 the remainder bound would be subnormal
        x = np.array(values)
        assert series._extracted_sum(x) is None
        assert _matches_fsum(x)

    @pytest.mark.parametrize("values", [[2.0**998, 1.0], [math.inf, 1.0], [math.nan], []])
    def test_huge_or_non_finite_terms_are_declined(self, values):
        assert series._extracted_sum(np.array(values, dtype=np.float64)) is None

    def test_figure_sweeps_decide_on_leading_runs(self, monkeypatch):
        # a leading run that does not decide its sum, a whole-grid extraction
        # that declines, or a third pass where two decide would still be
        # correct, only slow
        counts = dict.fromkeys(["runs", "runs_undecided", "retries", "retries_undecided",
                                "grids", "grids_undecided", "passes", "reports", "sums"], 0)
        extracted_sum, report = series._extracted_sum, series.expect_block_report
        summed = series.truncated_sum
        certificates = _count_certificates(monkeypatch)
        prefix_sum, runs_tried = series._prefix_sum, []

        def counting_extracted_sum(flat, tail=0.0):
            before = len(certificates)
            decided = extracted_sum(flat, tail)
            # a leading run's tail bound is positive, and a second run in one
            # _prefix_sum is a retry
            if tail > 0.0:
                kind = "retries" if runs_tried else "runs"
                runs_tried.append(flat.size)
            else:
                kind = "grids"
            counts[kind] += 1
            counts[kind + "_undecided"] += decided is None
            counts["passes"] += len(certificates) - before
            return decided

        def counting_prefix_sum(table, limit):
            runs_tried.clear()
            return prefix_sum(table, limit)

        def counting_report(*args):
            counts["reports"] += 1
            return report(*args)

        def counting_truncated_sum(f, limit):
            counts["sums"] += 1
            return summed(f, limit)

        monkeypatch.setattr(series, "_extracted_sum", counting_extracted_sum)
        monkeypatch.setattr(series, "_prefix_sum", counting_prefix_sum)
        monkeypatch.setattr(series, "expect_block_report", counting_report)
        monkeypatch.setattr(series, "truncated_sum", counting_truncated_sum)
        runner = CliRunner()
        for argv in (["--mode", "gle", "--alpha", "1", "--beta", "1", "--q", "-3:3:0.1"],
                     ["--mode", "lyap-bounds", "--alpha", "1:10:0.25"]):
            result = runner.invoke(main, ["sweep", *argv, "--format", "csv"])
            assert result.exit_code == 0, result.output
        assert counts["runs"] > 0 and counts["runs_undecided"] <= counts["runs"] // 100, counts
        # an undecided run is retried at most once, on a longer run; every run
        # still undecided after that falls to the whole grid
        assert counts["retries"] <= counts["runs_undecided"], counts
        retried = counts["retries"] - counts["retries_undecided"]  # decided on the retry
        assert counts["grids"] == counts["runs_undecided"] - retried, counts
        assert counts["grids_undecided"] == 0
        # each report sums its integrand once, on grid(2 N)
        assert counts["sums"] == counts["reports"] > 0
        third_passes = counts["passes"] - counts["runs"] - counts["retries"] - counts["grids"]
        assert 0 <= third_passes <= counts["runs"] // 100, (counts, third_passes)


def _lazy(values, bound, asked=None):
    """A LazyTable of the flat values on a grid, with the given bound per
    antidiagonal; asked, a list, records every run length requested."""
    def head(m):
        if asked is not None:
            asked.append(m)
        return values[:m]
    return series.LazyTable(head, np.asarray(bound, dtype=np.float64))


def _antidiagonal_max(values, limit):
    return np.maximum.reduceat(np.abs(values), series.antidiagonal_starts(limit)[:-1])


def _fsum_of_grid(values, limit):
    """math.fsum of every weighted term of grid(limit), as a hex string."""
    return math.fsum((series.grid(limit)[2] * values).tolist()).hex()


@st.composite
def lazy_integrands(draw):
    """Integrand values on a flat grid as the engine forms them (f^q or log f
    of a growth-like f), signs mixed in a drawn way, and their exact
    per-antidiagonal maximum magnitude as the bound."""
    limit = draw(st.sampled_from([8, 16, 40, 64, 128]))
    a, b, _ = series.grid(limit)
    c = draw(st.floats(1.0, 50.0))
    f = (np.sqrt((1.0 + c * c * a * b) ** 2 + (c * b) ** 2) if draw(st.booleans())
         else 1.0 + c * a + c * c * a * b)
    g = f ** draw(st.floats(-4.0, 4.0)) if draw(st.booleans()) else np.log(f)
    signs = draw(st.sampled_from(["none", "checker", "random", "shift"]))
    if signs == "checker":
        g = np.where((a + b) % 2 == 0, g, -g)
    elif signs == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = np.where(rng.random(g.size) < 0.5, g, -g)
    elif signs == "shift":  # a constant inside the range of g: the sum may nearly cancel
        g = g - np.quantile(g, draw(st.floats(0.0, 1.0)))
    return limit, g, signs


class TestLeadingRuns:
    """truncated_sum of a LazyTable sums a leading run of antidiagonals where the
    tail bound lets the certificate decide, and the whole grid where not; either
    way the result is math.fsum of every weighted term of the grid."""

    @settings(deadline=None)
    @given(lazy_integrands())
    def test_equals_fsum_of_the_whole_grid(self, drawn):
        limit, g, signs = drawn
        asked = []
        got = truncated_sum(lambda a, b: _lazy(g, _antidiagonal_max(g, limit), asked), limit)
        assert got.hex() == _fsum_of_grid(g, limit)
        if signs == "none" and limit == 128:  # no cancellation: a leading run decides
            assert asked and asked[-1] < g.size

    def test_a_sum_at_a_midpoint_is_summed_over_the_whole_grid(self):
        # the run (1, 2^-53) sums to the midpoint 1 + 2^-53, and the positive
        # tail rounds the whole sum up
        limit = 16
        g = np.full(series.grid(limit)[0].size, 2.0**-80)
        g[:3] = [4.0, 2.0**-50, 0.0]  # weights 1/4, 1/8, 1/8
        asked = []
        got = truncated_sum(lambda a, b: _lazy(g, _antidiagonal_max(g, limit), asked), limit)
        assert asked == [3, g.size]
        assert got == 1.0 + 2.0**-52 and got.hex() == _fsum_of_grid(g, limit)

    @pytest.mark.parametrize("tail", ["everywhere", "next-antidiagonal"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_tail_bound_is_part_of_the_certificate(self, sign, tail):
        # the run sums to 2^-90 below the midpoint 1 + 2^-53, within its tail
        # bound but beyond the extraction's own remainder bound (2^-96): a
        # positive tail rounds the whole sum up, a negative one down
        limit = 16
        g = np.full(series.grid(limit)[0].size, sign * 2.0**-80)
        if tail == "next-antidiagonal":  # all of the tail on antidiagonal 4
            g[series.antidiagonal_starts(limit)[3]:] = 0.0
        g[:3] = [4.0, 2.0**-50, -(2.0**-87)]
        asked = []
        got = truncated_sum(lambda a, b: _lazy(g, _antidiagonal_max(g, limit), asked), limit)
        assert asked == [3, g.size]
        assert got == (1.0 + 2.0**-52 if sign > 0 else 1.0)
        assert got.hex() == _fsum_of_grid(g, limit)

    def test_a_bound_far_above_the_sum_is_retried_on_a_longer_run(self):
        # the bound overshoots every term by 2^40, as f^q's does at large |q|: the
        # first run's tail bound, 2^-64 of the bounded total, is about 2^-24 of
        # the sum and cannot decide it; the run whose tail bound is 2^-64 of the
        # first run's sum does, and the whole grid is never read
        limit = 128
        g = np.ones(series.grid(limit)[0].size)
        asked = []
        bound = np.full(2 * limit - 1, 2.0**40)
        got = truncated_sum(lambda a, b: _lazy(g, bound, asked), limit)
        assert len(asked) == 2 and asked[0] < asked[1] < g.size
        assert got.hex() == _fsum_of_grid(g, limit)

    def test_a_run_away_from_a_midpoint_is_decided(self):
        limit = 16
        g = np.full(series.grid(limit)[0].size, 2.0**-80)
        g[:3] = [4.0, 2.0**-49, 0.0]
        asked = []
        got = truncated_sum(lambda a, b: _lazy(g, _antidiagonal_max(g, limit), asked), limit)
        assert asked == [3] and got == 1.0 + 2.0**-52 == float.fromhex(_fsum_of_grid(g, limit))

    @pytest.mark.parametrize("values", [
        lambda a, b: np.where((a + b) % 2 == 0, 1.0, -1.0) * np.exp2(-(a % 3)),
        lambda a, b: np.where(a < b, 1.0, np.where(a > b, -1.0, 0.0)) * (a + b),
        lambda a, b: np.where(a == 1, 1e-300, 0.0) - np.where(b == 1, 1e-300, 0.0),
    ], ids=["mixed", "cancels-to-zero", "tiny"])
    def test_mixed_signs_and_cancellation(self, values):
        limit = 64
        a, b, _ = series.grid(limit)
        g = values(a, b)
        got = truncated_sum(lambda a, b: _lazy(g, _antidiagonal_max(g, limit)), limit)
        assert got.hex() == _fsum_of_grid(g, limit)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_term_past_the_run_still_stops_the_sum(self, bad):
        # terms 4^-(a+b): without the bad term a run of about 35 antidiagonals decides
        limit = 32
        a, b, _ = series.grid(limit)
        g = np.exp2(-(a + b))
        g[np.flatnonzero((a == 20) & (b == 25))] = bad  # antidiagonal 45
        bound = _antidiagonal_max(g, limit)
        assert np.isfinite(bound[:43]).all()
        with pytest.raises(NonConvergenceError, match=r"series sum is not finite \((inf|-inf|nan)\)"):
            expect_block_report(lambda a, b: _lazy(g, bound), SeriesConfig(max_index=16), 0.0)

    @pytest.mark.parametrize("where", [0, 30, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_bound_that_is_not_finite_reads_the_whole_grid(self, bad, where):
        limit = 32
        a, b, _ = series.grid(limit)
        g = np.exp2(-a)
        bound = _antidiagonal_max(g, limit)
        bound[where] = bad
        asked = []
        got = truncated_sum(lambda a, b: _lazy(g, bound, asked), limit)
        assert asked == [g.size]
        assert got.hex() == _fsum_of_grid(g, limit)

    @pytest.mark.parametrize("max_index", [8, 1024])
    def test_reports_at_the_truncation_limits(self, max_index, monkeypatch):
        # the report's value is math.fsum of its whole grid(2 N), the only grid built
        limit = 2 * max_index
        a, b, weights = series.grid(limit)
        g = np.sqrt((1.0 + a * b) ** 2 + b * b) ** 1.5
        asked, built = [], []
        for name in ("grid", "antidiagonal_starts", "_antidiagonal_weights"):
            monkeypatch.setattr(series, name, lambda limit, cached=getattr(series, name):
                                built.append(limit) or cached(limit))
        rep = expect_block_report(lambda a, b: _lazy(g, _antidiagonal_max(g, limit), asked),
                                  SeriesConfig(max_index=max_index, tail_tol=1.0), 0.25)
        assert set(built) == {limit}
        assert rep.value == math.fsum(iter(weights * g)) == truncated_sum(lambda a, b: g, limit)
        assert (rep.tail_bound, rep.truncation) == (0.25, limit)
        if max_index == 1024:  # only a short leading run is ever computed
            assert max(asked) < weights.size // 100
