import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from shearlyap import series
from shearlyap import (
    DomainError,
    NonConvergenceError,
    SeriesConfig,
    expect_block,
    expect_block_exact_poly,
    expect_block_report,
    kappa,
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
        via_blocks = expect_block(lambda a, b: np.log(a * b), SeriesConfig(tail_tol=1e-10))
        assert abs(kappa() - via_blocks) < 1e-9


class TestExpectBlock:
    def test_constant(self):
        assert expect_block(lambda a, b: np.ones_like(a)) == pytest.approx(1.0, abs=1e-15)

    def test_product(self):
        assert expect_block(lambda a, b: a * b) == pytest.approx(4.0, abs=1e-12)

    def test_report_fields(self):
        rep = expect_block_report(lambda a, b: a * b)
        assert rep.truncation == 128
        assert rep.tail_estimate < 1e-12
        assert rep.value == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("value", [lambda a, b: a * b, lambda a, b: 1.0],
                             ids=["grid", "scalar"])
    def test_integrand_is_called_once_on_the_doubled_grid(self, value):
        shapes = []

        def f(a, b):
            shapes.append(a.shape)
            return value(a, b)

        rep = expect_block_report(f, SeriesConfig(max_index=8, tail_tol=1.0))
        assert shapes == [(16, 16)]
        assert rep.value == truncated_sum(value, 16)
        assert rep.tail_estimate == abs(truncated_sum(value, 16) - truncated_sum(value, 8))

    def test_matches_exact_poly(self):
        for i in range(5):
            for j in range(5):
                series = expect_block(lambda a, b, i=i, j=j: a**i * b**j)
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
        cfg = SeriesConfig(max_index=8, tail_tol=1e-12)
        with pytest.raises(NonConvergenceError):
            expect_block(lambda a, b: np.log1p(a * b), cfg)

    @pytest.mark.parametrize("f", [lambda a, b: np.full_like(a, np.inf),
                                   lambda a, b: np.exp(a * b),
                                   lambda a, b: np.where(a > 100, np.inf, 1.0),
                                   lambda a, b: np.full_like(a, np.nan)])
    def test_non_finite_sum_does_not_converge(self, f):
        with np.errstate(over="ignore"):
            with pytest.raises(NonConvergenceError, match=r"series sum is not finite \((inf|nan)\): "
                               r"its terms overflow .* a larger max_index cannot help$"):
                expect_block(f)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SeriesConfig(max_index=4)
        assert SeriesConfig(max_index=1024).max_index == 1024
        with pytest.raises(DomainError, match="max_index must be in 8..1024, got 1025"):
            SeriesConfig(max_index=1025)  # refused before any grid is built
        with pytest.raises(DomainError):
            SeriesConfig(tail_tol=0.0)


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

    @pytest.mark.parametrize("block", [8192, 5])  # 5: three blocks rebuild the 14 terms
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("e", range(90, 101))
    def test_tie_within_b_is_decided_on_the_third_pass(self, sign, e, block, monkeypatch):
        monkeypatch.setattr(series, "_REBUILD_BLOCK", block)
        certificates = _count_certificates(monkeypatch)
        x = _tie_after_two_passes(sign, 2.0**-e)
        assert math.fsum(x.tolist()) == sign * (1.0 + 2.0**-52)
        assert series._extracted_sum(x) == sign * (1.0 + 2.0**-52)
        assert len(certificates) == (1 if 2.0**-e > 2.0**-93 else 2)

    def test_third_pass_on_a_256_grid(self, monkeypatch):
        # 65 536 terms, eight blocks: two passes leave this sum within b of a midpoint
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

    def test_figure_sweeps_never_fall_back(self, monkeypatch):
        # a fast path that declined, or that took three passes where two
        # decide, would still be correct, only slow
        counts = {"sums": 0, "fallbacks": 0}
        extracted_sum = series._extracted_sum

        def counting_sum(flat):
            total = extracted_sum(flat)
            counts["sums"] += 1
            counts["fallbacks"] += total is None
            return total

        monkeypatch.setattr(series, "_extracted_sum", counting_sum)
        certificates = _count_certificates(monkeypatch)
        runner = CliRunner()
        for argv in (["--mode", "gle", "--alpha", "1", "--beta", "1", "--q", "-3:3:0.1"],
                     ["--mode", "lyap-bounds", "--alpha", "1:10:0.25"]):
            result = runner.invoke(main, ["sweep", *argv, "--format", "csv"])
            assert result.exit_code == 0, result.output
        assert counts["sums"] > 0 and counts["fallbacks"] == 0, counts
        third_passes = len(certificates) - counts["sums"]
        assert 0 <= third_passes <= counts["sums"] // 100, (counts, third_passes)
