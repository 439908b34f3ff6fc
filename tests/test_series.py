import math

import numpy as np
import pytest
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

    def test_scalar_only_callable(self):
        got = expect_block(lambda a, b: float(a) * float(b) if a < 3 else a * b)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_report_fields(self):
        rep = expect_block_report(lambda a, b: a * b)
        assert rep.truncation == 128
        assert rep.tail_estimate < 1e-12
        assert rep.value == pytest.approx(4.0, abs=1e-12)

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

    def test_truncated_sum_scalar_integrand(self):
        vectorized = truncated_sum(lambda a, b: np.log1p(a * b), 24)
        assert truncated_sum(lambda a, b: math.log1p(a * b), 24) == vectorized

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
    def test_several_sets_of_bins(self, monkeypatch, seed):
        # small blocks and chunks, so sums run over many sets of wide folds
        monkeypatch.setattr(series, "_SUM_BLOCK", 1000)
        monkeypatch.setattr(series, "_SUM_CHUNK", 96)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(5000) * np.exp2(rng.integers(-950, 890, 5000))
        assert _matches_fsum(x)

    def test_grid_shapes_and_exact_bins(self):
        # 16 384 terms of 2^53 - 1 in one bin: the largest bin load at limit 128
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
    @pytest.mark.filterwarnings("error")  # inf - trunc(inf) must not warn
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
