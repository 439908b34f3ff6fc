import math

import numpy as np
import pytest

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

    def test_nonconvergence_flag(self):
        cfg = SeriesConfig(max_index=8, tail_tol=1e-12)
        with pytest.raises(NonConvergenceError):
            expect_block(lambda a, b: np.log1p(a * b), cfg)

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
