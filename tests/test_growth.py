import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlyap import (
    BlockExponents,
    BoundFamily,
    DomainError,
    NormKind,
    Regime,
    ShearParams,
    Side,
    cases_for,
    evaluator,
    gamma,
    growth_ratio,
    improved_cone,
    k_ab,
    norms_for,
)
from shearlyap.growth import function_case

POS11 = ShearParams.infer(1.0, 1.0)
OPP33 = ShearParams.infer(-3.0, 3.0)
B11 = BlockExponents(1, 1)
GAMMA_33 = -1.5 + math.sqrt(1.25)

NORMS = (NormKind.L1, NormKind.L2, NormKind.LINF)
GLOBAL, IMPROVED = BoundFamily.GLOBAL, BoundFamily.IMPROVED
LOWER, UPPER = Side.LOWER, Side.UPPER

ORD = {NormKind.L1: 1, NormKind.L2: 2, NormKind.LINF: np.inf}


def ratio_at_slope(block, params, slope, norm):
    """Oracle: growth ratio at the direction (slope, 1)."""
    x = np.array([slope, 1.0])
    return np.linalg.norm(k_ab(block, params) @ x, ORD[norm]) / np.linalg.norm(x, ORD[norm])


class TestExamples:
    def test_phi_linf_unit(self):
        assert evaluator(GLOBAL, NormKind.LINF, LOWER, (), POS11)(1, 1) == 2.0

    def test_phi_l1_unit(self):
        got = evaluator(GLOBAL, NormKind.L1, LOWER, (), POS11)(1, 1)
        assert got == pytest.approx(2.5, abs=1e-15)

    def test_phi_l2_unit_two_branches(self):
        got = evaluator(GLOBAL, NormKind.L2, LOWER, (), POS11)(1, 1)
        assert got == pytest.approx(math.sqrt(5.0), abs=1e-14)
        # oracle: direct minimization of the L2 ratio over the cone
        slopes = np.linspace(0.0, 1.0, 20001)
        ratios = [ratio_at_slope(B11, POS11, s, NormKind.L2) for s in slopes]
        assert got == pytest.approx(min(ratios), abs=1e-7)

    def test_psi_linf_unit(self):
        assert evaluator(GLOBAL, NormKind.LINF, UPPER, (), POS11)(1, 1) == 3.0

    def test_psi_l2_is_spectral_norm(self):
        got = evaluator(GLOBAL, NormKind.L2, UPPER, (), POS11)(1, 1)
        want = math.sqrt((7.0 + math.sqrt(45.0)) / 2.0)
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(np.linalg.norm(k_ab(B11, POS11), 2), abs=1e-12)

    def test_improved_psi_linf_case2(self):
        got = evaluator(IMPROVED, NormKind.LINF, UPPER, (2,), POS11)(1, 1)
        assert got == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_tilde_phi_linf(self):
        got = evaluator(GLOBAL, NormKind.LINF, LOWER, (), OPP33)(1, 1)
        assert got == pytest.approx(8.0 + 3.0 * GAMMA_33, abs=1e-12)
        # oracle: ratio at the cone boundary direction (Gamma, 1)
        assert got == pytest.approx(
            ratio_at_slope(B11, OPP33, GAMMA_33, NormKind.LINF), abs=1e-12
        )

    def test_tilde_psi_linf(self):
        got = evaluator(GLOBAL, NormKind.LINF, UPPER, (), OPP33)(1, 1)
        assert got == 8.0


class TestGrowthRatio:
    def test_unit_examples(self):
        assert growth_ratio(B11, POS11, (0, 1), NormKind.LINF) == 2.0
        assert growth_ratio(B11, POS11, (0, 1), NormKind.L1) == 3.0
        assert growth_ratio(B11, POS11, (0, 1), NormKind.L2) == math.sqrt(5.0)

    def test_hand_applied_block(self):
        got = growth_ratio(BlockExponents(2, 3), POS11, (1, 2), NormKind.L1)
        assert got == pytest.approx(23.0 / 3.0, abs=1e-14)

    def test_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            growth_ratio(B11, POS11, (2, 1), NormKind.L2)
        with pytest.raises(DomainError):
            growth_ratio(B11, OPP33, (0.5, 1), NormKind.L2)

    def test_v_zero_rejected(self):
        with pytest.raises(DomainError):
            growth_ratio(B11, POS11, (1, 0), NormKind.L2)


class TestIdValidation:
    def test_global_takes_no_case(self):
        with pytest.raises(DomainError):
            evaluator(BoundFamily.GLOBAL, NormKind.L1, Side.LOWER, (1,), POS11)

    def test_improved_case_range(self):
        with pytest.raises(DomainError):
            evaluator(BoundFamily.IMPROVED, NormKind.L1, Side.LOWER, (4,), POS11)

    def test_improved_neg_upper_linf_only(self):
        with pytest.raises(DomainError):
            evaluator(BoundFamily.IMPROVED, NormKind.L1, Side.UPPER, (1,), OPP33)
        evaluator(BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (2, 2), OPP33)
        with pytest.raises(DomainError):
            evaluator(BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (4,), OPP33)

    def test_improved_neg_lower_pairs(self):
        with pytest.raises(DomainError):
            evaluator(BoundFamily.IMPROVED, NormKind.L1, Side.LOWER, (1,), OPP33)
        evaluator(BoundFamily.IMPROVED, NormKind.L2, Side.LOWER, (2, 1), OPP33)

    @pytest.mark.parametrize("family,norm,side,case,params,message", [
        (BoundFamily.GLOBAL, NormKind.L1, Side.LOWER, (1,), POS11,
         "global positive lower case must be one of [()], got (1,)"),
        (BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (), POS11,
         "improved positive upper case must be one of [(1,), (2,), (3,)], got ()"),
        (BoundFamily.GLOBAL, NormKind.L2, Side.UPPER, (1, 1), OPP33,
         "global opposed upper case must be one of [()], got (1, 1)"),
        (BoundFamily.IMPROVED, NormKind.L1, Side.LOWER, (1,), OPP33,
         "improved opposed lower case must be one of [(1, 1), (1, 2), (2, 1), (2, 2)], got (1,)"),
        (BoundFamily.IMPROVED, NormKind.L2, Side.UPPER, (1,), OPP33,
         "improved opposed upper bounds exist only for the norms ['linf']"),
        (BoundFamily.IMPROVED, "l1", Side.UPPER, (1,), POS11,
         "improved positive upper bounds exist only for the norms ['l1', 'l2', 'linf']"),
    ])
    def test_messages_name_family_regime_side(self, family, norm, side, case, params, message):
        with pytest.raises(DomainError) as info:
            evaluator(family, norm, side, case, params)
        assert str(info.value) == message

    @pytest.mark.parametrize("family,side,case,alpha,beta", [
        (BoundFamily.GLOBAL, Side.LOWER, (), 1e200, 1.0),  # alpha**2 in _phi_l2
        (BoundFamily.IMPROVED, Side.LOWER, (2,), 1.0, 1e200),
        (BoundFamily.GLOBAL, Side.UPPER, (), -3.0, 1e200),
    ])
    def test_l2_overflow_is_a_domain_error(self, family, side, case, alpha, beta):
        # Python-float powers overflow above shears of about 1.34e154
        f = evaluator(family, NormKind.L2, side, case, ShearParams(alpha, beta))
        with pytest.raises(DomainError, match=r"bound function overflows double precision"):
            f(1, 1)

    def test_l2_keeps_large_finite_shears(self):
        got = evaluator(GLOBAL, NormKind.L2, LOWER, (), ShearParams(1e154, 1.0))(1, 1)
        assert got == 1e154


class TestSharedFunctions:
    """An improved case shares the global function exactly where the table says."""

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 3.0), (-3.0, 3.0), (-5.0, 2.5)])
    def test_sharing_premise_both_ways(self, alpha, beta):
        p = ShearParams.infer(alpha, beta)
        aa, bb = np.meshgrid(np.arange(1.0, 129.0), np.arange(1.0, 129.0), indexing="ij")
        own = []
        for side in Side:
            for norm in norms_for(IMPROVED, p.regime, side):
                glob = evaluator(GLOBAL, norm, side, (), p)(aa, bb)
                for case in cases_for(IMPROVED, p.regime):
                    got = evaluator(IMPROVED, norm, side, case, p)(aa, bb)
                    if function_case(p.regime, norm, side, case) == ():
                        assert np.array_equal(got, glob), (norm, side, case)
                    else:
                        # a case listed as its own must not be a copy of the global one
                        assert not np.array_equal(got, glob), (norm, side, case)
                        own.append((norm, side, case))
        # positive: (2,) and (3,) of L1 and L2 lower and L-infinity upper; opposed: all
        # four cases of each lower function and (1, 1), (1, 2) of L-infinity upper
        assert len(own) == (6 if p.regime is Regime.POSITIVE_PAIR else 14)

    def test_function_case_is_a_case_of_the_family_or_global(self):
        for regime in Regime:
            for side in Side:
                for norm in norms_for(IMPROVED, regime, side):
                    assert function_case(regime, norm, side, ()) == ()
                    for case in cases_for(IMPROVED, regime):
                        assert function_case(regime, norm, side, case) in ((), case)


def _sample_positive(rng, n):
    alpha = rng.uniform(1, 10, size=n)
    beta = rng.uniform(1, 10, size=n)
    a = rng.integers(1, 31, size=n).astype(float)
    b = rng.integers(1, 31, size=n).astype(float)
    slope = rng.uniform(0, 1, size=n) / alpha
    return alpha, beta, a, b, slope


def _sample_opposed(rng, n):
    alpha = rng.uniform(-10, -2.1, size=n)
    beta = rng.uniform(2.1, 10, size=n)
    a = rng.integers(1, 31, size=n).astype(float)
    b = rng.integers(1, 31, size=n).astype(float)
    g = -beta / 2 + np.sqrt((beta / 2) ** 2 + beta / alpha)
    slope = g * rng.uniform(0, 1, size=n)
    return alpha, beta, a, b, slope


def _vector_ratios(alpha, beta, a, b, u, v):
    up = u + b * beta * v
    vp = a * alpha * u + (1.0 + a * alpha * b * beta) * v
    return {
        NormKind.L1: (np.abs(up) + np.abs(vp)) / (np.abs(u) + np.abs(v)),
        NormKind.L2: np.hypot(up, vp) / np.hypot(u, v),
        NormKind.LINF: np.maximum(np.abs(up), np.abs(vp))
        / np.maximum(np.abs(u), np.abs(v)),
    }


class TestSandwich:
    def test_positive_global(self):
        rng = np.random.default_rng(101)
        alpha, beta, a, b, slope = _sample_positive(rng, 2000)
        scale = rng.uniform(0.5, 2.0, size=2000) * rng.choice([-1.0, 1.0], size=2000)
        ratios = _vector_ratios(alpha, beta, a, b, slope * scale, scale)
        for i in range(2000):
            p = ShearParams.infer(alpha[i], beta[i])
            for norm in NORMS:
                lo = evaluator(BoundFamily.GLOBAL, norm, Side.LOWER, (), p)(a[i], b[i])
                hi = evaluator(BoundFamily.GLOBAL, norm, Side.UPPER, (), p)(a[i], b[i])
                r = ratios[norm][i]
                tol = 1e-10 * max(1.0, abs(r))
                assert lo <= r + tol and r <= hi + tol

    def test_opposed_global(self):
        rng = np.random.default_rng(103)
        alpha, beta, a, b, slope = _sample_opposed(rng, 2000)
        scale = rng.uniform(0.5, 2.0, size=2000) * rng.choice([-1.0, 1.0], size=2000)
        ratios = _vector_ratios(alpha, beta, a, b, slope * scale, scale)
        for i in range(2000):
            p = ShearParams.infer(alpha[i], beta[i])
            for norm in NORMS:
                lo = evaluator(BoundFamily.GLOBAL, norm, Side.LOWER, (), p)(a[i], b[i])
                hi = evaluator(BoundFamily.GLOBAL, norm, Side.UPPER, (), p)(a[i], b[i])
                r = ratios[norm][i]
                tol = 1e-10 * max(1.0, abs(r))
                assert lo <= r + tol and r <= hi + tol

    def test_improved_positive_cases(self):
        # vectors inside the case-m sub-cone obey the hat sandwich for any block
        rng = np.random.default_rng(105)
        for _ in range(150):
            p = ShearParams.infer(rng.uniform(1, 8), rng.uniform(1, 8))
            a, b = (int(x) for x in rng.integers(1, 25, size=2))
            block = BlockExponents(a, b)
            for case in cases_for(IMPROVED, p.regime):
                sub = improved_cone(case, p)
                for s in np.linspace(sub.lo, sub.hi, 7):
                    x = (float(s), 1.0)
                    for norm in NORMS:
                        r = growth_ratio(block, p, x, norm)
                        lo = evaluator(IMPROVED, norm, LOWER, case, p)(a, b)
                        hi = evaluator(IMPROVED, norm, UPPER, case, p)(a, b)
                        tol = 1e-10 * max(1.0, r)
                        assert lo <= r + tol and r <= hi + tol

    def test_improved_opposed_cases(self):
        # case (m_a, m_b) sub-cones: hat lower bounds for every norm, hat
        # upper bounds for the L-infinity norm
        rng = np.random.default_rng(107)
        for _ in range(150):
            p = ShearParams.infer(rng.uniform(-8, -2.2), rng.uniform(2.2, 8))
            a, b = (int(x) for x in rng.integers(1, 25, size=2))
            for case in cases_for(IMPROVED, p.regime):
                sub = improved_cone(case, p)
                for s in np.linspace(sub.lo, sub.hi, 7):
                    up = s + b * p.beta
                    vp = a * p.alpha * s + 1.0 + a * p.alpha * b * p.beta
                    for norm in NORMS:
                        if norm is NormKind.L1:
                            r = (abs(up) + abs(vp)) / (abs(s) + 1.0)
                        elif norm is NormKind.L2:
                            r = math.hypot(up, vp) / math.hypot(s, 1.0)
                        else:
                            r = max(abs(up), abs(vp)) / max(abs(s), 1.0)
                        lo = evaluator(IMPROVED, norm, LOWER, case, p)(a, b)
                        tol = 1e-10 * max(1.0, r)
                        assert lo <= r + tol
                        if norm is NormKind.LINF:
                            hi = evaluator(IMPROVED, norm, UPPER, case, p)(a, b)
                            assert r <= hi + tol

    def test_all_bounds_at_least_one(self):
        rng = np.random.default_rng(109)
        alpha, beta, a, b, _ = _sample_positive(rng, 500)
        for i in range(500):
            p = ShearParams.infer(alpha[i], beta[i])
            for norm in NORMS:
                for side in (Side.LOWER, Side.UPPER):
                    v = evaluator(BoundFamily.GLOBAL, norm, side, (), p)(a[i], b[i])
                    assert v >= 1.0
        alpha, beta, a, b, _ = _sample_opposed(rng, 500)
        for i in range(500):
            p = ShearParams.infer(alpha[i], beta[i])
            for norm in NORMS:
                for side in (Side.LOWER, Side.UPPER):
                    v = evaluator(BoundFamily.GLOBAL, norm, side, (), p)(a[i], b[i])
                    assert v > 1.0

    def test_linf_tight_at_boundaries(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            p = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            lo = evaluator(GLOBAL, NormKind.LINF, LOWER, (), p)(block.a, block.b)
            hi = evaluator(GLOBAL, NormKind.LINF, UPPER, (), p)(block.a, block.b)
            at_zero = growth_ratio(block, p, (0.0, 1.0), NormKind.LINF)
            at_top = growth_ratio(block, p, (1.0, p.alpha), NormKind.LINF)
            assert at_zero == pytest.approx(lo, rel=1e-9)
            assert at_top == pytest.approx(hi, rel=1e-9)


@st.composite
def points_and_blocks(draw):
    """A parameter point in either regime, from next to the opposed regime's
    edge (|alpha|, beta -> 2) to shears of 10^4, and real run lengths a, b >= 1,
    (1, 1) among them, where the functions are least."""
    if draw(st.booleans()):
        params = ShearParams(10.0 ** draw(st.floats(0.0, 4.0)), 10.0 ** draw(st.floats(0.0, 4.0)))
    else:
        params = ShearParams(-2.0 - 10.0 ** draw(st.floats(-12.0, 4.0)),
                             2.0 + 10.0 ** draw(st.floats(-12.0, 4.0)))
    blocks = draw(st.lists(st.tuples(st.floats(1.0, 1e4), st.floats(1.0, 1e4)),
                           min_size=1, max_size=40))
    a, b = np.array([(1.0, 1.0)] + blocks).T
    return params, a, b


class TestRange:
    """Every bound function lies between 1 and F = (1 + a |alpha|)(1 + b |beta|):
    the engine's certified series tail (engine._tail_bound) rests on it."""

    @settings(deadline=None, max_examples=200)
    @given(points_and_blocks())
    def test_every_function_lies_between_1_and_f(self, drawn):
        params, a, b = drawn
        bound = (1.0 + a * abs(params.alpha)) * (1.0 + b * abs(params.beta))
        ulps = 4 * 2.0**-52
        for family in BoundFamily:
            for side in Side:
                for norm in norms_for(family, params.regime, side):
                    for case in cases_for(family, params.regime):
                        f = evaluator(family, norm, side, case, params)(a, b)
                        assert np.all(f >= 1.0 - ulps), (family, side, norm, case)
                        assert np.all(f <= bound * (1.0 + ulps)), (family, side, norm, case)


class TestFormulaOracle:
    """Every literal formula equals the growth ratio at its cone boundary."""

    def test_positive_global_formulas(self):
        rng = np.random.default_rng(113)
        for _ in range(250):
            p = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            hi_slope = 1.0 / p.alpha
            # L1: lower attained at the steep boundary, upper at slope 0
            ab = (block.a, block.b)
            assert evaluator(GLOBAL, NormKind.L1, LOWER, (), p)(*ab) == (
                pytest.approx(ratio_at_slope(block, p, hi_slope, NormKind.L1), rel=1e-12)
            )
            assert evaluator(GLOBAL, NormKind.L1, UPPER, (), p)(*ab) == (
                pytest.approx(ratio_at_slope(block, p, 0.0, NormKind.L1), rel=1e-12)
            )
            # L2: lower is the smaller boundary ratio, upper the spectral norm
            b_lo = min(
                ratio_at_slope(block, p, 0.0, NormKind.L2),
                ratio_at_slope(block, p, hi_slope, NormKind.L2),
            )
            assert evaluator(GLOBAL, NormKind.L2, LOWER, (), p)(*ab) == (
                pytest.approx(b_lo, rel=1e-12)
            )
            assert evaluator(GLOBAL, NormKind.L2, UPPER, (), p)(*ab) == (
                pytest.approx(np.linalg.norm(k_ab(block, p), 2), rel=1e-12)
            )

    def test_positive_improved_formulas(self):
        rng = np.random.default_rng(115)
        for _ in range(250):
            p = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            ab = (block.a, block.b)
            for case in ((2,), (3,)):
                sub = improved_cone(case, p)
                got1 = evaluator(IMPROVED, NormKind.L1, LOWER, case, p)(*ab)
                assert got1 == pytest.approx(
                    ratio_at_slope(block, p, sub.hi, NormKind.L1), rel=1e-12
                )
                got2 = evaluator(IMPROVED, NormKind.L2, LOWER, case, p)(*ab)
                want2 = min(
                    ratio_at_slope(block, p, 0.0, NormKind.L2),
                    ratio_at_slope(block, p, sub.hi, NormKind.L2),
                )
                assert got2 == pytest.approx(want2, rel=1e-12)
                goti = evaluator(IMPROVED, NormKind.LINF, UPPER, case, p)(*ab)
                assert goti == pytest.approx(
                    ratio_at_slope(block, p, sub.hi, NormKind.LINF), rel=1e-12
                )

    def test_opposed_formulas(self):
        rng = np.random.default_rng(117)
        for _ in range(250):
            p = ShearParams.infer(rng.uniform(-9, -2.2), rng.uniform(2.2, 9))
            g = gamma(p)
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            pairs = [
                (NormKind.L1, Side.LOWER, g),
                (NormKind.L1, Side.UPPER, 0.0),
                (NormKind.L2, Side.LOWER, g),
                (NormKind.L2, Side.UPPER, 0.0),
                (NormKind.LINF, Side.LOWER, g),
                (NormKind.LINF, Side.UPPER, 0.0),
            ]
            for norm, side, slope in pairs:
                got = evaluator(GLOBAL, norm, side, (), p)(block.a, block.b)
                assert got == pytest.approx(ratio_at_slope(block, p, slope, norm), rel=1e-12)

    def test_opposed_improved_formulas(self):
        rng = np.random.default_rng(119)
        for _ in range(200):
            p = ShearParams.infer(rng.uniform(-9, -2.2), rng.uniform(2.2, 9))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            for case in cases_for(IMPROVED, p.regime):
                sub = improved_cone(case, p)
                for norm in NORMS:
                    got = evaluator(IMPROVED, norm, LOWER, case, p)(block.a, block.b)
                    assert got == pytest.approx(
                        ratio_at_slope(block, p, sub.lo, norm), rel=1e-12
                    )
                got = evaluator(IMPROVED, NormKind.LINF, UPPER, case, p)(block.a, block.b)
                assert got == pytest.approx(
                    ratio_at_slope(block, p, sub.hi, NormKind.LINF), rel=1e-12
                )
