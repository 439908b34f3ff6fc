import math

import numpy as np
import pytest

from shearlyap import (
    BlockExponents,
    BoundFunctionId,
    DomainError,
    NormKind,
    ShearParams,
    Side,
    Vec2,
    cone_negative,
    cone_positive,
    gamma,
    growth_ratio,
    improved_cone_negative,
    improved_cone_positive,
    k_ab,
    phi,
    psi,
)
from shearlyap.cones import BlockOrder
from shearlyap.growth import BoundFamily, evaluator

POS11 = ShearParams.infer(1.0, 1.0)
OPP33 = ShearParams.infer(-3.0, 3.0)
B11 = BlockExponents(1, 1)
GAMMA_33 = -1.5 + math.sqrt(1.25)

NORMS = (NormKind.L1, NormKind.L2, NormKind.LINF)


def fid(family, norm, side, case=()):
    return BoundFunctionId(family, norm, side, case)


ORD = {NormKind.L1: 1, NormKind.L2: 2, NormKind.LINF: np.inf}


def ratio_at_slope(block, params, slope, norm):
    """Oracle: growth ratio at the direction (slope, 1)."""
    x = np.array([slope, 1.0])
    return np.linalg.norm(k_ab(block, params) @ x, ORD[norm]) / np.linalg.norm(x, ORD[norm])


class TestExamples:
    def test_phi_linf_unit(self):
        assert phi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.LOWER), B11, POS11) == 2.0

    def test_phi_l1_unit(self):
        got = phi(fid(BoundFamily.GLOBAL, NormKind.L1, Side.LOWER), B11, POS11)
        assert got == pytest.approx(2.5, abs=1e-15)

    def test_phi_l2_unit_two_branches(self):
        got = phi(fid(BoundFamily.GLOBAL, NormKind.L2, Side.LOWER), B11, POS11)
        assert got == pytest.approx(math.sqrt(5.0), abs=1e-14)
        # oracle: direct minimization of the L2 ratio over the cone
        slopes = np.linspace(0.0, 1.0, 20001)
        ratios = [ratio_at_slope(B11, POS11, s, NormKind.L2) for s in slopes]
        assert got == pytest.approx(min(ratios), abs=1e-7)

    def test_psi_linf_unit(self):
        assert psi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.UPPER), B11, POS11) == 3.0

    def test_psi_l2_is_spectral_norm(self):
        got = psi(fid(BoundFamily.GLOBAL, NormKind.L2, Side.UPPER), B11, POS11)
        want = math.sqrt((7.0 + math.sqrt(45.0)) / 2.0)
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(np.linalg.norm(k_ab(B11, POS11), 2), abs=1e-12)

    def test_improved_psi_linf_case2(self):
        got = psi(fid(BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (2,)), B11, POS11)
        assert got == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_tilde_phi_linf(self):
        got = phi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.LOWER), B11, OPP33)
        assert got == pytest.approx(8.0 + 3.0 * GAMMA_33, abs=1e-12)
        # oracle: ratio at the cone boundary direction (Gamma, 1)
        assert got == pytest.approx(
            ratio_at_slope(B11, OPP33, GAMMA_33, NormKind.LINF), abs=1e-12
        )

    def test_tilde_psi_linf(self):
        got = psi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.UPPER), B11, OPP33)
        assert got == 8.0


class TestGrowthRatio:
    def test_unit_examples(self):
        assert growth_ratio(B11, POS11, Vec2(0, 1), NormKind.LINF) == 2.0
        assert growth_ratio(B11, POS11, Vec2(0, 1), NormKind.L1) == 3.0

    def test_hand_applied_block(self):
        got = growth_ratio(BlockExponents(2, 3), POS11, Vec2(1, 2), NormKind.L1)
        assert got == pytest.approx(23.0 / 3.0, abs=1e-14)

    def test_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            growth_ratio(B11, POS11, Vec2(2, 1), NormKind.L2)
        with pytest.raises(DomainError):
            growth_ratio(B11, OPP33, Vec2(0.5, 1), NormKind.L2)

    def test_v_zero_rejected(self):
        with pytest.raises(DomainError):
            growth_ratio(B11, POS11, Vec2(1, 0), NormKind.L2)


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

    @pytest.mark.parametrize("fn,family,side,case,alpha,beta", [
        (phi, BoundFamily.GLOBAL, Side.LOWER, (), 1e200, 1.0),  # alpha**2 in _phi_l2
        (phi, BoundFamily.IMPROVED, Side.LOWER, (2,), 1.0, 1e200),
        (psi, BoundFamily.GLOBAL, Side.UPPER, (), -3.0, 1e200),
    ])
    def test_l2_overflow_is_a_domain_error(self, fn, family, side, case, alpha, beta):
        # Python-float powers overflow above shears of about 1.34e154
        f_id = fid(family, NormKind.L2, side, case)
        with pytest.raises(DomainError, match=r"bound function overflows double precision"):
            fn(f_id, B11, ShearParams(alpha, beta))

    def test_l2_keeps_large_finite_shears(self):
        got = phi(fid(BoundFamily.GLOBAL, NormKind.L2, Side.LOWER), B11, ShearParams(1e154, 1.0))
        assert got == 1e154

    def test_side_mismatch(self):
        with pytest.raises(DomainError):
            phi(fid(BoundFamily.GLOBAL, NormKind.L1, Side.UPPER), B11, POS11)
        with pytest.raises(DomainError):
            psi(fid(BoundFamily.GLOBAL, NormKind.L1, Side.LOWER), B11, POS11)


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
        cases = {1: BlockOrder.A_LT_B, 2: BlockOrder.A_EQ_B, 3: BlockOrder.A_GT_B}
        for _ in range(150):
            p = ShearParams.infer(rng.uniform(1, 8), rng.uniform(1, 8))
            a, b = (int(x) for x in rng.integers(1, 25, size=2))
            block = BlockExponents(a, b)
            for m, order in cases.items():
                sub = improved_cone_positive(order, p)
                for s in np.linspace(sub.lo, sub.hi, 7):
                    x = Vec2(float(s), 1.0)
                    for norm in NORMS:
                        r = growth_ratio(block, p, x, norm)
                        lo = phi(fid(BoundFamily.IMPROVED, norm, Side.LOWER, (m,)), block, p)
                        hi = psi(fid(BoundFamily.IMPROVED, norm, Side.UPPER, (m,)), block, p)
                        tol = 1e-10 * max(1.0, r)
                        assert lo <= r + tol and r <= hi + tol

    def test_improved_opposed_cases(self):
        # case (m_a, m_b) sub-cones: hat lower bounds for every norm, hat
        # upper bounds for the L-infinity norm (index pairing below)
        rng = np.random.default_rng(107)
        psi_case = {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4}
        for _ in range(150):
            p = ShearParams.infer(rng.uniform(-8, -2.2), rng.uniform(2.2, 8))
            a, b = (int(x) for x in rng.integers(1, 25, size=2))
            block = BlockExponents(a, b)
            for (ma, mb), mpsi in psi_case.items():
                sub = improved_cone_negative(ma, mb, p)
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
                        lo = phi(
                            fid(BoundFamily.IMPROVED, norm, Side.LOWER, (ma, mb)),
                            block, p,
                        )
                        tol = 1e-10 * max(1.0, r)
                        assert lo <= r + tol
                        if norm is NormKind.LINF:
                            hi = psi(
                                fid(BoundFamily.IMPROVED, norm, Side.UPPER, (mpsi,)),
                                block, p,
                            )
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
            lo = phi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.LOWER), block, p)
            hi = psi(fid(BoundFamily.GLOBAL, NormKind.LINF, Side.UPPER), block, p)
            at_zero = growth_ratio(block, p, Vec2(0.0, 1.0), NormKind.LINF)
            at_top = growth_ratio(block, p, Vec2(1.0, p.alpha), NormKind.LINF)
            assert at_zero == pytest.approx(lo, rel=1e-9)
            assert at_top == pytest.approx(hi, rel=1e-9)


class TestFormulaOracle:
    """Every literal formula equals the growth ratio at its cone boundary."""

    def test_positive_global_formulas(self):
        rng = np.random.default_rng(113)
        for _ in range(250):
            p = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            hi_slope = 1.0 / p.alpha
            # L1: lower attained at the steep boundary, upper at slope 0
            assert phi(fid(BoundFamily.GLOBAL, NormKind.L1, Side.LOWER), block, p) == (
                pytest.approx(ratio_at_slope(block, p, hi_slope, NormKind.L1), rel=1e-12)
            )
            assert psi(fid(BoundFamily.GLOBAL, NormKind.L1, Side.UPPER), block, p) == (
                pytest.approx(ratio_at_slope(block, p, 0.0, NormKind.L1), rel=1e-12)
            )
            # L2: lower is the smaller boundary ratio, upper the spectral norm
            b_lo = min(
                ratio_at_slope(block, p, 0.0, NormKind.L2),
                ratio_at_slope(block, p, hi_slope, NormKind.L2),
            )
            assert phi(fid(BoundFamily.GLOBAL, NormKind.L2, Side.LOWER), block, p) == (
                pytest.approx(b_lo, rel=1e-12)
            )
            assert psi(fid(BoundFamily.GLOBAL, NormKind.L2, Side.UPPER), block, p) == (
                pytest.approx(np.linalg.norm(k_ab(block, p), 2), rel=1e-12)
            )

    def test_positive_improved_formulas(self):
        rng = np.random.default_rng(115)
        orders = {2: BlockOrder.A_EQ_B, 3: BlockOrder.A_GT_B}
        for _ in range(250):
            p = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            for m, order in orders.items():
                sub = improved_cone_positive(order, p)
                got1 = phi(fid(BoundFamily.IMPROVED, NormKind.L1, Side.LOWER, (m,)), block, p)
                assert got1 == pytest.approx(
                    ratio_at_slope(block, p, sub.hi, NormKind.L1), rel=1e-12
                )
                got2 = phi(fid(BoundFamily.IMPROVED, NormKind.L2, Side.LOWER, (m,)), block, p)
                want2 = min(
                    ratio_at_slope(block, p, 0.0, NormKind.L2),
                    ratio_at_slope(block, p, sub.hi, NormKind.L2),
                )
                assert got2 == pytest.approx(want2, rel=1e-12)
                goti = psi(fid(BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (m,)), block, p)
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
                f = phi if side is Side.LOWER else psi
                got = f(fid(BoundFamily.GLOBAL, norm, side), block, p)
                assert got == pytest.approx(ratio_at_slope(block, p, slope, norm), rel=1e-12)

    def test_opposed_improved_formulas(self):
        rng = np.random.default_rng(119)
        psi_boundary = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
        for _ in range(200):
            p = ShearParams.infer(rng.uniform(-9, -2.2), rng.uniform(2.2, 9))
            block = BlockExponents(int(rng.integers(1, 25)), int(rng.integers(1, 25)))
            for ma in (1, 2):
                for mb in (1, 2):
                    sub = improved_cone_negative(ma, mb, p)
                    for norm in NORMS:
                        got = phi(
                            fid(BoundFamily.IMPROVED, norm, Side.LOWER, (ma, mb)),
                            block, p,
                        )
                        assert got == pytest.approx(
                            ratio_at_slope(block, p, sub.lo, norm), rel=1e-12
                        )
            for m, (ma, mb) in psi_boundary.items():
                sub = improved_cone_negative(ma, mb, p)
                got = psi(
                    fid(BoundFamily.IMPROVED, NormKind.LINF, Side.UPPER, (m,)), block, p
                )
                assert got == pytest.approx(
                    ratio_at_slope(block, p, sub.hi, NormKind.LINF), rel=1e-12
                )
