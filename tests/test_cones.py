import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlyap import (
    BlockExponents,
    Cone,
    DomainError,
    Regime,
    ShearOverflowError,
    ShearParams,
    SlopeUndefinedError,
    gamma,
    gamma_mab,
    improved_cone,
    invariant_cone,
    k_ab,
    map_slope,
)

OPPOSED = ShearParams.infer(-3.0, 3.0)
GAMMA_33 = -1.5 + math.sqrt(1.25)  # alpha = -3, beta = 3


class TestPositiveCone:
    @pytest.mark.parametrize("alpha,hi", [(1.0, 1.0), (2.0, 0.5), (10.0, 0.1)])
    def test_interval(self, alpha, hi):
        c = invariant_cone(ShearParams.infer(alpha, 1.0))
        assert c.lo == 0.0
        assert c.hi == pytest.approx(hi, abs=1e-15)

    def test_invariance_sampled(self):
        # 1000 random blocks, 100 directions each, image stays inside
        rng = np.random.default_rng(21)
        for _ in range(1000):
            alpha, beta = rng.uniform(1, 10, size=2)
            a, b = rng.integers(1, 31, size=2)
            hi = 1.0 / alpha
            s = rng.uniform(0.0, hi, size=100)
            x, y = a * alpha, b * beta
            img = (s + y) / (x * s + 1.0 + x * y)
            assert np.all(img >= -1e-15)
            assert np.all(img <= hi * (1 + 1e-12))

    def test_minimality_witnesses(self):
        params = ShearParams.infer(1.5, 2.0)
        hi = 1.0 / params.alpha
        # long B-runs push slopes to the top of the cone ...
        s_top = map_slope(k_ab(BlockExponents(1, 10_000), params), 0.0)
        assert abs(s_top - hi) < 1e-3
        # ... long A-runs push them to the bottom
        s_bot = map_slope(k_ab(BlockExponents(10_000, 1), params), hi)
        assert abs(s_bot) < 1e-3


class TestGamma:
    def test_value_minus3_3(self):
        assert gamma(OPPOSED) == pytest.approx(GAMMA_33, abs=1e-12)
        assert gamma(OPPOSED) == pytest.approx(-0.3819660112501051, abs=1e-12)

    def test_eigenvector_oracle(self):
        # slope of the expanding eigenvector of K(1,1) via numpy eig
        vals, vecs = np.linalg.eig(k_ab(BlockExponents(1, 1), OPPOSED))
        i = int(np.argmax(np.abs(vals)))
        slope = vecs[0, i] / vecs[1, i]
        assert gamma(OPPOSED) == pytest.approx(float(slope), abs=1e-12)

    def test_half_integer_case(self):
        p = ShearParams.infer(-2.5, 2.5)
        assert gamma(p) == pytest.approx(-0.5, abs=1e-12)

    def test_small_for_strong_shear(self):
        p = ShearParams.infer(-100.0, 100.0)
        assert abs(gamma(p)) < 0.011

    def test_rejects_positive(self):
        with pytest.raises(DomainError):
            gamma(ShearParams.infer(1, 1))

    @pytest.mark.parametrize("alpha,beta", [(-2e16, 3.0), (-3.0, 1e100), (-1e200, 3.0)])
    def test_rounding_loss_is_a_domain_error(self, alpha, beta):
        with pytest.raises(DomainError, match="Gamma is lost to rounding"):
            gamma(ShearParams(alpha, beta))

    def test_overflow_is_a_domain_error(self):
        # (beta / 2)**2 overflows a Python float above beta of about 2.7e154
        with pytest.raises(DomainError, match="Gamma overflows double precision at alpha=-3"):
            gamma(ShearParams.infer(-3.0, 1e200))

    def test_rejects_weak_product(self):
        fake = SimpleNamespace(alpha=-2.0, beta=2.0, regime=Regime.OPPOSED_PAIR)
        with pytest.raises(DomainError):
            gamma(fake)

    @given(st.floats(-10, -2.1), st.floats(2.1, 10))
    @settings(max_examples=50)
    def test_fixed_point_of_unit_block(self, alpha, beta):
        params = ShearParams.infer(alpha, beta)
        g = gamma(params)
        assert -1.0 < g < 0.0
        m = k_ab(BlockExponents(1, 1), params)
        assert map_slope(m, g) == pytest.approx(g, abs=1e-12)


class TestMapSlope:
    def test_unit_block_examples(self):
        m = k_ab(BlockExponents(1, 1), ShearParams.infer(1, 1))
        assert map_slope(m, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert map_slope(m, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_blow_up(self):
        m = np.array([[1.0, 0.0], [1.0, -1.0]])
        with pytest.raises(SlopeUndefinedError):
            map_slope(m, 1.0)


class TestImprovedPositive:
    def test_cases_unit(self):
        p = ShearParams.infer(1, 1)
        assert improved_cone((1,), p).hi == pytest.approx(1.0)
        assert improved_cone((2,), p).hi == pytest.approx(2.0 / 3.0)
        assert improved_cone((3,), p).hi == pytest.approx(0.4)

    def test_rejects_opposed(self):
        with pytest.raises(DomainError):
            improved_cone((2,), OPPOSED)

    @pytest.mark.parametrize("params,case,cases", [
        (ShearParams.infer(1, 1), (1, 1), "[(1,), (2,), (3,)]"),
        (ShearParams.infer(1, 1), (4,), "[(1,), (2,), (3,)]"),
        (OPPOSED, (1,), "[(1, 1), (1, 2), (2, 1), (2, 2)]"),
        (OPPOSED, (1, 3), "[(1, 1), (1, 2), (2, 1), (2, 2)]"),
        (OPPOSED, (), "[(1, 1), (1, 2), (2, 1), (2, 2)]"),
    ])
    def test_rejects_unknown_cases(self, params, case, cases):
        with pytest.raises(DomainError) as info:
            improved_cone(case, params)
        assert str(info.value) == f"{params.regime.value} case must be one of {cases}, got {case}"

    @pytest.mark.parametrize("alpha,case", [(1e200, (2,)), (1e200, (3,)), (1e160, (2,)),
                                            (1e160, (3,)), (1e154, (3,))])
    def test_overflow_is_a_domain_error(self, alpha, case):
        # alpha^2 beta overflows: the published formula would give Cone(0.0, 0.0)
        with pytest.raises(ShearOverflowError, match="overflows double precision"):
            improved_cone(case, ShearParams(alpha, 1.0))

    def test_keeps_large_finite_shears(self):
        # 2 * alpha^2 beta is 2e308 at alpha = 1e154, but alpha^2 beta is finite
        assert improved_cone((2,), ShearParams(1e154, 1.0)).hi == 1e-154

    def test_image_containment(self):
        # image of the global cone under K(a, b) lies inside the matching case cone
        rng = np.random.default_rng(33)
        for _ in range(300):
            alpha, beta = rng.uniform(1, 10, size=2)
            params = ShearParams.infer(alpha, beta)
            a, b = (int(v) for v in rng.integers(1, 31, size=2))
            case = (1,) if a < b else (2,) if a == b else (3,)
            sub = improved_cone(case, params)
            for s in np.linspace(0.0, 1.0 / alpha, 20):
                img = map_slope(k_ab(BlockExponents(a, b), params), float(s))
                assert sub.contains_slope(img, tol=1e-9)


class TestOpposedCone:
    def test_interval(self):
        c = invariant_cone(OPPOSED)
        assert c.lo == pytest.approx(GAMMA_33, abs=1e-12)
        assert c.hi == 0.0

    def test_invariance_sampled(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            alpha = rng.uniform(-10, -2.1)
            beta = rng.uniform(2.1, 10)
            params = ShearParams.infer(alpha, beta)
            g = gamma(params)
            a, b = rng.integers(1, 31, size=2)
            s = rng.uniform(g, 0.0, size=50)
            x, y = a * alpha, b * beta
            img = (s + y) / (x * s + 1.0 + x * y)
            assert np.all(img <= 1e-15)
            assert np.all(img >= g * (1 + 1e-12))

    def test_minimality(self):
        params = OPPOSED
        g = gamma(params)
        assert map_slope(k_ab(BlockExponents(1, 1), params), g) == pytest.approx(g, abs=1e-12)
        assert abs(map_slope(k_ab(BlockExponents(10_000, 1), params), g)) < 1e-3


class TestGammaMab:
    def test_identity_case(self):
        assert gamma_mab(1, 1, OPPOSED) == pytest.approx(gamma(OPPOSED), abs=1e-14)

    def test_frozen_values(self):
        g = GAMMA_33
        want_22 = (g + 6.0) / (-6.0 * g - 35.0)
        want_21 = (g + 3.0) / (-6.0 * g - 17.0)
        assert gamma_mab(2, 2, OPPOSED) == pytest.approx(want_22, abs=1e-14)
        assert gamma_mab(2, 2, OPPOSED) == pytest.approx(-0.17176222822702075, abs=1e-12)
        assert gamma_mab(2, 1, OPPOSED) == pytest.approx(want_21, abs=1e-14)
        assert gamma_mab(2, 1, OPPOSED) == pytest.approx(-0.1779982111184266, abs=1e-12)

    def test_rejects_bad_case(self):
        with pytest.raises(DomainError):
            gamma_mab(0, 1, OPPOSED)
        with pytest.raises(DomainError):
            gamma_mab(1, 3, OPPOSED)

    @pytest.mark.parametrize(
        "m_a,m_b,a_range,b_range",
        [
            (2, 1, range(2, 21), range(1, 2)),
            (1, 2, range(1, 2), range(2, 21)),
            (2, 2, range(2, 21), range(2, 21)),
        ],
    )
    def test_bounds_image_slopes(self, m_a, m_b, a_range, b_range):
        # gamma_mab is the lowest slope the matching blocks can produce from the cone
        params = OPPOSED
        g = gamma(params)
        bound = gamma_mab(m_a, m_b, params)
        worst = 0.0
        for a in a_range:
            for b in b_range:
                for s in np.linspace(g, 0.0, 15):
                    img = map_slope(k_ab(BlockExponents(a, b), params), float(s))
                    worst = min(worst, img)
                    assert img >= bound - 1e-12
        # the bound is attained (at the smallest block of the case, from slope Gamma)
        assert worst == pytest.approx(bound, abs=1e-12)

    def test_improved_cone_intervals(self):
        c11 = improved_cone((1, 1), OPPOSED)
        assert c11.lo == pytest.approx(GAMMA_33, abs=1e-12)
        assert c11.hi == pytest.approx(3.0 / (1.0 - 9.0), abs=1e-14)
        c12 = improved_cone((1, 2), OPPOSED)
        assert c12.hi == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert improved_cone((2, 1), OPPOSED).hi == 0.0
        assert improved_cone((2, 2), OPPOSED).hi == 0.0
        for case in ((1, 2), (2, 1), (2, 2)):
            assert improved_cone(case, OPPOSED).lo == gamma_mab(*case, OPPOSED)

    def test_image_containment_negative(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            alpha = rng.uniform(-8, -2.2)
            beta = rng.uniform(2.2, 8)
            params = ShearParams.infer(alpha, beta)
            g = gamma(params)
            a, b = (int(v) for v in rng.integers(1, 21, size=2))
            sub = improved_cone((min(a, 2), min(b, 2)), params)
            for s in np.linspace(g, 0.0, 12):
                img = map_slope(k_ab(BlockExponents(a, b), params), float(s))
                assert sub.contains_slope(img, tol=1e-9)


class TestConeContainsSlope:
    def test_examples(self):
        pos = invariant_cone(ShearParams.infer(1, 1))
        assert pos.contains_slope(0.5)
        assert not pos.contains_slope(2.0)
        assert invariant_cone(OPPOSED).contains_slope(-0.2)

    def test_cone_validation(self):
        with pytest.raises(DomainError):
            Cone(1.0, 0.0)
