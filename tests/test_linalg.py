import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shearlyap import (
    BlockExponents,
    DomainError,
    Mat2,
    NormKind,
    Regime,
    ShearParams,
    Vec2,
    k_ab,
    shear_a,
    shear_b,
    spectral_norm,
    spectral_norm_batch,
    vec_norm,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def mat_close(m: Mat2, entries, tol=1e-12):
    (e11, e12), (e21, e22) = entries
    return (
        abs(m.m11 - e11) <= tol
        and abs(m.m12 - e12) <= tol
        and abs(m.m21 - e21) <= tol
        and abs(m.m22 - e22) <= tol
    )


def power_product(block: BlockExponents, params: ShearParams) -> Mat2:
    """Oracle: A^a B^b by repeated multiplication."""
    acc = Mat2(1.0, 0.0, 0.0, 1.0)
    for _ in range(block.b):
        acc = shear_b(params).mul(acc)
    for _ in range(block.a):
        acc = shear_a(params).mul(acc)
    return acc


class TestShearParams:
    def test_infer_positive(self):
        p = ShearParams.infer(1.0, 2.5)
        assert p.regime is Regime.POSITIVE_PAIR

    def test_infer_opposed(self):
        p = ShearParams.infer(-3.0, 3.0)
        assert p.regime is Regime.OPPOSED_PAIR

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (-2.0, 3.0), (-3.0, 2.0), (0.0, 0.0)])
    def test_infer_rejects(self, alpha, beta):
        with pytest.raises(DomainError):
            ShearParams.infer(alpha, beta)

    def test_explicit_regime_validated(self):
        with pytest.raises(DomainError):
            ShearParams(0.9, 1.0, Regime.POSITIVE_PAIR)
        with pytest.raises(DomainError):
            ShearParams(-2.0, 2.5, Regime.OPPOSED_PAIR)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 2.0), (2.0, math.inf), (-math.inf, 3.0),
                                            (math.nan, 2.0), (-3.0, math.nan)])
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(DomainError, match="finite"):
            ShearParams.infer(alpha, beta)
        regime = Regime.POSITIVE_PAIR if beta <= 2.0 else Regime.OPPOSED_PAIR
        with pytest.raises(DomainError, match="finite"):
            ShearParams(alpha, beta, regime)


class TestKab:
    def test_unit_shears(self):
        m = k_ab(BlockExponents(1, 1), ShearParams.infer(1, 1))
        assert mat_close(m, [[1, 1], [1, 2]])

    def test_a2_b3(self):
        m = k_ab(BlockExponents(2, 3), ShearParams.infer(1, 1))
        assert mat_close(m, [[1, 3], [2, 7]])
        assert abs(m.det() - 1.0) <= 1e-12

    def test_opposed_matches_hand_product(self):
        # A = [[1,0],[-3,1]], B = [[1,3],[0,1]]: A.B = [[1,3],[-3,-8]]
        params = ShearParams.infer(-3.0, 3.0)
        m = k_ab(BlockExponents(1, 1), params)
        assert mat_close(m, [[1, 3], [-3, -8]])
        oracle = shear_a(params).mul(shear_b(params))
        assert mat_close(m, [[oracle.m11, oracle.m12], [oracle.m21, oracle.m22]])

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            if rng.random() < 0.5:
                params = ShearParams.infer(rng.uniform(1, 5), rng.uniform(1, 5))
            else:
                params = ShearParams.infer(rng.uniform(-6, -2.1), rng.uniform(2.1, 6))
            block = BlockExponents(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            got = k_ab(block, params)
            want = power_product(block, params)
            scale = max(1.0, abs(want.m22))
            for g, w in zip(
                (got.m11, got.m12, got.m21, got.m22),
                (want.m11, want.m12, want.m21, want.m22),
            ):
                assert abs(g - w) <= 1e-12 * scale

    def test_determinant_one_small_range(self):
        # modest entries keep the unit determinant exact to 1e-12 absolute
        rng = np.random.default_rng(11)
        for _ in range(1000):
            params = ShearParams.infer(rng.uniform(1, 3), rng.uniform(1, 3))
            block = BlockExponents(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            assert abs(k_ab(block, params).det() - 1.0) <= 1e-12

    def test_determinant_one_relative(self):
        # for large a*alpha*b*beta the check is relative to the matrix scale
        rng = np.random.default_rng(13)
        for _ in range(1000):
            if rng.random() < 0.5:
                params = ShearParams.infer(rng.uniform(1, 10), rng.uniform(1, 10))
            else:
                params = ShearParams.infer(rng.uniform(-10, -2.1), rng.uniform(2.1, 10))
            block = BlockExponents(int(rng.integers(1, 31)), int(rng.integers(1, 31)))
            m = k_ab(block, params)
            assert abs(m.det() - 1.0) <= 1e-12 * max(1.0, abs(m.m22))

    def test_block_validation(self):
        with pytest.raises(DomainError):
            BlockExponents(0, 1)
        with pytest.raises(DomainError):
            BlockExponents(1, -2)


class TestNorms:
    def test_vec_norm_values(self):
        x = Vec2(3.0, -4.0)
        assert vec_norm(x, NormKind.L2) == 5.0
        assert vec_norm(x, NormKind.L1) == 7.0
        assert vec_norm(x, NormKind.LINF) == 4.0

    def test_zero_iff_zero(self):
        assert vec_norm(Vec2(0.0, 0.0), NormKind.L2) == 0.0
        assert vec_norm(Vec2(1e-300, 0.0), NormKind.L1) > 0.0

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_norm_chain(self, u, v):
        x = Vec2(u, v)
        linf = vec_norm(x, NormKind.LINF)
        l2 = vec_norm(x, NormKind.L2)
        l1 = vec_norm(x, NormKind.L1)
        assert linf <= l2 * (1 + 1e-15) and l2 <= l1 * (1 + 1e-15)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(Mat2(1, 0, 0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_unit_block(self):
        # K(1,1) at alpha = beta = 1 has norm golden-ratio squared; the Gram
        # matrix [[2,3],[3,5]] has top eigenvalue (7+sqrt(45))/2 = golden^4
        m = Mat2(1, 1, 1, 2)
        char_poly_root = (7.0 + math.sqrt(45.0)) / 2.0
        assert spectral_norm(m) == pytest.approx(math.sqrt(char_poly_root), abs=1e-12)
        assert spectral_norm(m) == pytest.approx(GOLDEN**2, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(Mat2(2, 0, 0, 0.5)) == pytest.approx(2.0, abs=1e-15)

    def test_dominates_random_directions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = ShearParams.infer(rng.uniform(1, 8), rng.uniform(1, 8))
            block = BlockExponents(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            m = k_ab(block, params)
            sigma = spectral_norm(m)
            theta = rng.uniform(0, 2 * math.pi, size=40)
            for t in theta:
                x = Vec2(math.cos(t), math.sin(t))
                assert vec_norm(m.apply(x), NormKind.L2) <= sigma * (1 + 1e-12)
            _, _, vt = np.linalg.svd(np.array([[m.m11, m.m12], [m.m21, m.m22]]))
            top = Vec2(*vt[0])
            attained = vec_norm(m.apply(top), NormKind.L2) / vec_norm(top, NormKind.L2)
            assert attained == pytest.approx(sigma, rel=1e-9)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        mats = rng.normal(size=(50, 2, 2))
        batch = spectral_norm_batch(mats)
        for i in range(50):
            m = Mat2(*mats[i].ravel())
            assert batch[i] == pytest.approx(spectral_norm(m), rel=1e-12)


def hyperbolic(block, params) -> bool:
    """Trace criterion |tr K| > 2 for the unit-determinant block matrix."""
    return abs(k_ab(block, params).trace()) > 2.0


class TestHyperbolicity:
    def test_positive_unit(self):
        assert hyperbolic(BlockExponents(1, 1), ShearParams.infer(1, 1))

    def test_borderline_product(self):
        # trace 2 + a*alpha*b*beta = -2 exactly: not hyperbolic
        fake = SimpleNamespace(alpha=-2.0, beta=2.0)
        assert not hyperbolic(BlockExponents(1, 1), fake)

    def test_opposed(self):
        assert hyperbolic(BlockExponents(1, 1), ShearParams.infer(-3, 3))

    def test_opposed_always_hyperbolic(self):
        params = ShearParams.infer(-2.5, 2.5)
        for a in range(1, 8):
            for b in range(1, 8):
                assert hyperbolic(BlockExponents(a, b), params)
