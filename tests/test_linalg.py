import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shearlyap import (
    BlockExponents,
    DomainError,
    Regime,
    ShearParams,
    k_ab,
    spectral_norm_batch,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def mat_close(m: np.ndarray, entries, tol=1e-12):
    return m.shape == (2, 2) and bool(np.all(np.abs(m - np.array(entries)) <= tol))


def shears(params: ShearParams) -> tuple[np.ndarray, np.ndarray]:
    """The lower shear A and the upper shear B."""
    return (np.array([[1.0, 0.0], [params.alpha, 1.0]]),
            np.array([[1.0, params.beta], [0.0, 1.0]]))


def power_product(block: BlockExponents, params: ShearParams) -> np.ndarray:
    """Oracle: A^a B^b by numpy matrix powers."""
    a, b = shears(params)
    return np.linalg.matrix_power(a, block.a) @ np.linalg.matrix_power(b, block.b)


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
            ShearParams(0.9, 1.0)
        with pytest.raises(DomainError):
            ShearParams(-2.0, 2.5)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 2.0), (2.0, math.inf), (-math.inf, 3.0),
                                            (math.nan, 2.0), (-3.0, math.nan)])
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(DomainError, match="finite"):
            ShearParams.infer(alpha, beta)
        with pytest.raises(DomainError, match="finite"):
            ShearParams(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(5, 5), (2, 3), (-3, 3), (300, 1), (10**10, 1),
                                            (np.float64(2.5), np.int64(4))])
    def test_stores_floats(self, alpha, beta):
        p = ShearParams(alpha, beta)
        assert type(p.alpha) is float and type(p.beta) is float
        assert (p.alpha, p.beta) == (float(alpha), float(beta))
        assert p == ShearParams(float(alpha), float(beta))

    @pytest.mark.parametrize("alpha,beta", [(10**400, 1), (2, -(10**400))],
                             ids=["alpha", "beta"])
    def test_rejects_integers_beyond_a_double(self, alpha, beta):
        with pytest.raises(DomainError, match="finite"):
            ShearParams(alpha, beta)

    def test_fields_are_the_shears(self):
        assert [f.name for f in dataclasses.fields(ShearParams)] == ["alpha", "beta"]

    @given(st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)),
           st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)))
    def test_regime_is_the_sign_rule(self, alpha, beta):
        positive = alpha >= 1.0 and beta >= 1.0
        opposed = alpha < -2.0 and beta > 2.0
        try:
            p = ShearParams(alpha, beta)
        except DomainError:
            assert not (positive or opposed)
            return
        assert p.regime is (Regime.POSITIVE_PAIR if positive else Regime.OPPOSED_PAIR)
        assert positive or opposed
        q = ShearParams.infer(alpha, beta)
        assert p == q and hash(p) == hash(q)


class TestKab:
    def test_unit_shears(self):
        m = k_ab(BlockExponents(1, 1), ShearParams.infer(1, 1))
        assert mat_close(m, [[1, 1], [1, 2]])

    def test_is_a_float_array(self):
        m = k_ab(BlockExponents(2, 3), ShearParams.infer(1, 1))
        assert isinstance(m, np.ndarray) and m.shape == (2, 2) and m.dtype == np.float64

    def test_a2_b3(self):
        m = k_ab(BlockExponents(2, 3), ShearParams.infer(1, 1))
        assert mat_close(m, [[1, 3], [2, 7]])
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_opposed_matches_hand_product(self):
        # A = [[1,0],[-3,1]], B = [[1,3],[0,1]]: A.B = [[1,3],[-3,-8]]
        params = ShearParams.infer(-3.0, 3.0)
        m = k_ab(BlockExponents(1, 1), params)
        assert mat_close(m, [[1, 3], [-3, -8]])
        a, b = shears(params)
        assert mat_close(m, a @ b)

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
            scale = max(1.0, abs(want[1, 1]))
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_determinant_one_small_range(self):
        # modest entries keep the unit determinant exact to 1e-12 absolute
        rng = np.random.default_rng(11)
        for _ in range(1000):
            params = ShearParams.infer(rng.uniform(1, 3), rng.uniform(1, 3))
            block = BlockExponents(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            assert abs(np.linalg.det(k_ab(block, params)) - 1.0) <= 1e-12

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
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12 * max(1.0, abs(m[1, 1]))

    def test_block_validation(self):
        with pytest.raises(DomainError):
            BlockExponents(0, 1)
        with pytest.raises(DomainError):
            BlockExponents(1, -2)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_batch(np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_unit_block(self):
        # K(1,1) at alpha = beta = 1 has norm golden-ratio squared; the Gram
        # matrix [[2,3],[3,5]] has top eigenvalue (7+sqrt(45))/2 = golden^4
        m = np.array([[1.0, 1.0], [1.0, 2.0]])
        char_poly_root = (7.0 + math.sqrt(45.0)) / 2.0
        assert spectral_norm_batch(m) == pytest.approx(math.sqrt(char_poly_root), abs=1e-12)
        assert spectral_norm_batch(m) == pytest.approx(GOLDEN**2, abs=1e-12)

    def test_diagonal(self):
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        assert spectral_norm_batch(m) == pytest.approx(2.0, abs=1e-15)

    def test_dominates_random_directions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = ShearParams.infer(rng.uniform(1, 8), rng.uniform(1, 8))
            block = BlockExponents(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            m = k_ab(block, params)
            sigma = spectral_norm_batch(m)
            theta = rng.uniform(0, 2 * math.pi, size=40)
            for t in theta:
                x = np.array([math.cos(t), math.sin(t)])
                assert np.linalg.norm(m @ x) <= sigma * (1 + 1e-12)
            _, _, vt = np.linalg.svd(m)
            attained = np.linalg.norm(m @ vt[0]) / np.linalg.norm(vt[0])
            assert attained == pytest.approx(sigma, rel=1e-9)

    def test_batch_agrees_with_numpy(self):
        rng = np.random.default_rng(5)
        mats = rng.normal(size=(50, 2, 2))
        batch = spectral_norm_batch(mats)
        for i in range(50):
            assert batch[i] == pytest.approx(np.linalg.norm(mats[i], 2), rel=1e-12)


def hyperbolic(block, params) -> bool:
    """Trace criterion |tr K| > 2 for the unit-determinant block matrix."""
    return abs(np.trace(k_ab(block, params))) > 2.0


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
