"""Exact 2x2 algebra for products of the two shear generators.

The product model multiplies, in random order, a lower shear A (strength
``alpha``) and an upper shear B (strength ``beta``).  Grouping a run of A's
followed by a run of B's gives the block matrix

    K(a, b) = A^a B^b = [[1, b*beta], [a*alpha, 1 + a*alpha*b*beta]]

which has unit determinant.  Everything here is closed-form double
precision; no general-purpose linear algebra is needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "Regime",
    "NormKind",
    "ShearParams",
    "Mat2",
    "Vec2",
    "BlockExponents",
    "shear_a",
    "shear_b",
    "k_ab",
    "vec_norm",
    "mat_vec",
    "mat_mul",
    "spectral_norm",
    "spectral_norm_batch",
    "top_right_singular_vector",
    "is_hyperbolic",
]


class DomainError(ValueError):
    """Parameter combination outside the supported shear regimes."""


class Regime(enum.Enum):
    """Sign regime of the shear pair."""

    POSITIVE_PAIR = "positive"   # alpha >= 1, beta >= 1
    OPPOSED_PAIR = "opposed"     # alpha < -2, beta > 2


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _require_finite(alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")


@dataclass(frozen=True)
class ShearParams:
    """Shear strengths (alpha, beta) plus their sign regime.

    POSITIVE_PAIR requires alpha >= 1 and beta >= 1.  OPPOSED_PAIR requires
    alpha < -2 and beta > 2, which guarantees |alpha*beta| > 4 and hence
    hyperbolicity of every block matrix.
    """

    alpha: float
    beta: float
    regime: Regime

    def __post_init__(self):
        a, b = self.alpha, self.beta
        _require_finite(a, b)
        if self.regime is Regime.POSITIVE_PAIR:
            if not (a >= 1.0 and b >= 1.0):
                raise DomainError(
                    f"positive regime requires alpha >= 1 and beta >= 1, got alpha={a}, beta={b}"
                )
        elif self.regime is Regime.OPPOSED_PAIR:
            if not (a < -2.0 and b > 2.0):
                raise DomainError(
                    f"opposed regime requires alpha < -2 and beta > 2, got alpha={a}, beta={b}"
                )
        else:  # pragma: no cover - enum exhausts the cases
            raise DomainError(f"unknown regime {self.regime!r}")

    @classmethod
    def infer(cls, alpha: float, beta: float) -> "ShearParams":
        """Build params with the regime inferred from the signs."""
        _require_finite(alpha, beta)
        if alpha >= 1.0 and beta >= 1.0:
            return cls(alpha, beta, Regime.POSITIVE_PAIR)
        if alpha < -2.0 and beta > 2.0:
            return cls(alpha, beta, Regime.OPPOSED_PAIR)
        raise DomainError(
            "alpha must be >= 1 (with beta >= 1) or < -2 (with beta > 2); "
            f"got alpha={alpha}, beta={beta}"
        )


@dataclass(frozen=True)
class Vec2:
    u: float
    v: float

    def norm(self, kind: NormKind) -> float:
        return vec_norm(self, kind)

    def to_array(self) -> np.ndarray:
        return np.array([self.u, self.v], dtype=float)


@dataclass(frozen=True)
class Mat2:
    m11: float
    m12: float
    m21: float
    m22: float

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> float:
        return self.m11 + self.m22

    def apply(self, x: Vec2) -> Vec2:
        return Vec2(self.m11 * x.u + self.m12 * x.v, self.m21 * x.u + self.m22 * x.v)

    def mul(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def to_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=float)


@dataclass(frozen=True)
class BlockExponents:
    """Run lengths (a, b) of one A-run followed by one B-run."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise DomainError(f"block exponents must satisfy a, b >= 1, got ({self.a}, {self.b})")


def shear_a(params: ShearParams) -> Mat2:
    """Lower shear A = [[1, 0], [alpha, 1]]."""
    return Mat2(1.0, 0.0, params.alpha, 1.0)


def shear_b(params: ShearParams) -> Mat2:
    """Upper shear B = [[1, beta], [0, 1]]."""
    return Mat2(1.0, params.beta, 0.0, 1.0)


def k_ab(block: BlockExponents, params: ShearParams) -> Mat2:
    """Block matrix A^a B^b in closed form (unit determinant)."""
    x = block.a * params.alpha
    y = block.b * params.beta
    return Mat2(1.0, y, x, 1.0 + x * y)


def vec_norm(x: Vec2, kind: NormKind) -> float:
    if kind is NormKind.L1:
        return abs(x.u) + abs(x.v)
    if kind is NormKind.L2:
        return math.hypot(x.u, x.v)
    return max(abs(x.u), abs(x.v))


def mat_vec(m: Mat2, x: Vec2) -> Vec2:
    return m.apply(x)


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return m.mul(n)


def _gram(m: Mat2) -> tuple[float, float, float]:
    # entries of M^T M: [[g11, g12], [g12, g22]]
    g11 = m.m11 * m.m11 + m.m21 * m.m21
    g12 = m.m11 * m.m12 + m.m21 * m.m22
    g22 = m.m12 * m.m12 + m.m22 * m.m22
    return g11, g12, g22


def spectral_norm(m: Mat2) -> float:
    """Largest singular value via the closed-form 2x2 eigenproblem of M^T M."""
    g11, g12, g22 = _gram(m)
    half_tr = 0.5 * (g11 + g22)
    disc = math.hypot(0.5 * (g11 - g22), g12)
    return math.sqrt(max(half_tr + disc, 0.0))


def spectral_norm_batch(mats: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack of 2x2 matrices, shape (..., 2, 2)."""
    g11 = mats[..., 0, 0] ** 2 + mats[..., 1, 0] ** 2
    g12 = mats[..., 0, 0] * mats[..., 0, 1] + mats[..., 1, 0] * mats[..., 1, 1]
    g22 = mats[..., 0, 1] ** 2 + mats[..., 1, 1] ** 2
    half_tr = 0.5 * (g11 + g22)
    disc = np.hypot(0.5 * (g11 - g22), g12)
    return np.sqrt(np.maximum(half_tr + disc, 0.0))


def top_right_singular_vector(m: Mat2) -> Vec2:
    """Unit right-singular vector attaining the spectral norm."""
    g11, g12, g22 = _gram(m)
    half_tr = 0.5 * (g11 + g22)
    disc = math.hypot(0.5 * (g11 - g22), g12)
    lam = half_tr + disc
    # eigenvector of the Gram matrix for eigenvalue lam; pick the
    # better-conditioned of the two equivalent forms
    c1 = (g12, lam - g11)
    c2 = (lam - g22, g12)
    u, v = c1 if math.hypot(*c1) >= math.hypot(*c2) else c2
    r = math.hypot(u, v)
    if r == 0.0:  # isotropic matrix (multiple of a rotation)
        return Vec2(1.0, 0.0)
    return Vec2(u / r, v / r)


def is_hyperbolic(block: BlockExponents, params: ShearParams) -> bool:
    """Trace criterion |tr K| > 2 for a unit-determinant matrix."""
    trace = 2.0 + block.a * params.alpha * block.b * params.beta
    return abs(trace) > 2.0
