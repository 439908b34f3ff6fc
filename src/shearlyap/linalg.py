"""Exact 2x2 algebra for products of the two shear generators.

The product model multiplies, in random order, a lower shear A (strength
``alpha``) and an upper shear B (strength ``beta``).  Grouping a run of A's
followed by a run of B's gives the block matrix

    K(a, b) = A^a B^b = [[1, b*beta], [a*alpha, 1 + a*alpha*b*beta]]

which has unit determinant.  Matrices are numpy arrays of shape (2, 2),
or stacks of them of shape (..., 2, 2); a tangent vector is a plain pair
(u, v) of floats, and cones hold its slope u/v.  Everything here is
closed-form double precision; no general-purpose linear algebra is needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ShearOverflowError",
    "Regime",
    "NormKind",
    "ShearParams",
    "BlockExponents",
    "k_ab",
    "spectral_norm_batch",
]

_NORM_SLICE = 1 << 16  # matrices per slice of spectral_norm_batch


class DomainError(ValueError):
    """Parameter combination outside the supported shear regimes."""


class ShearOverflowError(DomainError, OverflowError):
    """A shear so large that a power of it overflows double precision.  It is
    an OverflowError too, so callers that report overflow keep catching it."""


class Regime(enum.Enum):
    """Sign regime of the shear pair."""

    POSITIVE_PAIR = "positive"   # alpha >= 1, beta >= 1
    OPPOSED_PAIR = "opposed"     # alpha < -2, beta > 2


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


@dataclass(frozen=True)
class ShearParams:
    """Shear strengths (alpha, beta); their signs decide the regime.

    POSITIVE_PAIR is alpha >= 1 and beta >= 1.  OPPOSED_PAIR is alpha < -2
    and beta > 2, which guarantees |alpha*beta| > 4 and hence hyperbolicity
    of every block matrix.  Any other pair, or a non-finite one, raises
    DomainError.  Both are stored as Python floats, so integer shears compute
    with the same doubles as the floats they equal; an integer beyond the
    range of a double raises DomainError.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        try:
            a, b = float(self.alpha), float(self.beta)
        except OverflowError:
            raise DomainError("alpha and beta must be finite, got an integer beyond the "
                              "range of a double") from None
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"alpha and beta must be finite, got alpha={a}, beta={b}")
        if not (a >= 1.0 and b >= 1.0) and not (a < -2.0 and b > 2.0):
            raise DomainError(
                "alpha must be >= 1 (with beta >= 1) or < -2 (with beta > 2); "
                f"got alpha={a}, beta={b}"
            )

    @property
    def regime(self) -> Regime:
        return Regime.POSITIVE_PAIR if self.alpha >= 1.0 else Regime.OPPOSED_PAIR

    @classmethod
    def infer(cls, alpha: float, beta: float) -> "ShearParams":
        """Alias of ShearParams(alpha, beta)."""
        return cls(alpha, beta)


@dataclass(frozen=True)
class BlockExponents:
    """Run lengths (a, b) of one A-run followed by one B-run."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise DomainError(f"block exponents must satisfy a, b >= 1, got ({self.a}, {self.b})")


def k_ab(block: BlockExponents, params: ShearParams) -> np.ndarray:
    """Block matrix A^a B^b in closed form (unit determinant), shape (2, 2)."""
    x = block.a * params.alpha
    y = block.b * params.beta
    return np.array([[1.0, y], [x, 1.0 + x * y]])


def spectral_norm_batch(mats: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack of 2x2 matrices, shape (..., 2, 2).

    Works through the stack in slices of _NORM_SLICE matrices, so its
    temporaries stay small however many matrices there are.
    """
    flat = mats.reshape(-1, 2, 2)
    out = np.empty(len(flat))
    for lo in range(0, len(flat), _NORM_SLICE):
        m = flat[lo:lo + _NORM_SLICE]
        g11 = m[:, 0, 0] ** 2 + m[:, 1, 0] ** 2
        g12 = m[:, 0, 0] * m[:, 0, 1] + m[:, 1, 0] * m[:, 1, 1]
        g22 = m[:, 0, 1] ** 2 + m[:, 1, 1] ** 2
        half_tr = 0.5 * (g11 + g22)
        disc = np.hypot(0.5 * (g11 - g22), g12)
        out[lo:lo + _NORM_SLICE] = np.sqrt(np.maximum(half_tr + disc, 0.0))
    return out.reshape(mats.shape[:-2])

