"""Invariant slope cones for the two shear regimes.

A cone is stored as a closed interval [lo, hi] of tangent slopes u/v; the
antipodal sector (u, v both negative) is identified with it.  For positive
shears the invariant cone is [0, 1/alpha].  For opposed shears it is
[Gamma, 0], where Gamma is the slope of the expanding eigenvector of the
block matrix K(1, 1).  Comparing the run lengths a and b of a block lets
the next block start from a strictly smaller cone; those improved cones
are what sharpen the bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import BlockExponents, DomainError, Regime, ShearOverflowError, ShearParams, k_ab

__all__ = [
    "SLOPE_TOL",
    "SlopeUndefinedError",
    "BlockOrder",
    "Cone",
    "cone_positive",
    "cone_negative",
    "gamma",
    "gamma_mab",
    "map_slope",
    "improved_cone_positive",
    "improved_cone_negative",
    "invariant_cone",
    "image_slope",
]

# relative tolerance absorbing rounding at cone edges
SLOPE_TOL = 1e-12


class SlopeUndefinedError(ZeroDivisionError):
    """Projective blow-up: the image (or input) direction has v = 0."""


class BlockOrder(enum.Enum):
    """Comparison of the run lengths within the previous block."""

    A_LT_B = 1
    A_EQ_B = 2
    A_GT_B = 3


@dataclass(frozen=True)
class Cone:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"cone requires lo <= hi, got [{self.lo}, {self.hi}]")

    def contains_slope(self, slope: float, tol: float = SLOPE_TOL) -> bool:
        pad = tol * max(1.0, abs(self.lo), abs(self.hi))
        return self.lo - pad <= slope <= self.hi + pad


def cone_positive(params: ShearParams) -> Cone:
    """Smallest cone [0, 1/alpha] invariant under every block (positive regime)."""
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("cone_positive requires positive-regime parameters")
    return Cone(0.0, 1.0 / params.alpha)


def gamma(params: ShearParams) -> float:
    """Slope of the expanding eigenvector of K(1,1) in the opposed regime.

    Gamma = -beta/2 + sqrt((beta/2)^2 + beta/alpha), always in (-1, 0) for
    alpha < -2, beta > 2.  The value is cross-checked against the
    eigen-decomposition of K(1,1) at every call; shears at which the two
    disagree, or leave (-1, 0), raise DomainError.
    """
    if params.regime is not Regime.OPPOSED_PAIR:
        raise DomainError("gamma requires opposed-regime parameters")
    al, be = params.alpha, params.beta
    if al * be >= -4.0:
        raise DomainError(f"opposed cone undefined for alpha*beta = {al * be} >= -4")
    try:
        g = -be / 2.0 + math.sqrt((be / 2.0) ** 2 + be / al)
    except OverflowError:
        raise ShearOverflowError(f"Gamma overflows double precision at alpha={al}, "
                                 f"beta={be}") from None

    # expanding eigenvalue of K(1,1) and its eigenvector slope beta/(e - 1)
    ab = al * be
    e_minus = 0.5 * (2.0 + ab - math.sqrt(ab * (ab + 4.0)))
    g_eig = be / (e_minus - 1.0)
    # at very unequal shears the formula cancels, to 0.0 at alpha = -2e16, beta = 3
    if abs(g - g_eig) > 1e-9 * max(1.0, abs(g)) or not -1.0 < g < 0.0:
        raise DomainError(
            f"Gamma is lost to rounding at alpha={al}, beta={be}: the formula gives {g}, "
            f"the eigenvector slope {g_eig}"
        )
    return g


def cone_negative(params: ShearParams) -> Cone:
    """Smallest invariant cone [Gamma, 0] for the opposed regime."""
    return Cone(gamma(params), 0.0)


def map_slope(m: np.ndarray, slope: float) -> float:
    """Image of a slope u/v under the projective action of the 2x2 matrix m."""
    (m11, m12), (m21, m22) = m.tolist()
    u = m11 * slope + m12
    v = m21 * slope + m22
    if v == 0.0:
        raise SlopeUndefinedError(f"projective blow-up: slope {slope} maps to v' = 0")
    return u / v


def improved_cone_positive(case: BlockOrder, params: ShearParams) -> Cone:
    """Cone reached after a block whose run lengths compare as `case`.

    a < b leaves the cone unchanged; a = b and a > b shrink the upper
    slope to (1+alpha*beta)/(2*alpha+alpha^2*beta) and
    (1+alpha*beta)/(3*alpha+2*alpha^2*beta) respectively.
    """
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("improved_cone_positive requires positive-regime parameters")
    al, be = params.alpha, params.beta
    if case is BlockOrder.A_LT_B:
        hi = 1.0 / al
    elif case is BlockOrder.A_EQ_B:
        hi = (1.0 + al * be) / (2.0 * al + al * al * be)
    else:
        hi = (1.0 + al * be) / (3.0 * al + 2.0 * al * al * be)
    return Cone(0.0, hi)


def gamma_mab(m_a: int, m_b: int, params: ShearParams) -> float:
    """Lower slope boundary of the cone reached after an opposed block.

    The case indices m_a, m_b in {1, 2} stand for "run length equal to 1"
    and "run length at least 2".  gamma_mab(1, 1) equals gamma itself.
    """
    if m_a not in (1, 2) or m_b not in (1, 2):
        raise DomainError(f"case indices must lie in {{1, 2}}, got ({m_a}, {m_b})")
    g = gamma(params)
    al, be = params.alpha, params.beta
    den = m_a * al * g + m_a * m_b * al * be + 1.0
    if den == 0.0:  # cannot occur for alpha < -2, beta > 2
        raise ArithmeticError("degenerate cone-improvement denominator")
    return (g + m_b * be) / den


def improved_cone_negative(m_a: int, m_b: int, params: ShearParams) -> Cone:
    """Cone reached after an opposed block of case (m_a, m_b).

    Upper boundaries: beta/(1+alpha*beta) for (1,1); 1/alpha for (1,2);
    0 for the two cases with a >= 2.
    """
    lo = gamma_mab(m_a, m_b, params)
    al, be = params.alpha, params.beta
    if (m_a, m_b) == (1, 1):
        hi = be / (1.0 + al * be)
    elif (m_a, m_b) == (1, 2):
        hi = 1.0 / al
    else:
        hi = 0.0
    return Cone(lo, hi)


def invariant_cone(params: ShearParams) -> Cone:
    """The regime's global invariant cone."""
    if params.regime is Regime.POSITIVE_PAIR:
        return cone_positive(params)
    return cone_negative(params)


def image_slope(block: BlockExponents, params: ShearParams, slope: float) -> float:
    """Convenience: slope image under the block matrix K(a, b)."""
    return map_slope(k_ab(block, params), slope)
