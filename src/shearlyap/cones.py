"""Invariant slope cones for the two shear regimes.

A cone is stored as a closed interval [lo, hi] of tangent slopes u/v; the
antipodal sector (u, v both negative) is identified with it.  For positive
shears the invariant cone is [0, 1/alpha].  For opposed shears it is
[Gamma, 0], where Gamma is the slope of the expanding eigenvector of the
block matrix K(1, 1).  Comparing the run lengths a and b of a block lets
the next block start from a strictly smaller cone; those improved cones
are what sharpen the bounds.

One case key names an improved cone, and the improved bound functions of
growth use the same key.  After a block K(a, b) the case is (1,), (2,) or
(3,) for a < b, a = b or a > b in the positive regime, and
(min(a, 2), min(b, 2)) in the opposed regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, Regime, ShearOverflowError, ShearParams

__all__ = [
    "SlopeUndefinedError",
    "Cone",
    "gamma",
    "gamma_mab",
    "map_slope",
    "improved_cone",
    "invariant_cone",
]

# relative tolerance absorbing rounding at cone edges
SLOPE_TOL = 1e-12

# each regime's case keys, in the order the engine averages their bounds
CASES = {
    Regime.POSITIVE_PAIR: ((1,), (2,), (3,)),
    Regime.OPPOSED_PAIR: ((1, 1), (1, 2), (2, 1), (2, 2)),
}


class SlopeUndefinedError(ZeroDivisionError):
    """Projective blow-up: the image (or input) direction has v = 0."""


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


def map_slope(m: np.ndarray, slope: float) -> float:
    """Image of a slope u/v under the projective action of the 2x2 matrix m."""
    (m11, m12), (m21, m22) = m.tolist()
    u = m11 * slope + m12
    v = m21 * slope + m22
    if v == 0.0:
        raise SlopeUndefinedError(f"projective blow-up: slope {slope} maps to v' = 0")
    return u / v


def gamma_mab(m_a: int, m_b: int, params: ShearParams) -> float:
    """Lower slope boundary of the cone reached after an opposed block.

    The case indices m_a, m_b in {1, 2} stand for "run length equal to 1"
    and "run length at least 2".  gamma_mab(1, 1) equals gamma itself.
    The denominator is below -1 for alpha < -2, beta > 2.
    """
    if m_a not in (1, 2) or m_b not in (1, 2):
        raise DomainError(f"case indices must lie in {{1, 2}}, got ({m_a}, {m_b})")
    g = gamma(params)
    al, be = params.alpha, params.beta
    return (g + m_b * be) / (m_a * al * g + m_a * m_b * al * be + 1.0)


def slope_factor(case: tuple[int, ...], al: float, be: float) -> float:
    """s_m of the positive improved cone of case (m,), m = 2 or 3, whose upper slope
    is (1 + al*be) / (al * s_m): s_2 = 2 + al*be and s_3 = 3 + 2*al*be."""
    return 2.0 + al * be if case == (2,) else 3.0 + 2.0 * al * be


def improved_cone(case: tuple[int, ...], params: ShearParams) -> Cone:
    """Cone reached after a block of the given case (see the module docstring).

    Positive regime: (1,) leaves [0, 1/alpha] unchanged; (2,) and (3,)
    shrink the upper slope to (1+alpha*beta)/(alpha*s_m), s_m = slope_factor.
    Opposed regime: the lower slope is gamma_mab(m_a, m_b), and the upper
    slope is beta/(1+alpha*beta) for (1, 1), 1/alpha for (1, 2) and 0 for the
    two cases with a >= 2.  ShearOverflowError where a denominator overflows.
    """
    cases = CASES[params.regime]
    if case not in cases:
        raise DomainError(f"{params.regime.value} case must be one of {list(cases)}, got {case}")
    al, be = params.alpha, params.beta
    if params.regime is Regime.OPPOSED_PAIR:
        lo = gamma_mab(case[0], case[1], params)
        if case == (1, 1):
            return Cone(lo, be / (1.0 + al * be))
        return Cone(lo, 1.0 / al if case == (1, 2) else 0.0)
    if case == (1,):
        return Cone(0.0, 1.0 / al)
    den = al * slope_factor(case, al, be)
    if not math.isfinite(den):
        raise ShearOverflowError(f"the improved cone of case {case} overflows double "
                                 f"precision at alpha={al}, beta={be}")
    return Cone(0.0, (1.0 + al * be) / den)


def invariant_cone(params: ShearParams) -> Cone:
    """The regime's global invariant cone: [0, 1/alpha] for positive shears,
    [Gamma, 0] for opposed ones."""
    if params.regime is Regime.POSITIVE_PAIR:
        return Cone(0.0, 1.0 / params.alpha)
    return Cone(gamma(params), 0.0)
