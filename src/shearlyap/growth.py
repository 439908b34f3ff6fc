"""Per-block growth-ratio bounds for cone vectors.

For a vector X inside the regime's invariant cone, the growth ratio
``|K(a,b) X| / |X|`` in a given norm is sandwiched between a lower
function (phi flavour) and an upper function (psi flavour) that depend
only on (a, b, alpha, beta).  Each function is keyed by its cone family
(BoundFamily) and the regime, which the signs of (alpha, beta) decide,
and by a case key:

* global   - the regime's invariant cone, case ();
* improved - the sub-cones of cones.improved_cone, with its case keys:
             (1,), (2,), (3,) in the positive regime, each holding 1/3
             of the time, and (1, 1), (1, 2), (2, 1), (2, 2) in the
             opposed regime, each 1/4 of the time.  The improved opposed
             family has upper functions only for the L-infinity norm.

Formulas are kept in their published two-branch / rational form rather
than algebraically simplified; every value is positive, and at least 1 in
the positive regime, so q-th powers are monotone in q.

All evaluators accept scalars or numpy arrays for (a, b) and are valid for
real a, b >= 1, not just integers.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .cones import CASES, gamma, gamma_mab, invariant_cone, slope_factor
from .linalg import (
    BlockExponents,
    DomainError,
    NormKind,
    Regime,
    ShearOverflowError,
    ShearParams,
    k_ab,
)

__all__ = [
    "BoundFamily",
    "Side",
    "cases_for",
    "norms_for",
    "evaluator",
    "growth_ratio",
]


class BoundFamily(enum.Enum):
    """Cone family: the global invariant cone, or the improved sub-cones."""

    GLOBAL = "global"
    IMPROVED = "improved"


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


# --------------------------------------------------------------------------
# positive regime, global cone

def _phi_l1(a, b, al, be):
    return 1.0 + al / (1.0 + al) * (a + b * be + a * al * b * be)


def _phi_l2(a, b, al, be):
    w = a * al * b * be
    branch1 = np.sqrt((1.0 + w) ** 2 + (b * be) ** 2)
    branch2 = np.sqrt(
        (al**2 * (1.0 + a + w) ** 2 + (1.0 + al * b * be) ** 2) / (1.0 + al**2)
    )
    return np.minimum(branch1, branch2)


def _phi_linf(a, b, al, be):
    return 1.0 + a * al * b * be


def _psi_l1(a, b, al, be):
    return 1.0 + b * be + a * al * b * be


def _psi_l2(a, b, al, be):
    x = a * al
    y = b * be
    c = (x + y) ** 2 + (x * y) ** 2
    return np.sqrt(0.5 * (2.0 + c + np.sqrt(c * (c + 4.0))))


def _psi_linf(a, b, al, be):
    return 1.0 + a + a * al * b * be


# --------------------------------------------------------------------------
# positive regime, improved cones; s is the cone's slope factor s_m (cones.slope_factor)

def _phi_hat_l1(case, a, b, al, be):
    if case == (1,):
        return _phi_l1(a, b, al, be)
    s = slope_factor(case, al, be)
    num = al * s * (a * al * b * be + b * be + 1.0) + (a * al + 1.0) * (al * be + 1.0)
    den = al * (s + be) + 1.0
    return num / den


def _phi_hat_l2(case, a, b, al, be):
    if case == (1,):
        return _phi_l2(a, b, al, be)
    s = slope_factor(case, al, be)
    w = a * al * b * be
    ab1 = 1.0 + al * be
    branch1 = np.sqrt((1.0 + w) ** 2 + (b * be) ** 2)
    num = (ab1 + al * b * be * s) ** 2 + (a * al * ab1 + al * s * (1.0 + w)) ** 2
    den = ab1**2 + al**2 * s**2
    return np.minimum(branch1, np.sqrt(num / den))


def _psi_hat_linf(case, a, b, al, be):
    if case == (1,):
        return _psi_linf(a, b, al, be)
    s = slope_factor(case, al, be)
    return 1.0 + a * al * b * be + a * (1.0 + al * be) / s


# --------------------------------------------------------------------------
# opposed regime.  g is the lower cone boundary (Gamma, or Gamma_{m_a,m_b}
# for the improved sub-cone of case (m_a, m_b)).

def _phi_t_l1(a, b, al, be, g):
    return (b * be + g - a * al * b * be - 1.0 - a * al * g) / (1.0 - g)


def _phi_t_l2(a, b, al, be, g):
    return np.sqrt(
        ((g + b * be) ** 2 + (1.0 + a * al * g + a * al * b * be) ** 2) / (1.0 + g * g)
    )


def _phi_t_linf(a, b, al, be, g):
    return -a * al * b * be - a * al * g - 1.0


def _psi_t_l1(a, b, al, be):
    return b * be - a * al * b * be - 1.0


def _psi_t_l2(a, b, al, be):
    return np.sqrt((1.0 + a * al * b * be) ** 2 + (b * be) ** 2)


def _psi_t_linf(a, b, al, be):
    return -a * al * b * be - 1.0


def _psi_hat_t_linf(case, a, b, al, be):
    w = a * al * b * be
    if case == (1, 1):
        return -w - 1.0 - a * al * be / (1.0 + al * be)
    if case == (1, 2):
        return -w - 1.0 - a
    return -w - 1.0


# --------------------------------------------------------------------------
# dispatch

def cases_for(family: BoundFamily, regime: Regime) -> list[tuple[int, ...]]:
    """Case keys averaged together in the given family and regime: () for
    the global family, cones.CASES[regime] for the improved one."""
    return [()] if family is BoundFamily.GLOBAL else list(CASES[regime])


def norms_for(family: BoundFamily, regime: Regime, side: Side) -> list[NormKind]:
    """Norms for which the family provides a bound on the given side."""
    return [n for (f, r, n, s) in _EVALUATORS if (f, r, s) == (family, regime, side)]


def _plain(fn):
    """Table entry for a function of (a, b, alpha, beta) alone."""
    return lambda case, p: lambda a, b: fn(a, b, p.alpha, p.beta)


def _cased(fn):
    """Table entry for a function that also takes the case key."""
    return lambda case, p: lambda a, b: fn(case, a, b, p.alpha, p.beta)


def _coned(fn):
    """Table entry for an opposed lower function of the cone's lower slope g:
    Gamma for the global family (case ()), Gamma_{m_a,m_b} for the improved one."""

    def entry(case, p):
        g = gamma_mab(case[0], case[1], p) if case else gamma(p)
        return lambda a, b: fn(a, b, p.alpha, p.beta, g)

    return entry


_GLOBAL, _IMPROVED = BoundFamily.GLOBAL, BoundFamily.IMPROVED
_POS, _OPP = Regime.POSITIVE_PAIR, Regime.OPPOSED_PAIR
_L1, _L2, _LINF = NormKind.L1, NormKind.L2, NormKind.LINF

# (family, regime, norm, side) -> entry(case, params) returning f(a, b)
_EVALUATORS = {
    (_GLOBAL, _POS, _L1, Side.LOWER): _plain(_phi_l1),
    (_GLOBAL, _POS, _L2, Side.LOWER): _plain(_phi_l2),
    (_GLOBAL, _POS, _LINF, Side.LOWER): _plain(_phi_linf),
    (_GLOBAL, _POS, _L1, Side.UPPER): _plain(_psi_l1),
    (_GLOBAL, _POS, _L2, Side.UPPER): _plain(_psi_l2),
    (_GLOBAL, _POS, _LINF, Side.UPPER): _plain(_psi_linf),
    (_IMPROVED, _POS, _L1, Side.LOWER): _cased(_phi_hat_l1),
    (_IMPROVED, _POS, _L2, Side.LOWER): _cased(_phi_hat_l2),
    (_IMPROVED, _POS, _LINF, Side.LOWER): _plain(_phi_linf),
    (_IMPROVED, _POS, _L1, Side.UPPER): _plain(_psi_l1),
    (_IMPROVED, _POS, _L2, Side.UPPER): _plain(_psi_l2),
    (_IMPROVED, _POS, _LINF, Side.UPPER): _cased(_psi_hat_linf),
    (_GLOBAL, _OPP, _L1, Side.LOWER): _coned(_phi_t_l1),
    (_GLOBAL, _OPP, _L2, Side.LOWER): _coned(_phi_t_l2),
    (_GLOBAL, _OPP, _LINF, Side.LOWER): _coned(_phi_t_linf),
    (_GLOBAL, _OPP, _L1, Side.UPPER): _plain(_psi_t_l1),
    (_GLOBAL, _OPP, _L2, Side.UPPER): _plain(_psi_t_l2),
    (_GLOBAL, _OPP, _LINF, Side.UPPER): _plain(_psi_t_linf),
    (_IMPROVED, _OPP, _L1, Side.LOWER): _coned(_phi_t_l1),
    (_IMPROVED, _OPP, _L2, Side.LOWER): _coned(_phi_t_l2),
    (_IMPROVED, _OPP, _LINF, Side.LOWER): _coned(_phi_t_linf),
    (_IMPROVED, _OPP, _LINF, Side.UPPER): _cased(_psi_hat_t_linf),
}


def evaluator(
    family: BoundFamily,
    norm: NormKind,
    side: Side,
    case: tuple[int, ...],
    params: ShearParams,
) -> Callable:
    """Array-capable callable f(a, b) for one bound function of the
    parameters' regime; DomainError for a norm or case it does not have, and
    ShearOverflowError (a DomainError) where a power of Python floats in it
    overflows."""
    what = f"{family.value} {params.regime.value} {side.value}"
    norms = norms_for(family, params.regime, side)
    if norm not in norms:
        raise DomainError(f"{what} bounds exist only for the norms {[n.value for n in norms]}")
    cases = cases_for(family, params.regime)
    if case not in cases:
        raise DomainError(f"{what} case must be one of {cases}, got {case}")
    f = _EVALUATORS[(family, params.regime, norm, side)](case, params)

    def checked(a, b):
        try:
            return f(a, b)
        except OverflowError:
            raise ShearOverflowError(
                f"the {what} {norm.value} bound function overflows double precision at "
                f"alpha={params.alpha}, beta={params.beta}") from None

    return checked


# norm of the vector (u, v)
_VECTOR_NORMS = {
    NormKind.L1: lambda u, v: abs(u) + abs(v),
    NormKind.L2: math.hypot,
    NormKind.LINF: lambda u, v: max(abs(u), abs(v)),
}


def growth_ratio(
    block: BlockExponents, params: ShearParams, x: tuple[float, float], kind: NormKind
) -> float:
    """|K(a,b) x| / |x| in the given norm, for x = (u, v) inside the invariant cone."""
    u, v = x
    if v == 0.0:
        raise DomainError("direction with v = 0 lies outside both invariant cones")
    slope = u / v
    cone = invariant_cone(params)
    if not cone.contains_slope(slope):
        raise DomainError(
            f"slope {slope} outside the invariant cone [{cone.lo}, {cone.hi}]; "
            "the growth bounds are only claimed there"
        )
    (m11, m12), (m21, m22) = k_ab(block, params).tolist()
    norm = _VECTOR_NORMS[kind]
    return norm(m11 * u + m12 * v, m21 * u + m22 * v) / norm(u, v)
