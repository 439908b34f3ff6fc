"""Assembled exponent bounds: Lyapunov, q-moment block values, and entropy.

Per-norm bounds come from averaging log (or q-th powers) of the growth
bound functions over the geometric block distribution.  Because blocks
contain four matrix applications on average, the block-scale Lyapunov
rate is four times the per-application exponent lambda; values are
reported divided by 4, with the block-scale value available as 4 * value.

The q-moment values (gle_bounds, gle_bounds_report, gle_curve,
gle_exact_integer, entropy_bounds) are (1/4) log of a block-scale moment
sum, the published quantity.  For q != 0 they are not bounds on the
per-application generalised exponent l(q) = lim (1/N) log E|X_N|^q: the
number of blocks in N applications is random, and dividing by the mean
block length 4 is valid only for lambda.  At alpha = beta = 1 and q = 2
the exact l(2) is 0.82452 (log of the spectral radius of
M -> (A M A^T + B M B^T) / 2), outside the global envelope
[0.95167, 1.01484].  ROADMAP.md ("Moment exponents that are
per-application enclosures") plans values that do enclose l(q).

Side assignment for the q-moment bounds: for q >= 0 the lower-bound
functions bound the moment sum from below and the upper-bound functions
from above; for q < 0 the roles swap, since all bound functions exceed 1.
This holds in both sign regimes (the pointwise sandwich on the invariant
cone does not depend on the sign of the shears).

A caveat on the improved families for moments: the case average uses the
previous block's run-length comparison, and consecutive blocks share that
randomness, so for q-th moments the case-averaged refinement is a
heuristic rather than a guaranteed enclosure.  In practice it is ordered
and tighter for q >= 0 and for mildly negative q, but for strongly
negative q (beyond about -1 to -2, depending on the shear strengths) the
two improved bounds can cross.  The global family is ordered for every q.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .growth import FunctionFamily, Side, cases_for, evaluator, norms_for
from .linalg import DomainError, NormKind, Regime, ShearParams
from .series import (
    DEFAULT_SERIES,
    SeriesConfig,
    _grid,
    expect_block,
    expect_block_exact_poly,
    kappa,
)

__all__ = [
    "BoundFamily",
    "Bounds",
    "NormBounds",
    "BoundReport",
    "GLECurve",
    "ExactGleBounds",
    "lyapunov_bounds",
    "closed_form_bounds",
    "gle_bounds",
    "gle_bounds_report",
    "gle_exact_integer",
    "entropy_bounds",
    "gle_curve",
]

class BoundFamily(enum.Enum):
    GLOBAL = "global"
    IMPROVED = "improved"


@dataclass(frozen=True)
class Bounds:
    lower: float
    upper: float


@dataclass(frozen=True)
class NormBounds:
    """Bounds from a single norm; a side is None when the family provides none
    (the improved opposed family has upper functions only for L-infinity)."""

    lower: float | None
    upper: float | None


@dataclass(frozen=True)
class BoundReport:
    kind: str                         # "lyapunov" | "gle"
    family: BoundFamily
    q: float | None
    per_norm: dict[NormKind, NormBounds]
    envelope: Bounds                  # max of lowers, min of available uppers


@dataclass(frozen=True)
class GLECurve:
    q_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ExactGleBounds:
    """Integer-q moment bounds with the exact arguments of (1/4) log."""

    q: int
    lower_arg: float
    upper_arg: float
    lower: float
    upper: float


def _function_family(family: BoundFamily, regime: Regime) -> FunctionFamily:
    if regime is Regime.POSITIVE_PAIR:
        return FunctionFamily.GLOBAL if family is BoundFamily.GLOBAL else FunctionFamily.IMPROVED
    return (
        FunctionFamily.GLOBAL_NEG
        if family is BoundFamily.GLOBAL
        else FunctionFamily.IMPROVED_NEG
    )


class _GridCache:
    """Bound-function grids of the latest parameter point, filled lazily.

    A grid is one call of a bound function on the series layer's grid
    1..limit x 1..limit.  It does not depend on q, so every moment order at
    that point reuses it.  Table entries that wrap one function (the plain
    functions shared by several cases or by both families) are the same code
    over the same captured values, and map to one grid.
    """

    def __init__(self):
        self.point = None
        self.grids: dict = {}        # (family, norm, side, case) -> grid
        self.by_function: dict = {}  # evaluator code and captured values -> grid

    def grid(self, ff: FunctionFamily, norm: NormKind, side: Side, case: tuple,
             params: ShearParams, limit: int) -> np.ndarray:
        if self.point != (params, limit):
            self.point, self.grids, self.by_function = (params, limit), {}, {}
        key = (ff, norm, side, case)
        grid = self.grids.get(key)
        if grid is None:
            fn = evaluator(ff, norm, side, case, params)
            shared = (fn.__code__, *(c.cell_contents for c in fn.__closure__ or ()))
            grid = self.by_function.get(shared)
            if grid is None:
                aa, bb, _ = _grid(limit)
                grid = self.by_function[shared] = fn(aa, bb)
                grid.flags.writeable = False
            self.grids[key] = grid
        return grid


_GRIDS = _GridCache()


def _case_mean(ff: FunctionFamily, norm: NormKind, side: Side, params: ShearParams,
               cfg: SeriesConfig, q=None):
    """Integrand over (a, b): case mean of the bound functions (of their q-th
    powers, or the log of the mean when q is None).

    Its first call tabulates the mean on the doubling grid 1..2N x 1..2N
    (N = cfg.max_index) from the cached grids, raising each distinct grid to
    q once and adding the cases in table order as pointwise evaluation
    would; each call returns the table's corner of the shape of a.
    """
    limit = 2 * cfg.max_index
    table = None

    def f(a, b):
        nonlocal table
        if table is None:
            grids = [_GRIDS.grid(ff, norm, side, c, params, limit) for c in cases_for(ff, side)]
            n = len(grids)
            # f^q overflows to inf at large |q|; the series layer reports that sum
            with np.errstate(over="ignore"):
                distinct = {id(g): g for g in grids}.values()
                vals = {id(g): g if q is None else g ** q for g in distinct}
                total = functools.reduce(np.add, (vals[id(g)] for g in grids))
                table = np.log(total / n) if q is None else total / n
        return table[:a.shape[0], :a.shape[1]]
    return f


def _report(params: ShearParams, family: BoundFamily, cfg: SeriesConfig,
            q: float | None = None) -> BoundReport:
    """Per-norm values and envelope: the Lyapunov bounds when q is None, else
    (1/4) log of the q-moment sums, whose lower values come from the
    upper-bound functions when q < 0."""
    ff = _function_family(family, params.regime)

    def values(side: Side) -> dict[NormKind, float]:
        out = {}
        for norm in norms_for(ff, side):
            s = expect_block(_case_mean(ff, norm, side, params, cfg, q), cfg)
            out[norm] = (s if q is None else math.log(s)) / 4.0
        return out

    swap = q is not None and q < 0
    lowers = values(Side.UPPER if swap else Side.LOWER)
    uppers = values(Side.LOWER if swap else Side.UPPER)
    # a norm can miss one side (improved opposed provides upper functions
    # only for L-infinity); the envelope ranges over the available values
    per_norm = {norm: NormBounds(lowers.get(norm), uppers.get(norm)) for norm in NormKind}
    env = Bounds(max(lowers.values()), min(uppers.values()))
    return BoundReport("lyapunov" if q is None else "gle", family, q, per_norm, env)


def lyapunov_bounds(
    params: ShearParams,
    family: BoundFamily = BoundFamily.GLOBAL,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> BoundReport:
    """Per-norm and envelope bounds on the Lyapunov exponent (lambda scale)."""
    return _report(params, family, cfg)


def closed_form_bounds(params: ShearParams) -> Bounds:
    """Closed-form relaxation of the L-infinity bounds (no infinite sums).

    (kappa + log(alpha*beta)) / 4
        <= lambda <=
    (kappa + log(sqrt(alpha*beta) + 1/sqrt(alpha*beta)) + log(1+alpha*beta)/2) / 4
    """
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("closed-form bounds require positive-regime parameters")
    ab = params.alpha * params.beta
    k = kappa()
    lower = (k + math.log(ab)) / 4.0
    upper = (k + math.log(math.sqrt(ab) + 1.0 / math.sqrt(ab)) + 0.5 * math.log1p(ab)) / 4.0
    return Bounds(lower, upper)


def gle_bounds_report(
    q: float,
    params: ShearParams,
    family: BoundFamily = BoundFamily.GLOBAL,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> BoundReport:
    """Per-norm and envelope values of (1/4) log of the block-scale q-moment sum
    (not an enclosure of l(q) for q != 0; see the module docstring)."""
    return _report(params, family, cfg, q)


def gle_bounds(
    q: float,
    params: ShearParams,
    family: BoundFamily = BoundFamily.GLOBAL,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> Bounds:
    return gle_bounds_report(q, params, family, cfg).envelope


def gle_exact_integer(q: int, params: ShearParams) -> ExactGleBounds:
    """Exact integer-q moment bounds by expanding the L-infinity functions.

    (1 + a*alpha*b*beta)^q and (1 + a + a*alpha*b*beta)^q expand into
    monomials a^i b^j whose expectations are exact polylog products; at
    alpha = beta = 1 the log arguments are exact integers.
    """
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("exact integer-q bounds require positive-regime parameters")
    if not isinstance(q, int) or not 1 <= q <= 6:
        raise DomainError(f"q must be an integer in [1, 6], got {q!r}")
    ab = params.alpha * params.beta
    ab_int = int(ab) if float(ab).is_integer() else ab

    def pw(base, exp):
        return base**exp if exp else 1

    lower_coeffs: dict[tuple[int, int], float] = {}
    for j in range(q + 1):
        lower_coeffs[(j, j)] = math.comb(q, j) * pw(ab_int, j)

    upper_coeffs: dict[tuple[int, int], float] = {}
    fact = math.factorial
    for i in range(q + 1):
        for j in range(q + 1 - i):
            k = q - i - j
            c = fact(q) // (fact(i) * fact(j) * fact(k)) * pw(ab_int, k)
            key = (j + k, k)
            upper_coeffs[key] = upper_coeffs.get(key, 0) + c

    lower_arg = expect_block_exact_poly(lower_coeffs)
    upper_arg = expect_block_exact_poly(upper_coeffs)
    return ExactGleBounds(
        q=q,
        lower_arg=lower_arg,
        upper_arg=upper_arg,
        lower=math.log(lower_arg) / 4.0,
        upper=math.log(upper_arg) / 4.0,
    )


def entropy_bounds(params: ShearParams) -> Bounds:
    """Topological-entropy bounds: the q = 1 moment exponent in closed form."""
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("entropy bounds require positive-regime parameters")
    ab = params.alpha * params.beta
    return Bounds(math.log(1.0 + 4.0 * ab) / 4.0, math.log(3.0 + 4.0 * ab) / 4.0)


def gle_curve(
    q_min: float,
    q_max: float,
    n_points: int,
    params: ShearParams,
    family: BoundFamily = BoundFamily.GLOBAL,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> GLECurve:
    """Envelope bounds sampled on a uniform q grid."""
    if not q_min < q_max:
        raise DomainError(f"need q_min < q_max, got [{q_min}, {q_max}]")
    if n_points < 2:
        raise DomainError(f"need n_points >= 2, got {n_points}")
    grid = np.linspace(q_min, q_max, n_points)
    lower = np.empty(n_points)
    upper = np.empty(n_points)
    for i, q in enumerate(grid):
        env = gle_bounds(float(q), params, family, cfg)
        lower[i] = env.lower
        upper[i] = env.upper
    return GLECurve(grid, lower, upper)
