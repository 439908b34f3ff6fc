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

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .growth import BoundFamily, Side, cases_for, evaluator, function_case, norms_for
from .linalg import DomainError, NormKind, Regime, ShearParams, _integer
from .series import (
    DEFAULT_SERIES,
    LazyTable,
    NonConvergenceError,
    SeriesConfig,
    _padded,
    expect_block,
    expect_block_exact_poly,
    grid,
    kappa,
)

__all__ = [
    "BoundFamily",
    "Bounds",
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

@dataclass(frozen=True)
class Bounds:
    """A lower and an upper value.  In a report's per-norm bounds a side is
    None when the family provides none (the improved opposed family has
    upper functions only for L-infinity)."""

    lower: float | None
    upper: float | None


@dataclass(frozen=True)
class BoundReport:
    family: BoundFamily
    per_norm: dict[NormKind, Bounds]

    @property
    def envelope(self) -> Bounds:
        """Max of the lowers, min of the uppers, over the sides the norms
        provide (improved opposed has upper functions only for L-infinity)."""
        lowers = [nb.lower for nb in self.per_norm.values() if nb.lower is not None]
        uppers = [nb.upper for nb in self.per_norm.values() if nb.upper is not None]
        if not lowers or not uppers:
            names = sorted(norm.value for norm in self.per_norm)
            raise DomainError(f"norms {names} provide no two-sided envelope")
        return Bounds(max(lowers), min(uppers))


@dataclass(frozen=True)
class GLECurve:
    q_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ExactGleBounds:
    """Integer-q moment bounds with the exact arguments of (1/4) log."""

    lower_arg: float
    upper_arg: float
    lower: float
    upper: float


def _require_finite(what: str, params: ShearParams, *values: float) -> None:
    """DomainError when a closed-form value overflows at extreme shears."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} overflow double precision at alpha={params.alpha}, "
                          f"beta={params.beta}: got {list(values)}")


# one parameter point's distinct bound functions across both families, in the
# regime with more of them (12 positive, 20 opposed)
_GRID_CACHE_SIZE = max(
    len({(norm, side, function_case(regime, norm, side, case))
         for family in BoundFamily for side in Side
         for norm in norms_for(family, regime, side) for case in cases_for(family, regime)})
    for regime in Regime
)


class _BoundGrid:
    """A bound function f on series.grid(limit): its values on a leading run, each
    point evaluated once.  overflow is None unless f(limit, limit), its greatest
    value on the grid (f is nondecreasing in a and b), is inf or nan."""

    @np.errstate(over="ignore", invalid="ignore")  # inf and nan values: their sums are reported
    def __init__(self, fn, limit: int, overflow: str):
        self._fn, self._values = fn, np.empty(0)
        self._a, self._b, _ = grid(limit)
        corner = fn(self._a[-1:], self._b[-1:])  # the last point of the grid is (limit, limit)
        self.overflow = None if np.isfinite(corner).all() else overflow

    @np.errstate(over="ignore", invalid="ignore")
    def head(self, m: int) -> np.ndarray:
        """The values on the first m points of the grid, read-only."""
        done = self._values.size
        if done < m:  # extended, never evaluated again
            self._values = np.append(self._values, self._fn(self._a[done:m], self._b[done:m]))
            self._values.flags.writeable = False
        return self._values[:m]


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _bound_grid(norm: NormKind, side: Side, case: tuple, params: ShearParams,
                limit: int) -> _BoundGrid:
    """The bound function of a growth.function_case on series.grid(limit), for
    every moment order at the point.  Its Python float powers depend on the
    shears alone, so its first evaluation raises any OverflowError."""
    family = BoundFamily.IMPROVED if case else BoundFamily.GLOBAL
    overflow = (f"series terms are not finite: the {family.value} {params.regime.value} "
                f"{side.value} {norm.value} bound function overflows double precision at "
                f"alpha={params.alpha}, beta={params.beta}")
    try:
        return _BoundGrid(evaluator(family, norm, side, case, params), limit, overflow)
    except OverflowError:  # from a power of Python floats
        raise NonConvergenceError(overflow) from None


def _case_mean(family: BoundFamily, norm: NormKind, side: Side, params: ShearParams, q=None):
    """Integrand over the series layer's grid (a, b): the case mean of the cached
    grids of the cases' functions (of their q-th powers, or the log of the mean when
    q is None), one term per case in table order, as pointwise evaluation adds them.
    It returns a series.LazyTable, whose values on a leading run of the grid are
    computed on request and bounded on each antidiagonal by _antidiagonal_bound.
    For q None or q > 0, a grid whose values overflow raises its error: their log,
    and their powers, are not finite (for q <= 0, inf ** q is 1 or 0, and the
    bound is inf, so the sum reads the whole grid).  Where the values are finite
    and their powers, or the sum of those, overflow, the moment sum is refused
    by its name."""
    def f(a, b):
        limit = math.isqrt(a.size)
        cases = [function_case(params.regime, norm, side, c)
                 for c in cases_for(family, params.regime)]
        grids = [_bound_grid(norm, side, c, params, limit) for c in cases]
        overflows = [g.overflow for g in grids if g.overflow is not None]
        if overflows and (q is None or q > 0):
            raise NonConvergenceError(overflows[0])

        def head(m):
            heads = [g.head(m) for g in grids]
            if q is None:
                with np.errstate(over="ignore"):
                    return np.log(functools.reduce(np.add, heads) / len(grids))
            try:  # f^q may overflow where f does not: the sum is refused by name
                with np.errstate(over="raise"):
                    total = functools.reduce(np.add, (h ** q for h in heads))
            except FloatingPointError:
                raise NonConvergenceError(
                    f"series terms are not finite: the {side.value} {norm.value} moment sum at "
                    f"q = {q} overflows double precision; a larger max_index cannot help"
                ) from None
            return total / len(grids)

        bound = _antidiagonal_bound(params, q, limit)
        return LazyTable(head, np.full(bound.size, math.inf) if overflows else bound)
    return f


def _log_sums(x: float, q, limit: int) -> tuple[float, float]:
    """log S and log T, where S = sum_{a >= 1} 2^-a g(a), T is its part over
    a > limit, and g(a) = (1 + a x)^q, or log(1 + a x) when q is None.  The
    terms are summed in log space up to a = limit + 64.  Past it each term is
    at most r times the one before, r the ratio of terms limit + 65 and
    limit + 64 (the ratios fall with a), so the terms from limit + 65 on sum
    to at most term limit + 64 times r / (1 - r), and to inf for r >= 1."""
    a = np.arange(1.0, limit + 66)
    log_g = np.log1p(a * x)
    logs = (np.log(log_g) if q is None else q * log_g) - a * math.log(2.0)
    r = np.exp(logs[-1] - logs[-2])
    logs[-1] = logs[-2] + np.log(r / (1.0 - r)) if r < 1.0 else math.inf
    return float(np.logaddexp.reduce(logs)), float(np.logaddexp.reduce(logs[limit:]))


def _tail_bound(params: ShearParams, q, limit: int) -> float:
    """A bound on sum 2^-(a+b) |f(a, b)| over the points outside grid(limit)
    for every integrand _case_mean forms at the point.  Every bound function
    lies between 1 and F = (1 + a |alpha|)(1 + b |beta|) (a test checks each
    one), so for q > 0 |f| <= F^q = g(a) h(b), which outside the grid sums to
    at most T_g S_h + S_g T_h (_log_sums; h is g for beta); the log is at most
    log F = g(a) + h(b) with g(a) = log(1 + a |alpha|), which sums to at most
    T_g + T_h + 2^-limit (S_g + S_h); and for q <= 0 f^q <= 1, whose weights
    outside the grid sum to less than 2^(1 - limit).  Padded for rounding;
    inf where a sum overflows."""
    if q is not None and q <= 0:
        return _padded(math.ldexp(1.0, 1 - limit))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (s_g, t_g), (s_h, t_h) = (_log_sums(abs(x), q, limit) for x in (params.alpha, params.beta))
        if q is None:
            shift = limit * math.log(2.0)
            logs = [t_g, t_h, s_g - shift, s_h - shift]
        else:
            logs = [t_g + s_h, s_g + t_h]
        return _padded(float(np.exp(logs).sum()))


def _antidiagonal_bound(params: ShearParams, q, limit: int) -> np.ndarray:
    """Per antidiagonal n of grid(limit), a bound on |f| for every integrand
    _case_mean forms at the point.  Every point of n has a, b <= m = min(n - 1,
    limit), and every bound function lies between 1 and F = (1 + a |alpha|)(1 +
    b |beta|), as for _tail_bound, so |f| <= F(m, m)^q for q > 0, log F(m, m)
    for the log, and 1 for q <= 0.  Padded for rounding: the computed values lie
    in [1 - 4 ulp, F (1 + 4 ulp)], and the relative slack covers (1 +- 4 ulp)^q
    for |q| < 2^28 and the case mean's rounding; log F(m, m) >= log 4, so the log
    needs no absolute floor."""
    n = np.arange(2.0, 2 * limit + 1)
    if q is not None and q <= 0:
        return np.full(n.size, _padded(1.0))
    m = np.minimum(n - 1.0, limit)
    with np.errstate(over="ignore"):  # an inf bound makes the sum read the whole grid
        log_f = np.log1p(m * abs(params.alpha)) + np.log1p(m * abs(params.beta))
        return _padded(log_f if q is None else np.exp(q * log_f))


def _report(params: ShearParams, family: BoundFamily, cfg: SeriesConfig,
            q: float | None = None) -> BoundReport:
    """Per-norm values and envelope: the Lyapunov bounds when q is None, else
    (1/4) log of the q-moment sums, whose lower values come from the
    upper-bound functions when q < 0.  A q that is not finite raises
    DomainError before any grid is built."""
    if q is not None and not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")
    tail = _tail_bound(params, q, 2 * cfg.max_index)

    def values(side: Side) -> dict[NormKind, float]:
        out = {}
        for norm in norms_for(family, params.regime, side):
            s = expect_block(_case_mean(family, norm, side, params, q), cfg, tail)
            # a subnormal sum has already lost bits, and a zero one has no log
            if q is not None and s < sys.float_info.min:
                raise NonConvergenceError(
                    f"series sum is {s!r}: the {side.value} {norm.value} moment sum at "
                    f"q = {q} underflows double precision, as terms f^q do at large "
                    "negative q; a larger max_index cannot help"
                )
            out[norm] = (s if q is None else math.log(s)) / 4.0
        return out

    swap = q is not None and q < 0
    lowers = values(Side.UPPER if swap else Side.LOWER)
    uppers = values(Side.LOWER if swap else Side.UPPER)
    per_norm = {norm: Bounds(lowers.get(norm), uppers.get(norm)) for norm in NormKind}
    return BoundReport(family, per_norm)


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
    _require_finite("closed-form bounds", params, lower, upper)
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
    lower, upper = math.log(lower_arg) / 4.0, math.log(upper_arg) / 4.0
    _require_finite(f"exact q = {q} moment bounds", params, lower, upper)
    return ExactGleBounds(lower_arg=lower_arg, upper_arg=upper_arg, lower=lower, upper=upper)


def entropy_bounds(params: ShearParams) -> Bounds:
    """Topological-entropy bounds: the q = 1 moment exponent in closed form."""
    if params.regime is not Regime.POSITIVE_PAIR:
        raise DomainError("entropy bounds require positive-regime parameters")
    ab = params.alpha * params.beta
    lower, upper = math.log(1.0 + 4.0 * ab) / 4.0, math.log(3.0 + 4.0 * ab) / 4.0
    _require_finite("entropy bounds", params, lower, upper)
    return Bounds(lower, upper)


def gle_curve(
    q_min: float,
    q_max: float,
    n_points: int,
    params: ShearParams,
    family: BoundFamily = BoundFamily.GLOBAL,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> GLECurve:
    """Envelope bounds sampled on a uniform q grid of n_points, an integer."""
    if not -math.inf < q_min < q_max < math.inf:
        raise DomainError(f"need finite q_min < q_max, got [{q_min}, {q_max}]")
    n_points = _integer("n_points", n_points)
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
