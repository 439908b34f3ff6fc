"""Expectations over the geometric block-length distribution.

Block run lengths (a, b) are i.i.d. geometric with weight 2^-(a+b), so
every quantity of interest is a double series  sum 2^-(a+b) f(a, b).
A truncated sum calls a vectorized f once, on the whole grid, and is
exact: the terms are split into integer pieces (an integer part by
np.trunc, and a fraction by a subtraction that does not round) binned by
binary exponent in one numpy pass, whose per-bin sums involve no rounding,
and only the few hundred bin totals are rounded together by math.fsum.  The
result is the correctly rounded exact sum, the same double math.fsum returns
for the terms themselves, whatever their order (above 2^25 terms, math.fsum
sums them itself).  Sums are checked by doubling the truncation index.
Moments of the form  sum 2^-a a^n  are integers and are computed exactly
by recurrence, which gives exact values for integer-q moment expansions.

The 2^-(a+b) weights encode a fair coin.  A biased coin (probability p of
the lower shear) would weight blocks by p^a q^b with mean block length
1/(p q); only this module's weight function and the engine's block-scale
divisor would change, nothing in the cone or growth machinery.  That
generalization is deliberately not implemented.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .linalg import DomainError

__all__ = [
    "NonConvergenceError",
    "SeriesConfig",
    "SeriesResult",
    "DEFAULT_SERIES",
    "truncated_sum",
    "expect_block",
    "expect_block_report",
    "kappa",
    "polylog_half",
    "expect_block_exact_poly",
]

_MAX_INDEX = 1024  # engine's cache holds 24 grids of (2N)^2 doubles: 0.8 GB at N = 1024
_POLYLOG_MAX = 12
_SUM_MAX_TERMS = 1 << 25  # terms binned at most: each bin stays below 2^52
_SUM_EMAX = 900  # binned exponents; rescaled bin totals then stay normal and finite
_SUM_BINS = 2 * _SUM_EMAX + 27  # exponents -_SUM_EMAX.._SUM_EMAX, 26 more for integer parts


class NonConvergenceError(RuntimeError):
    """Doubling the truncation moved the sum by more than the tail tolerance,
    or the sum is not finite, or a moment sum underflows below the normal
    doubles (to zero its log is undefined; subnormal it has lost bits)."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation limit and tail tolerance for the weighted double sums.

    The doubling check compares the sum truncated at max_index with the sum
    truncated at 2*max_index; the difference must stay below tail_tol,
    in absolute terms for order-one sums or relative to the sum's magnitude
    for large moment sums (double precision cannot resolve an absolute
    1e-12 on a sum of size 1e6).  max_index is at most 1024, which bounds the
    memory of the bound-function grid cache.
    """

    max_index: int = 64
    tail_tol: float = 1e-12

    def __post_init__(self):
        if not 8 <= self.max_index <= _MAX_INDEX:
            raise DomainError(f"max_index must be in 8..{_MAX_INDEX}, got {self.max_index}")
        if not self.tail_tol > 0:
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_estimate: float
    truncation: int


DEFAULT_SERIES = SeriesConfig()


@functools.lru_cache(maxsize=2)  # the doubling check sums at two sizes
def _grid(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, 2^-(a+b)) on the grid 1..limit x 1..limit; read-only, shared by
    every sum of that size."""
    idx = np.arange(1, limit + 1, dtype=np.float64)
    aa, bb = np.meshgrid(idx, idx, indexing="ij")
    weights = np.exp2(-(aa + bb))
    for x in (aa, bb, weights):
        x.flags.writeable = False
    return aa, bb, weights


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms.ravel().tolist()), bit for bit, in one numpy pass.

    Each finite term is m 2^e with 1/2 <= |m| < 1, and m 2^27 splits
    exactly into an integer part below 2^27 (np.trunc) and a fraction that
    is a multiple of 2^-26 (m 2^27 minus that part, a subtraction that does
    not round).  Counted in units of 2^(k-53) in bin k, both pieces
    are integers: the fraction times 2^26 in bin e, the integer part in bin
    e + 26.  np.bincount adds the pieces bin by bin, and a few adjacent bins
    are then folded into one with power-of-two weights.  At most
    _SUM_MAX_TERMS terms are binned and the fold width shrinks as the term
    count grows, so every addition is between integers below 2^53 and none
    rounds, in any order.  math.fsum of the rescaled bin totals (and of any
    term with e < -_SUM_EMAX, passed through as it is) then rounds the exact
    sum once, like math.fsum of the terms themselves: fsum rounds correctly
    whenever no partial sum overflows, which magnitudes below 2^_SUM_EMAX
    rule out.

    No terms or more than _SUM_MAX_TERMS, non-finite terms, terms of
    2^_SUM_EMAX or more, and an exact sum of zero (whose sign is fsum's to
    choose) are left to math.fsum of the list itself, so values, inf or nan
    results and its ValueError or OverflowError stay those of fsum.
    """
    flat = terms.ravel()
    if not 0 < flat.size <= _SUM_MAX_TERMS:
        return math.fsum(flat.tolist())
    # intp exponents: np.bincount would copy int32 ones for each of its two calls
    m, e = np.frexp(flat, out=(None, np.empty(flat.size, dtype=np.intp)))
    if e.max() > _SUM_EMAX:
        return math.fsum(flat.tolist())
    parts: list[float] = []
    if e.min() < -_SUM_EMAX:
        tiny = e < -_SUM_EMAX
        parts = flat[tiny].tolist()
        m[tiny] = 0.0
        e[tiny] = -_SUM_EMAX
    e += _SUM_EMAX
    m *= 2.0 ** 27
    w = np.trunc(m)
    # n terms put less than n 2^27 in a bin; folding w bins multiplies
    # that by less than 2^w, which stays within 2^53
    width = 26 - (flat.size - 1).bit_length()
    nbins = -(-_SUM_BINS // width) * width
    with np.errstate(invalid="ignore"):  # inf - trunc(inf) is nan; caught below
        m -= w  # exact: the fraction of a double
        bins = np.bincount(e, weights=m, minlength=nbins) * 2.0 ** 26
        bins[26:] += np.bincount(e, weights=w, minlength=nbins)[:-26]
    if not np.isfinite(bins).all():
        return math.fsum(flat.tolist())
    folded = bins.reshape(-1, width) @ np.exp2(np.arange(width))
    nonzero = np.flatnonzero(folded)
    parts += np.ldexp(folded[nonzero], nonzero * width - _SUM_EMAX - 53).tolist()
    total = math.fsum(parts)
    return total if total != 0.0 else math.fsum(flat.tolist())


def truncated_sum(f: Callable, limit: int) -> float:
    """sum_{a,b=1}^{limit} 2^-(a+b) f(a, b), summed exactly.

    f is called once, on the limit x limit arrays of a and b.  The result is
    the correctly rounded sum of the weighted terms, equal bit for bit to
    math.fsum over them (see _exact_sum), whatever their order.
    """
    aa, bb, weights = _grid(limit)
    return _exact_sum(weights * f(aa, bb))


def expect_block_report(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> SeriesResult:
    """Expectation of f(a, b) under the 2^-(a+b) weights, with tail estimate."""
    s1 = truncated_sum(f, cfg.max_index)
    s2 = truncated_sum(f, 2 * cfg.max_index)
    if not math.isfinite(s2):
        raise NonConvergenceError(
            f"series sum is not finite ({s2}): its terms overflow double precision, "
            "as moment terms f^q do at large |q|; a larger max_index cannot help"
        )
    tail = abs(s2 - s1)
    allowance = max(cfg.tail_tol, cfg.tail_tol * abs(s2))
    if not tail <= allowance:
        raise NonConvergenceError(
            f"series tail estimate {tail:.3e} exceeds tolerance {allowance:.3e} "
            f"at truncation {cfg.max_index} (sum ~ {s2:.6g}); increase max_index"
        )
    return SeriesResult(value=s2, tail_estimate=tail, truncation=2 * cfg.max_index)


def expect_block(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    return expect_block_report(f, cfg).value


@functools.lru_cache(maxsize=1)
def kappa() -> float:
    """The constant 2 * sum_{a>=1} 2^-a log(a)  ~  1.0157.

    120 terms leave a tail below 2^-120 * (log 120 + 2), far under 1e-12.
    """
    return 2.0 * math.fsum(math.ldexp(math.log(a), -a) for a in range(1, 121))


@functools.lru_cache(maxsize=None)
def polylog_half(n: int) -> int:
    """Exact integer value of sum_{a>=1} 2^-a a^n for 0 <= n <= 12.

    Shifting a -> a+1 gives the recurrence T_n = 1 + sum_{k<n} C(n,k) T_k:
    1, 2, 6, 26, 150, 1082, 9366, ...
    """
    if not 0 <= n <= _POLYLOG_MAX:
        raise DomainError(f"polylog_half supports 0 <= n <= {_POLYLOG_MAX}, got {n}")
    if n == 0:
        return 1
    return 1 + sum(math.comb(n, k) * polylog_half(k) for k in range(n))


def expect_block_exact_poly(coeffs: Mapping[tuple[int, int], float]):
    """Exact expectation of a polynomial sum c_ij a^i b^j.

    Independence factorizes each monomial:  E[a^i b^j] = T_i * T_j  with
    T_n = polylog_half(n).  Integer coefficients give an exact integer.
    """
    for (i, j) in coeffs:
        if not (0 <= i <= _POLYLOG_MAX and 0 <= j <= _POLYLOG_MAX):
            raise DomainError(f"monomial exponent ({i}, {j}) beyond the polylog table")
    terms = [c * polylog_half(i) * polylog_half(j) for (i, j), c in coeffs.items()]
    if all(isinstance(t, int) for t in terms):
        return sum(terms)
    return math.fsum(terms)
