"""Expectations over the geometric block-length distribution.

Block run lengths (a, b) are i.i.d. geometric with weight 2^-(a+b), so
every quantity of interest is a double series  sum 2^-(a+b) f(a, b).
A truncated sum calls a vectorized f once, on the whole grid, and is
exact: the result is the correctly rounded exact sum of the terms, the same
double math.fsum returns for them, whatever their order.  Error-free
extraction gets it in two or three whole-array passes: each pass rounds
every remaining term to a power-of-two grid, sums the rounded parts exactly
and keeps the exact remainders, whose sum is then bounded; the bound proves
which double the exact sum rounds to.  Where it does not (a sum near a
rounding midpoint, zero, huge or near-subnormal sums, non-finite terms, or
more than 2^25 terms), math.fsum sums the terms itself.

The grid is flat and ordered by antidiagonal n = a + b, then by a, so the
triangle a + b <= K is a leading run of it.  The weights fall off as 2^-n,
so the terms past some antidiagonal cannot move the double.  An integrand
may return a LazyTable in place of its values: a bound on its magnitude on
each antidiagonal, and its values on a leading run on request.  Its sum is
then extracted from the shortest leading run whose tail bound,
sum_{n > K} (terms on n) 2^-n B_n, is at most 2^-_TAIL_BITS of the bound
on the whole sum of magnitudes, and the certificate's slack is the
extraction's remainder bound plus that tail bound.  Where it does not decide
(the sum cancels, or lies near a rounding midpoint), and where a bound is not
finite, the whole grid is summed as for a plain table, so the result is
math.fsum of every term either way.  The doubling check sums the integrand
on the doubled grid alone.  The sum over its N x N corner is the run's less
the run's terms outside the corner, plus the corner's terms past the run, so
the taus that decided the doubled sum, less those outside terms, with the
corner's own tail bound as slack decide it too; only where they do not, or no
run decided the doubled sum, are the corner's points read whole.
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
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .linalg import DomainError, _integer

__all__ = [
    "NonConvergenceError",
    "SeriesConfig",
    "SeriesResult",
    "LazyTable",
    "DEFAULT_SERIES",
    "truncated_sum",
    "expect_block",
    "expect_block_report",
    "kappa",
    "polylog_half",
    "expect_block_exact_poly",
]

_MAX_INDEX = 1024  # grid(2N) holds three arrays of (2N)^2 doubles: 100 MB at N = 1024
_POLYLOG_MAX = 12
_SUM_MAX_TERMS = 1 << 25  # terms extracted at most: 2^M stays far below 2^53
_EXTRACT_EMAX = 1000  # largest extraction sigma: below it no partial sum of the terms overflows
_EXTRACT_EMIN = -900  # smallest remainder bound: the taus and the bound stay normal doubles
_TAIL_BITS = 64  # a leading run's tail bound is at most 2^-64 of the bound on the sum
_TAIL_SLACK = 2.0**-20  # relative slack on the tail bound's rounded sum
_TAIL_FLOOR = 2.0**-1000  # absolute slack for terms and tail bounds that underflow


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
    1e-12 on a sum of size 1e6).  max_index is an integer up to 1024, which
    bounds the memory of the grids; tail_tol is finite.
    """

    max_index: int = 64
    tail_tol: float = 1e-12

    def __post_init__(self):
        # stored as an int: a float would key the grid caches
        object.__setattr__(self, "max_index", _integer("max_index", self.max_index))
        if not 8 <= self.max_index <= _MAX_INDEX:
            raise DomainError(f"max_index must be in 8..{_MAX_INDEX}, got {self.max_index}")
        if not 0 < self.tail_tol < math.inf:
            raise DomainError(f"tail_tol must be finite and positive, got {self.tail_tol}")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_estimate: float
    truncation: int


DEFAULT_SERIES = SeriesConfig()


@functools.lru_cache(maxsize=1)
def grid(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, 2^-(a+b)) on the grid 1..limit x 1..limit, flat and ordered by the
    antidiagonal a + b, then by a (see antidiagonal_starts); read-only, shared by
    every sum of that size and the engine's bound-function grids."""
    starts = antidiagonal_starts(limit)
    n = np.arange(2, 2 * limit + 1, dtype=np.float64)
    counts = np.diff(starts)
    ab = np.repeat(n, counts)
    # point i of the grid lies on antidiagonal n, which starts at a = max(1, n - limit)
    a = np.arange(starts[-1], dtype=np.float64)
    a -= np.repeat(starts[:-1] - np.maximum(1.0, n - limit), counts)
    b = ab - a
    weights = np.exp2(-ab)
    for x in (a, b, weights):
        x.flags.writeable = False
    return a, b, weights


@functools.lru_cache(maxsize=1)
def antidiagonal_starts(limit: int) -> np.ndarray:
    """Offsets into grid(limit) of the antidiagonals a + b = 2..2 limit, then its
    size: antidiagonal n holds points starts[n - 2] up to starts[n - 1]."""
    n = np.arange(2, 2 * limit + 1)
    starts = np.concatenate(([0], np.cumsum(np.minimum(n - 1, 2 * limit + 1 - n))))
    starts.flags.writeable = False
    return starts


@functools.lru_cache(maxsize=1)
def _antidiagonal_weights(limit: int) -> np.ndarray:
    """Per antidiagonal n of grid(limit), its number of points times 2^-n.
    Where 2^-n underflows to zero the grid's terms are exactly zero too."""
    starts = antidiagonal_starts(limit)
    out = np.diff(starts) * grid(limit)[2][starts[:-1]]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LazyTable:
    """An integrand's values on grid(limit), computed only where a sum needs them.

    head(m) returns the values on the first m points of the grid, and
    bound[n - 2] is at least the magnitude of every value head returns on
    antidiagonal n; a bound that is not finite (inf where nothing is known)
    makes the sum read the whole grid.
    A sum whose leading run is certified never asks for the rest.
    """

    head: Callable[[int], np.ndarray]
    bound: np.ndarray


def _extract(r: np.ndarray, sigma: float, out: np.ndarray) -> float:
    """Leaves q = (sigma + r) - sigma in out (which may be r) and returns its sum."""
    np.add(r, sigma, out=out)
    out -= sigma
    return float(out.sum())


def _certified(taus: list[float], b: float, tail: float) -> float | None:
    """The double every sum within b + tail of sum(taus) rounds to, if one
    non-zero double takes them all (rounding is monotone); otherwise None."""
    total = math.fsum(taus + [-b, -tail])
    return total if total == math.fsum(taus + [b, tail]) != 0.0 else None


def _extraction(flat: np.ndarray, tail: float = 0.0) -> tuple[float, list[float], float] | None:
    """math.fsum of flat and of terms outside it that sum to at most tail in
    size, certified in two or three whole-array passes, with the certificate
    (the taus and the remainder bound b of its last pass), or None where the
    certificate does not decide it.

    Error-free vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31, 2008): take n terms r, 2^M >= n + 2, and a power of two sigma with
    every |r_i| <= 2^-M sigma.  Then q = (sigma + r) - sigma is computed
    without error, is a multiple of 2^-53 sigma and at most 2^-M sigma in
    size, so tau = q.sum() is exact in any order; and r - q is exact and at
    most 2^-53 sigma.  Each pass takes one tau out of the remainder and
    moves sigma to 2^(M-53) sigma, so after it the remainder sums to less
    than b = 2^(M-53) sigma_last.  If the taus minus b + tail and the taus
    plus b + tail round (math.fsum) to the same non-zero double, the exact
    sum, of flat and of the terms outside it, rounds to it too.  The
    remainder after one pass lives in the buffer of q, which the second pass
    overwrites, so a third pass computes the remainder after two afresh.

    None for no terms or more than _SUM_MAX_TERMS, for a largest |term| that
    is zero or not finite (nan, inf and signed zeros stay fsum's), for sigma
    above 2^_EXTRACT_EMAX (where fsum's partial sums may overflow, and its
    OverflowError stays) or b below 2^_EXTRACT_EMIN (near the subnormals),
    and after three undecided passes.
    """
    if not 0 < flat.size <= _SUM_MAX_TERMS:
        return None
    mu = max(flat.max(), -flat.min())
    if not 0.0 < mu < math.inf:
        return None
    m = (flat.size + 1).bit_length()  # M
    exp = math.frexp(mu)[1] + m  # mu < 2^-M sigma
    if exp > _EXTRACT_EMAX or exp + 2 * (m - 53) < _EXTRACT_EMIN:
        return None
    # sigma of passes 1-3; sigma[j] also bounds the remainder after pass j
    sigma = [math.ldexp(1.0, exp + j * (m - 53)) for j in range(4)]
    q = np.empty_like(flat)
    taus = [_extract(flat, sigma[0], q)]
    np.subtract(flat, q, out=q)
    taus.append(_extract(q, sigma[1], q))
    total = _certified(taus, sigma[2], tail)
    if total is not None:
        return total, taus, sigma[2]
    if exp + 3 * (m - 53) < _EXTRACT_EMIN:
        return None
    # the remainder after two passes: (flat - first pass's q) - q
    np.subtract(flat - ((flat + sigma[0]) - sigma[0]), q, out=q)
    taus.append(_extract(q, sigma[2], q))
    total = _certified(taus, sigma[3], tail)
    return None if total is None else (total, taus, sigma[3])


def _extracted_sum(flat: np.ndarray, tail: float = 0.0) -> float | None:
    """The double of _extraction(flat, tail), or None."""
    decided = _extraction(flat, tail)
    return None if decided is None else decided[0]


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms.ravel().tolist()), bit for bit, whatever the order.

    _extracted_sum decides almost every series sum in two passes, and most
    of the rest in three: its certificate is a bound b on the terms left
    after the passes, and two math.fsum calls show that every value within
    b of the extracted part rounds to one double.  Where they do not agree,
    and for inputs the extraction declines (no terms, too many, zero,
    non-finite or huge ones, sums near the subnormals), math.fsum sums the
    list itself, so its values, signed zeros and exceptions stay.
    """
    flat = terms.ravel()
    total = _extracted_sum(flat)
    return math.fsum(flat.tolist()) if total is None else total


def _padded(bound: float) -> float:
    """A tail bound summed in doubles, raised to cover that sum's rounding
    and terms that underflow."""
    return bound * (1.0 + _TAIL_SLACK) + _TAIL_FLOOR


def _prefix_sum(table: LazyTable, limit: int) -> float | None:
    """The sum over grid(limit) of the weighted values of table, from the
    shortest leading run whose tail bound is at most 2^-_TAIL_BITS of the
    bound on the whole sum of magnitudes; None where that run is the whole
    grid (as it is for any bound that is not finite, whose total is inf or
    nan) or its certificate (with the tail bound as extra slack) does not
    decide the double.  A _Memoized table receives the run (_corner_sum)."""
    with np.errstate(over="ignore", invalid="ignore"):
        # per antidiagonal, a bound on the sum of its terms' magnitudes
        bounds = _antidiagonal_weights(limit) * table.bound
        # tails[j]: a bound on the last j + 1 antidiagonals
        tails = np.cumsum(bounds[::-1])
    dropped = int(tails.searchsorted(math.ldexp(float(tails[-1]), -_TAIL_BITS), "right"))
    if not 0 < dropped < bounds.size:
        return None
    k = bounds.size - dropped
    m = int(antidiagonal_starts(limit)[k])
    terms = grid(limit)[2][:m] * table.head(m)
    decided = _extraction(terms, _padded(float(tails[dropped - 1])))
    if decided is None:
        return None
    if isinstance(table, _Memoized):
        table.run.append((terms, k, tails, decided))
    return decided[0]


def truncated_sum(f: Callable, limit: int) -> float:
    """sum_{a,b=1}^{limit} 2^-(a+b) f(a, b), summed exactly.

    f is called once, on the flat arrays a and b of grid(limit).  The result
    is the correctly rounded sum of the weighted terms of the whole grid,
    equal bit for bit to math.fsum over them (see _exact_sum), whatever their
    order.  f may return a LazyTable: its values are then summed over the
    shortest leading run of antidiagonals that the tail bound lets the
    extraction's certificate decide (_prefix_sum), and over the whole grid
    where it does not.
    """
    a, b, weights = grid(limit)
    table = f(a, b)
    if isinstance(table, LazyTable):
        total = _prefix_sum(table, limit)
        if total is not None:
            return total
        table = table.head(a.size)
    return _exact_sum(weights * table)


@dataclass(frozen=True)
class _Memoized(LazyTable):
    """A table on grid(2 N) whose head keeps the longest run computed so far
    and slices it; run receives the leading run that decided its sum, if one
    did (_prefix_sum)."""

    run: list[tuple] = field(default_factory=list)


def _memoized(table: LazyTable) -> _Memoized:
    """table, whose head keeps the longest run computed so far and slices it."""
    longest = np.empty(0)

    def head(m):
        nonlocal longest
        if longest.size < m:
            longest = table.head(m)
        return longest[:m]

    return _Memoized(head, table.bound)


@functools.lru_cache(maxsize=1)
def _corner_positions(n: int) -> np.ndarray:
    """Where the points of the N x N corner (N = n) lie in grid(2 n), in their
    order there (by a + b, then by a)."""
    a, b, _ = grid(2 * n)
    out = np.flatnonzero((a <= n) & (b <= n))
    out.flags.writeable = False
    return out


def _corner_sum(table: _Memoized | np.ndarray, n: int) -> float:
    """The sum over the N x N corner (N = n) of a table on grid(2 N) whose own
    sum truncated_sum has taken: math.fsum of the corner's weighted terms,
    from the first of three answers that decides it.

    Where the table's sum was decided on a leading run, antidiagonals 2..K + 1,
    the corner's exact sum is the run's, minus the run's terms outside the
    corner (a > N or b > N, on antidiagonals N + 2 on), plus the corner's terms
    past the run.  Both lie on antidiagonals from min(K, N) + 2 on, which one
    entry of the run's tail bounds covers: if the run's certificate still
    decides its double with that slack, that double is the corner's sum too
    (always so for K <= N).  Otherwise the outside terms are gathered from the
    run and subtracted from the taus, with the corner's own tail bound as the
    slack; the corner holds min(j - 1, 2 N + 1 - j) points of antidiagonal j.
    Where neither decides, or no run decided the table's sum, the corner's
    points are read whole from the table."""
    if isinstance(table, _Memoized) and table.run:
        [(terms, k, tails, (total, taus, rest))] = table.run
        if _certified(taus, rest, _padded(float(tails[4 * n - 2 - min(k, n)]))) == total:
            return total
        first = int(antidiagonal_starts(2 * n)[n])  # antidiagonal N + 2, the first outside
        a, b, _ = grid(2 * n)
        m = terms.size
        outside = terms[first:][(a[first:m] > n) | (b[first:m] > n)]
        j = np.arange(k + 2, 2 * n + 1)
        weights = np.minimum(j - 1, 2 * n + 1 - j) * np.exp2(-j.astype(np.float64))
        past = float(weights @ table.bound[k:2 * n - 1])
        corner = _certified(taus + (-outside).tolist(), rest, _padded(past))
        if corner is not None:
            return corner
    pos = _corner_positions(n)
    values = table[pos] if isinstance(table, np.ndarray) else table.head(int(pos[-1]) + 1)[pos]
    return _exact_sum(grid(2 * n)[2][pos] * values)


def expect_block_report(f: Callable, cfg: SeriesConfig = DEFAULT_SERIES) -> SeriesResult:
    """Expectation of f(a, b) under the 2^-(a+b) weights, with tail estimate.

    f is called once, on the 2N grid (N = cfg.max_index), and the N sum is the
    sum over that grid's N x N corner (_corner_sum).  A plain table (a scalar
    too) is broadcast to the grid's shape.  Where f returns a LazyTable, the
    2N sum computes only the leading run of antidiagonals that decides it, and
    the certificate that decided it decides the N sum too, from the run's
    terms outside the corner and the corner's own tail bound, as it does for
    almost every bound integrand of the engine.  Only where it does not is the
    corner read whole, from the values the 2N sum computed.  Both values are
    math.fsum of every term of their grid, so the value and the tail estimate
    do not depend on how much was read.
    """
    n = cfg.max_index
    table = None

    def tabulated(a, b):
        nonlocal table
        table = f(a, b)
        table = (_memoized(table) if isinstance(table, LazyTable)
                 else np.broadcast_to(table, a.shape))
        return table

    s2 = truncated_sum(tabulated, 2 * n)
    s1 = _corner_sum(table, n)
    if not math.isfinite(s2):
        raise NonConvergenceError(
            f"series sum is not finite ({s2}): its terms overflow double precision; "
            "a larger max_index cannot help"
        )
    tail = abs(s2 - s1)
    allowance = max(cfg.tail_tol, cfg.tail_tol * abs(s2))
    if not tail <= allowance:
        raise NonConvergenceError(
            f"series tail estimate {tail:.3e} exceeds tolerance {allowance:.3e} "
            f"at truncation {n} (sum ~ {s2:.6g}); increase max_index"
        )
    return SeriesResult(value=s2, tail_estimate=tail, truncation=2 * n)


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
